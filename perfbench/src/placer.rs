//! `placer_sweep`: the Placer alone — the heuristic and brute-force
//! searches over Chains 1–4 on the testbed rack across a δ sweep, with the
//! real meta-compiler as stage oracle. The dataplane does no work here.

use crate::adapter;
use crate::harness::{fnv1a, repeat, secs, Outcome, Rep};
use crate::trace::{Layers, TimedOracle};
use lemur_bench::{build_problem, compiler_oracle};
use lemur_core::chains::CanonicalChain;
use lemur_placer::corealloc::CoreStrategy;
use lemur_placer::oracle::StageOracle;
use lemur_placer::placement::{EvaluatedPlacement, PlacementProblem};
use lemur_placer::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// The δ sweep: `t_min = δ × base rate` for every chain.
const DELTAS: [f64; 8] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
/// Heuristic searches per δ, so that a sweep holds more than 100 of them
/// and the per-search p90 has ten samples above it.
const HEURISTIC_REPEATS: usize = 13;
/// Timed `evaluate` calls per δ in a traced run.
const LP_TIMINGS: usize = 10;
/// Host time a dataplane workload spends per repetition timing heuristic
/// searches on its own problem: a few hundred samples per run, spread
/// over the run like the repetitions themselves.
const LATENCY_BUDGET: Duration = Duration::from_millis(300);

/// Heuristic search latencies on a dataplane workload's problem; every
/// search must return the first one's placement.
#[derive(Default)]
pub struct SearchLatency {
    first: Option<String>,
    pub samples_ms: Vec<f64>,
}

impl SearchLatency {
    /// Time searches on `problem` for [`LATENCY_BUDGET`].
    pub fn sample(&mut self, problem: &PlacementProblem) -> Result<(), String> {
        let oracle = compiler_oracle();
        let start = Instant::now();
        while start.elapsed() < LATENCY_BUDGET {
            let t = Instant::now();
            let e = adapter::heuristic(problem, &oracle).map_err(|e| format!("heuristic: {e}"))?;
            self.samples_ms.push(secs(t) * 1e3);
            let text = format!("{e:?}");
            if *self.first.get_or_insert_with(|| text.clone()) != text {
                return Err("heuristic search is not repeatable".to_string());
            }
        }
        Ok(())
    }
}

/// The sweep order for a seed: a seeded Fisher–Yates shuffle of the δ
/// grid, so the seed changes the order in which the searches run but not
/// what each one computes.
fn order(seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..DELTAS.len()).collect();
    for i in (1..idx.len()).rev() {
        idx.swap(i, rng.gen_range(0..=i));
    }
    idx
}

/// A placement must meet every chain's minimum rate.
fn check_slos(p: &PlacementProblem, e: &EvaluatedPlacement, what: &str) -> Result<(), String> {
    for (i, chain) in p.chains.iter().enumerate() {
        let t_min = chain.slo.map_or(0.0, |s| s.t_min_bps);
        let rate = e.chain_rates_bps.get(i).copied().unwrap_or(0.0);
        if rate < t_min * (1.0 - 1e-9) {
            return Err(format!(
                "{what}: chain {i} predicted {rate:.3e} bps below t_min {t_min:.3e}"
            ));
        }
    }
    Ok(())
}

pub fn run(seed: u64, seconds: u64, mut layers: Option<&mut Layers>) -> Outcome {
    let order = order(seed);
    let mut place_ms = Vec::new();
    let mut out = repeat(seconds, |rep| {
        // The first repetition of a traced run runs untraced, so the
        // digest check also proves tracing leaves every output unchanged.
        let tr = layers.as_deref_mut().filter(|_| rep > 0);

        let t0 = Instant::now();
        let plain = compiler_oracle();
        let problems: Vec<PlacementProblem> = DELTAS
            .iter()
            .map(|&d| {
                build_problem(
                    &[
                        CanonicalChain::Chain1,
                        CanonicalChain::Chain2,
                        CanonicalChain::Chain3,
                        CanonicalChain::Chain4,
                    ],
                    d,
                    Topology::testbed(),
                )
                .0
            })
            .collect();
        // Warm-up, and the reference each measured search must repeat:
        // one heuristic search per δ, with the plain oracle.
        let reference: Vec<String> = problems
            .iter()
            .zip(DELTAS)
            .map(|(p, d)| {
                adapter::heuristic(p, &plain)
                    .map(|e| format!("{e:?}"))
                    .map_err(|e| format!("heuristic at δ={d}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let setup_s = secs(t0);

        let timed = TimedOracle::new(&plain);
        let oracle: &dyn StageOracle = if tr.is_some() { &timed } else { &plain };
        let mut searches = Vec::new();
        let mut results: Vec<Option<(EvaluatedPlacement, EvaluatedPlacement)>> =
            vec![None; DELTAS.len()];
        let t1 = Instant::now();
        for &i in &order {
            let p = &problems[i];
            let mut heuristic: Option<EvaluatedPlacement> = None;
            for _ in 0..HEURISTIC_REPEATS {
                let t = Instant::now();
                let e = adapter::heuristic(p, oracle)
                    .map_err(|e| format!("heuristic at δ={}: {e}", DELTAS[i]))?;
                let end = Instant::now();
                place_ms.push(end.duration_since(t).as_secs_f64() * 1e3);
                searches.push((t, end, e.telemetry));
                if format!("{e:?}") != reference[i] {
                    return Err(format!("heuristic at δ={} is not repeatable", DELTAS[i]));
                }
                heuristic = Some(e);
            }
            let t = Instant::now();
            let brute = adapter::brute(p, oracle)
                .map_err(|e| format!("brute force at δ={}: {e}", DELTAS[i]))?;
            searches.push((t, Instant::now(), brute.telemetry));
            results[i] = heuristic.map(|h| (h, brute));
        }
        let wall_s = secs(t1);

        let mut text = String::new();
        let mut delivered = 0.0;
        let mut marginal = 0.0;
        for (i, r) in results.iter().enumerate() {
            let (h, b) = r.as_ref().ok_or("a δ of the sweep was not searched")?;
            check_slos(&problems[i], h, "heuristic")?;
            check_slos(&problems[i], b, "brute force")?;
            delivered += h.aggregate_bps;
            marginal += h.marginal_bps;
            text.push_str(&format!("{h:?}{b:?}"));
        }

        if let Some(l) = tr {
            l.add_oracle(&timed);
            for &(start, end, telemetry) in &searches {
                l.add_search((start, end), telemetry, &timed);
            }
            l.traced_wall_s += wall_s;
            l.reps += 1;
            // The LP timed on its own, over each δ's heuristic placement.
            for (i, r) in results.iter().enumerate() {
                let Some((h, _)) = r else { continue };
                for _ in 0..LP_TIMINGS {
                    let t = Instant::now();
                    let e = problems[i].evaluate(&h.assignment, CoreStrategy::WaterFill);
                    l.lp_timed_ns += t.elapsed().as_nanos() as u64;
                    l.lp_timed += 1;
                    std::hint::black_box(e).map_err(|e| format!("re-evaluation: {e}"))?;
                }
            }
        }

        Ok(Rep {
            setup_s,
            wall_s,
            items: searches.len() as u64,
            delivered_gbps: delivered / 1e9,
            marginal_gbps: marginal / 1e9,
            digest: fnv1a(text.as_bytes()),
        })
    });
    out.place_ms = place_ms;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_a_seeded_permutation() {
        let mut a = order(1);
        assert_eq!(a, order(1));
        assert_ne!(a, order(2));
        a.sort_unstable();
        assert_eq!(a, (0..DELTAS.len()).collect::<Vec<_>>());
    }
}
