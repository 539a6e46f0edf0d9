//! §5.3 "Scaling Placer Computation": heuristic vs brute-force placement
//! time, and the memoized stage-oracle cache.
//!
//! Usage: `exp_placer_scaling [--quick]`
//!
//! Part 1 reproduces the paper's comparison (14 901 s exhaustive brute
//! force vs 3.5 s heuristic; our brute force ranks candidates before the
//! expensive LP + compiler stage, so its absolute time is smaller, but
//! the orders-of-magnitude gap reproduces) and projects the exhaustive
//! cost from the measured per-candidate evaluation time.
//!
//! Part 2 sweeps the (algorithm, oracle) matrix: each cell runs the same
//! search with the plain compiler oracle and with the memoized
//! [`CachedCompilerOracle`] (cache cleared before every run, so hit rates
//! are per-search). Every cell runs twice and the two results must be
//! bit-identical (`Debug` repr) — the determinism contract the
//! supervisor's last-known-good rollback relies on. Results land in
//! `target/experiments/BENCH_placer.json`; a snapshot is checked in at
//! the repo root.
//!
//! Part 3 measures the cache where it actually pays: across a δ-sweep.
//! Within one search the ranked candidates mostly synthesize distinct
//! switch programs (each pattern is a different NF split), but re-running
//! the search at another δ re-probes the very same programs — with a
//! shared cache the whole sweep's stage packing collapses to the first
//! run's misses.

use lemur_bench::{build_problem, write_json};
use lemur_core::chains::CanonicalChain::{self, *};
use lemur_metacompiler::{CachedCompilerOracle, CompilerOracle};
use lemur_placer::brute::{optimal, BruteConfig};
use lemur_placer::corealloc::CoreStrategy;
use lemur_placer::heuristic::place_with_strategy;
use lemur_placer::oracle::StageOracle;
use lemur_placer::placement::{EvaluatedPlacement, PlacementError, PlacementProblem};
use lemur_placer::topology::Topology;
use std::time::Instant;

/// One cell of the scaling matrix.
struct ScalingRow {
    set: String,
    algo: &'static str,
    oracle: &'static str,
    wall_s: f64,
    feasible: bool,
    oracle_calls: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    /// `Debug` repr identical to a second run of this configuration.
    identical_to_rerun: bool,
}

impl serde::Serialize for ScalingRow {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("set".to_string(), self.set.to_value()),
            ("algo".to_string(), self.algo.to_value()),
            ("oracle".to_string(), self.oracle.to_value()),
            ("wall_s".to_string(), self.wall_s.to_value()),
            ("feasible".to_string(), self.feasible.to_value()),
            ("oracle_calls".to_string(), self.oracle_calls.to_value()),
            ("cache_hits".to_string(), self.cache_hits.to_value()),
            ("cache_misses".to_string(), self.cache_misses.to_value()),
            ("cache_hit_rate".to_string(), self.cache_hit_rate.to_value()),
            (
                "identical_to_rerun".to_string(),
                self.identical_to_rerun.to_value(),
            ),
        ])
    }
}

fn run_algo(
    algo: &'static str,
    p: &PlacementProblem,
    oracle: &dyn StageOracle,
) -> Result<EvaluatedPlacement, PlacementError> {
    match algo {
        "heuristic" => place_with_strategy(p, oracle, CoreStrategy::WaterFill),
        _ => optimal(p, oracle, BruteConfig::default()),
    }
}

/// One matrix cell: search every problem in order with one oracle. The
/// cell runs twice from a cleared cache; the row reports the first run's
/// wall time and counters (oracle calls summed, cache counters over the
/// whole run) and whether the second run reproduced every result.
fn scaling_row(
    set: String,
    problems: &[PlacementProblem],
    algo: &'static str,
    oracle_kind: &'static str,
    plain: &CompilerOracle,
    cached: &CachedCompilerOracle,
) -> ScalingRow {
    let oracle: &dyn StageOracle = if oracle_kind == "cached" {
        cached
    } else {
        plain
    };
    let run = || {
        cached.cache().clear();
        let t0 = Instant::now();
        let results: Vec<_> = problems.iter().map(|p| run_algo(algo, p, oracle)).collect();
        (t0.elapsed().as_secs_f64(), cached.cache().stats(), results)
    };
    let (wall_s, cache, results) = run();
    let (_, _, rerun) = run();
    ScalingRow {
        set,
        algo,
        oracle: oracle_kind,
        wall_s,
        feasible: results.iter().all(|r| r.is_ok()),
        oracle_calls: results
            .iter()
            .filter_map(|r| r.as_ref().ok()?.telemetry)
            .map(|t| t.oracle_calls)
            .sum(),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_hit_rate: cache.hit_rate(),
        identical_to_rerun: format!("{results:?}") == format!("{rerun:?}"),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let all_sets: &[(&str, &[CanonicalChain])] = &[
        ("1 chain  {3}", &[Chain3]),
        ("2 chains {2,3}", &[Chain2, Chain3]),
        ("3 chains {1,2,3}", &[Chain1, Chain2, Chain3]),
        ("4 chains {1,2,3,4}", &[Chain1, Chain2, Chain3, Chain4]),
    ];
    let sets = if quick { &all_sets[..2] } else { all_sets };

    // Part 1: §5.3 heuristic vs ranked brute force (sequential timings).
    let oracle = lemur_bench::compiler_oracle();
    println!("=== §5.3 Placer scaling (δ = 1.0) ===\n");
    let mut rows = Vec::new();
    for (label, chains) in sets {
        let (p, _) = build_problem(chains, 1.0, Topology::testbed());
        let t0 = Instant::now();
        let h = place_with_strategy(&p, &oracle, CoreStrategy::WaterFill);
        let t_h = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let b = optimal(&p, &oracle, BruteConfig::default());
        let t_b = t1.elapsed().as_secs_f64();
        // Projected exhaustive cost: candidates × (patterns per chain).
        let patterns = lemur_placer::brute::per_chain_patterns(&p, usize::MAX);
        let combos: f64 = patterns.iter().map(|v| v.len() as f64).product();
        let per_candidate = t_b / BruteConfig::default().candidates as f64;
        let projected = combos * per_candidate;
        println!(
            "  {label:<20} heuristic {t_h:>8.3}s ({}) | ranked brute {t_b:>8.3}s ({}) | {combos:>10.0} patterns ≈ {projected:>9.0}s exhaustive",
            h.as_ref().map(|_| "ok").unwrap_or("infeasible"),
            b.as_ref().map(|_| "ok").unwrap_or("infeasible"),
        );
        if let (Ok(h), Ok(b)) = (&h, &b) {
            let gap = (b.marginal_bps - h.marginal_bps) / b.marginal_bps.max(1.0);
            println!(
                "      marginal: heuristic {:.2} G vs optimal {:.2} G (gap {:.1}%)",
                h.marginal_bps / 1e9,
                b.marginal_bps / 1e9,
                gap * 100.0
            );
        }
        rows.push((label.to_string(), t_h, t_b, combos, projected));
    }
    write_json("placer_scaling", &rows);

    // Part 2: algorithm × oracle matrix, each cell checked against a
    // re-run.
    println!("\n=== Search-engine scaling: algorithm × oracle ===\n");
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>8} {:>7} {:>7} {:>6} {:>10}",
        "set", "algo", "oracle", "wall_s", "oracle#", "hits", "misses", "hit%", "det"
    );
    let plain = CompilerOracle::new();
    let cached = CachedCompilerOracle::new();
    let mut matrix = Vec::new();
    for (label, chains) in sets {
        let (p, _) = build_problem(chains, 1.0, Topology::testbed());
        for algo in ["heuristic", "brute"] {
            for oracle_kind in ["compiler", "cached"] {
                matrix.push(scaling_row(
                    label.to_string(),
                    std::slice::from_ref(&p),
                    algo,
                    oracle_kind,
                    &plain,
                    &cached,
                ));
            }
        }
    }

    // Part 3: δ-sweep cache effectiveness on the largest set.
    let deltas: &[f64] = if quick {
        &[0.5, 1.0, 1.5, 2.0]
    } else {
        &[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    };
    let (label, chains) = sets.last().expect("at least one set");
    let sweep: Vec<PlacementProblem> = deltas
        .iter()
        .map(|&delta| build_problem(chains, delta, Topology::testbed()).0)
        .collect();
    for algo in ["heuristic", "brute"] {
        for oracle_kind in ["compiler", "cached"] {
            matrix.push(scaling_row(
                format!("{label} δ-sweep x{}", deltas.len()),
                &sweep,
                algo,
                oracle_kind,
                &plain,
                &cached,
            ));
        }
    }

    let mut all_deterministic = true;
    for r in &matrix {
        all_deterministic &= r.identical_to_rerun;
        println!(
            "{:<20} {:>9} {:>9} {:>9.3} {:>8} {:>7} {:>7} {:>5.0}% {:>10}",
            r.set,
            r.algo,
            r.oracle,
            r.wall_s,
            r.oracle_calls,
            r.cache_hits,
            r.cache_misses,
            r.cache_hit_rate * 100.0,
            if r.identical_to_rerun {
                "identical"
            } else {
                "DIVERGED"
            },
        );
    }
    write_json("BENCH_placer", &matrix);
    println!(
        "\ndeterminism: {}",
        if all_deterministic {
            "every re-run reproduced its placement bit-for-bit"
        } else {
            "DIVERGENCE DETECTED — a re-run changed its placement"
        }
    );
    println!("\nPaper shape: heuristic is orders of magnitude faster than exhaustive");
    println!("brute force (3.5 s vs 14901 s on the authors' machine) at matching quality.");
    if !all_deterministic {
        std::process::exit(1);
    }
}
