//! `hybrid_flows`: the hybrid engine's one-million-flow cell — Chain3 and
//! Chain5 on the testbed rack, a diurnal load with a flash crowd and a
//! DDoS surge, flows of at least θ packets materialized and the rest
//! charged analytically per window.

use crate::adapter;
use crate::harness::{fnv1a, repeat, secs, Outcome, Rep};
use crate::placer::SearchLatency;
use crate::replay::{replay_flows, Replay};
use crate::trace::{Layers, TimedOracle};
use lemur_bench::{build_problem, compiler_oracle};
use lemur_core::chains::CanonicalChain;
use lemur_dataplane::{
    validate_scenario, ChainLoad, Diurnal, FlowSizeDist, Scenario, ScenarioSpec, SimConfig, Surge,
    SurgeKind, TrafficSpec, TrafficTolerance,
};
use lemur_placer::oracle::StageOracle;
use lemur_placer::placement::{EvaluatedPlacement, PlacementProblem};
use lemur_placer::topology::Topology;
use std::time::Instant;

/// Heavy-hitter threshold (packets).
const THETA: u64 = 512;
/// Flows before the DDoS junk flows are added.
const FLOWS: usize = 1_000_000;

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        duration_s: 0.02,
        warmup_s: 0.005,
        seed,
        ..SimConfig::default()
    }
}

fn horizon_ns(c: &SimConfig) -> u64 {
    ((c.warmup_s + c.duration_s) * 1e9) as u64
}

/// One chain's load: bounded-Pareto sizes under a diurnal envelope, a
/// flash crowd at half time and DDoS junk flows at five eighths.
fn load(flows: usize, horizon_ns: u64, chain: usize) -> ChainLoad {
    ChainLoad {
        flows,
        flow_rate_pps: 400_000.0 + 100_000.0 * chain as f64,
        size: FlowSizeDist {
            alpha: 1.1,
            min_packets: 1,
            max_packets: 2_048,
        },
        diurnal: Some(Diurnal {
            period_ns: horizon_ns,
            amplitude: 0.3,
        }),
        surges: vec![
            Surge {
                kind: SurgeKind::FlashCrowd,
                start_ns: horizon_ns / 2,
                duration_ns: horizon_ns / 8,
                factor: 3.0,
            },
            Surge {
                kind: SurgeKind::Ddos,
                start_ns: horizon_ns * 5 / 8,
                duration_ns: horizon_ns / 8,
                factor: 2.0,
            },
        ],
    }
}

fn problem() -> (PlacementProblem, Vec<TrafficSpec>) {
    build_problem(
        &[CanonicalChain::Chain3, CanonicalChain::Chain5],
        0.3,
        Topology::testbed(),
    )
}

/// Everything the set-up phase produced, kept for the post-run checks.
struct Cell {
    problem: PlacementProblem,
    placement: EvaluatedPlacement,
    specs: Vec<TrafficSpec>,
    scenario: Scenario,
    config: SimConfig,
}

fn setup(
    seed: u64,
    layers: &mut Option<&mut Layers>,
) -> Result<(Cell, lemur_dataplane::Testbed), String> {
    let (problem, specs) = problem();
    let plain = compiler_oracle();
    let timed = TimedOracle::new(&plain);
    let oracle: &dyn StageOracle = if layers.is_some() { &timed } else { &plain };
    let t = Instant::now();
    let placement = adapter::heuristic(&problem, oracle).map_err(|e| format!("placement: {e}"))?;
    let searched = (t, Instant::now());

    let t = Instant::now();
    let deployment = adapter::compile(&problem, &placement)?;
    let compile_s = secs(t);
    let t = Instant::now();
    let testbed = adapter::build(&problem, &placement, deployment)?;
    let build_s = secs(t);

    let config = sim_config(seed);
    let spec = ScenarioSpec {
        seed,
        horizon_ns: horizon_ns(&config),
        chains: (0..2)
            .map(|ci| load(FLOWS / 2, horizon_ns(&config), ci))
            .collect(),
    };
    let t = Instant::now();
    let scenario = spec.materialize();
    let materialize_s = secs(t);
    let t = Instant::now();
    let valid = validate_scenario(
        &spec,
        &scenario,
        config.window_ns,
        &TrafficTolerance::default(),
    );
    let validate_s = secs(t);
    valid.map_err(|e| format!("traffic validator rejected the scenario: {e}"))?;

    if let Some(l) = layers.as_deref_mut() {
        l.compile_s += compile_s;
        l.build_s += build_s;
        l.materialize_s += materialize_s;
        l.validate_s += validate_s;
        l.add_oracle(&timed);
        l.add_search(searched, placement.telemetry, &timed);
    }
    Ok((
        Cell {
            problem,
            placement,
            specs,
            scenario,
            config,
        },
        testbed,
    ))
}

/// Analytic-tail packets the engine charges (warm-up, every window and
/// the final partial window), and the non-empty cells among them.
fn tail_packets(cell: &Cell) -> (u64, u64) {
    let frame_bytes: Vec<u64> = cell
        .specs
        .iter()
        .map(|s| (s.payload_len + 42) as u64)
        .collect();
    let warmup_ns = (cell.config.warmup_s * 1e9) as u64;
    let plan =
        cell.scenario
            .tail_plan(THETA, warmup_ns, cell.config.window_ns.max(1), &frame_bytes);
    let cells = plan
        .warmup
        .iter()
        .chain(plan.windows.iter().flatten())
        .chain(plan.rest.iter());
    cells.fold((0, 0), |(p, n), c| {
        (p + c.packets, n + u64::from(!c.is_empty()))
    })
}

pub fn run(seed: u64, seconds: u64, mut layers: Option<&mut Layers>) -> Outcome {
    let traced = layers.is_some();
    let mut latency = SearchLatency::default();
    let mut last: Option<(Cell, u64)> = None;
    let mut out = repeat(seconds, |rep| {
        last = None;
        // The first repetition of a traced run runs untraced, so the
        // digest check also proves tracing leaves every output unchanged.
        let mut tr = layers.as_deref_mut().filter(|_| rep > 0);
        let t0 = Instant::now();
        let (cell, mut testbed) = setup(seed, &mut tr)?;
        let setup_s = secs(t0);

        let t1 = Instant::now();
        let report = adapter::run_hybrid(
            &mut testbed,
            &cell.scenario,
            &cell.specs,
            cell.config,
            THETA,
        )
        .map_err(|e| format!("run_scenario refused the cell: {e}"))?;
        let wall_s = secs(t1);

        if !report.ledger.balanced() {
            return Err(format!(
                "conservation ledger unbalanced: {:?}",
                report.ledger
            ));
        }
        let t = Instant::now();
        let (tail, tail_cells) = tail_packets(&cell);
        let tail_plan_s = secs(t);
        let materialized = report
            .ledger
            .injected
            .checked_sub(tail)
            .ok_or("ledger injected fewer packets than the analytic tail holds")?;
        if let Some(l) = tr {
            l.tail_plan_s += tail_plan_s;
            l.tail_cells += tail_cells;
            l.traced_wall_s += wall_s;
            l.reps += 1;
        }
        let r = Rep {
            setup_s,
            wall_s,
            items: materialized,
            delivered_gbps: report.aggregate_bps() / 1e9,
            marginal_gbps: cell.placement.marginal_bps / 1e9,
            digest: fnv1a(format!("{report:?}{:?}", cell.placement).as_bytes()),
        };
        if !traced {
            latency.sample(&cell.problem)?;
        }
        last = Some((cell, materialized));
        Ok(r)
    });

    out.place_ms = latency.samples_ms;
    if let Some((cell, materialized)) = last {
        // The replay feeds the same heavy hitters once per run; a traced
        // run walks them through the platforms.
        let replayed = match layers {
            None => Ok(replay_flows(&cell.scenario, &cell.specs, THETA, None)),
            Some(l) => adapter::compile(&cell.problem, &cell.placement)
                .and_then(|d| Replay::new(&cell.problem, d))
                .map(|mut r| replay_flows(&cell.scenario, &cell.specs, THETA, Some((&mut r, l)))),
        };
        match replayed {
            Ok(n) if n == materialized => {}
            Ok(n) => out.fail(format!(
                "replay fed {n} packets but the run materialized {materialized}"
            )),
            Err(e) => out.fail(e),
        }
    }
    out
}
