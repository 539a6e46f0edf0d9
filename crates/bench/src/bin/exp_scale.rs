//! Million-flow hybrid-engine scaling: the flow-level fast path over the
//! server NF runtime, end to end.
//!
//! Usage: `exp_scale [--quick] [--baseline PATH]`
//!
//! A two-chain placement (Chain3 + Chain5, hardware-preferred) is driven
//! by seeded flow-level scenarios of growing size — 10 k, 100 k, and
//! 1 M flows total — with heavy-tailed sizes (bounded Pareto, α = 1.1),
//! a diurnal rate curve, a mid-run flash crowd, and a DDoS surge of
//! minimum-size junk flows. Heavy hitters (≥ θ packets) are materialized
//! packet-by-packet through the dataplane; the long tail advances
//! analytically per SLO window, so simulated work scales with *heavy*
//! packets while conservation stays exact-integer.
//!
//! Per cell the experiment reports materialization and run wall-clock,
//! simulated packet rate, and the heavy/tail split; every scenario must
//! pass the statistical traffic validator, and every run's conservation
//! ledger must balance. A small cell is additionally replayed at full
//! packet level and compared against the hybrid run within the
//! documented in-flight + window-edge bound.
//!
//! Results land in `target/experiments/BENCH_scale.json`; a snapshot is
//! checked in at the repo root. Exit is non-zero if any gate fails:
//! validator rejection, unbalanced ledger, equivalence divergence, the
//! 1 M-flow cell exceeding its 60 s wall-clock budget (full mode), or —
//! when `--baseline` points at a previous artifact — a cell simulating
//! packets at less than half the baseline's rate. Quick cells are short,
//! so each one runs [`QUICK_REPS`] times: `run_s` is the median, and every
//! repetition must reproduce the first one's report exactly.

use lemur_bench::table::{cell, fnum, json_row, Table};
use lemur_bench::{build_problem, write_json};
use lemur_core::chains::CanonicalChain;
use lemur_dataplane::{
    validate_scenario, ChainLoad, Diurnal, FlowSizeDist, HybridConfig, HybridMode, Scenario,
    ScenarioSpec, SimConfig, SimReport, Surge, SurgeKind, Testbed, TrafficSpec, TrafficTolerance,
};
use lemur_placer::corealloc::CoreStrategy;
use lemur_placer::placement::{EvaluatedPlacement, PlacementProblem};
use std::time::Instant;

/// Heavy-hitter threshold (packets): flows at or above it are
/// materialized, the rest advance analytically.
const THETA: u64 = 512;
/// Wall-clock budget for the headline 1 M-flow cell (full mode).
const HEADLINE_BUDGET_S: f64 = 60.0;
const HEADLINE_FLOWS: usize = 1_000_000;
/// Timed repetitions per quick cell; the cell reports the median.
const QUICK_REPS: usize = 5;

fn scales(quick: bool) -> Vec<usize> {
    if quick {
        vec![10_000, 50_000]
    } else {
        vec![10_000, 100_000, HEADLINE_FLOWS]
    }
}

/// One chain's load: heavy-tailed sizes under a diurnal envelope with a
/// flash crowd and a DDoS junk-flow surge in the back half of the run.
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

fn scenario_spec(total_flows: usize, horizon_ns: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        horizon_ns,
        chains: (0..2)
            .map(|ci| load(total_flows / 2, horizon_ns, ci))
            .collect(),
    }
}

fn sim_config() -> SimConfig {
    SimConfig {
        duration_s: 0.02,
        warmup_s: 0.005,
        seed: 7,
        ..SimConfig::default()
    }
}

fn horizon_ns(c: &SimConfig) -> u64 {
    ((c.warmup_s + c.duration_s) * 1e9) as u64
}

struct ScaleRow {
    flows_total: usize,
    /// DDoS junk flows included in `flows_total`.
    junk_flows: usize,
    packets_total: u64,
    heavy_flows: usize,
    heavy_packets: u64,
    materialize_s: f64,
    run_s: f64,
    /// Simulated packets (heavy + analytic tail) per wall-clock second.
    sim_mpps: f64,
    delivered_gbps: f64,
    ledger_balanced: bool,
    validator_ok: bool,
}

impl serde::Serialize for ScaleRow {
    fn to_value(&self) -> serde::Value {
        json_row(vec![
            ("flows_total", self.flows_total.to_value()),
            ("junk_flows", self.junk_flows.to_value()),
            ("packets_total", self.packets_total.to_value()),
            ("heavy_flows", self.heavy_flows.to_value()),
            ("heavy_packets", self.heavy_packets.to_value()),
            ("materialize_s", self.materialize_s.to_value()),
            ("run_s", self.run_s.to_value()),
            ("sim_mpps", self.sim_mpps.to_value()),
            ("delivered_gbps", self.delivered_gbps.to_value()),
            ("ledger_balanced", self.ledger_balanced.to_value()),
            ("validator_ok", self.validator_ok.to_value()),
        ])
    }
}

struct EquivalenceCheck {
    flows_total: usize,
    injected_packet: u64,
    injected_hybrid: u64,
    delivered_packet: u64,
    delivered_hybrid: u64,
    bound: u64,
    ok: bool,
}

impl serde::Serialize for EquivalenceCheck {
    fn to_value(&self) -> serde::Value {
        json_row(vec![
            ("flows_total", self.flows_total.to_value()),
            ("injected_packet", self.injected_packet.to_value()),
            ("injected_hybrid", self.injected_hybrid.to_value()),
            ("delivered_packet", self.delivered_packet.to_value()),
            ("delivered_hybrid", self.delivered_hybrid.to_value()),
            ("bound", self.bound.to_value()),
            ("ok", self.ok.to_value()),
        ])
    }
}

struct Artifact {
    quick: bool,
    theta: u64,
    cells: Vec<ScaleRow>,
    equivalence: EquivalenceCheck,
}

impl serde::Serialize for Artifact {
    fn to_value(&self) -> serde::Value {
        json_row(vec![
            ("quick", self.quick.to_value()),
            ("theta", self.theta.to_value()),
            ("cells", self.cells.to_value()),
            ("equivalence", self.equivalence.to_value()),
        ])
    }
}

fn testbed(p: &PlacementProblem, e: &EvaluatedPlacement) -> Testbed {
    let deployment = lemur_metacompiler::compile(p, e).expect("meta-compile");
    Testbed::build(p, e, deployment).expect("testbed build")
}

fn run_cell(
    p: &PlacementProblem,
    e: &EvaluatedPlacement,
    specs: &[TrafficSpec],
    total_flows: usize,
    reps: usize,
    failures: &mut Vec<String>,
) -> ScaleRow {
    let config = sim_config();
    let spec = scenario_spec(
        total_flows,
        horizon_ns(&config),
        0xC0FFEE ^ total_flows as u64,
    );
    let t0 = Instant::now();
    let scenario = spec.materialize();
    let materialize_s = t0.elapsed().as_secs_f64();

    let validator_ok = match validate_scenario(
        &spec,
        &scenario,
        config.window_ns,
        &TrafficTolerance::default(),
    ) {
        Ok(_) => true,
        Err(e) => {
            failures.push(format!(
                "{total_flows} flows: traffic validator rejected: {e}"
            ));
            false
        }
    };

    let junk_flows = scenario.flows.iter().filter(|f| f.ddos).count();
    let packets_total: u64 = scenario.flows.iter().map(|f| f.packets).sum();
    let heavy_flows = scenario.heavy_indices(THETA).len();
    let heavy_packets: u64 = scenario
        .flows
        .iter()
        .filter(|f| f.size_packets >= THETA)
        .map(|f| f.packets)
        .sum();

    let mode = HybridMode::Hybrid(HybridConfig {
        heavy_min_packets: THETA,
        ..HybridConfig::default()
    });
    let mut run_times = Vec::with_capacity(reps);
    let mut first: Option<(SimReport, String)> = None;
    for rep in 0..reps {
        let mut tb = testbed(p, e);
        let t1 = Instant::now();
        let report = tb
            .run_scenario(&scenario, specs, config, &mode)
            .expect("valid hybrid config");
        run_times.push(t1.elapsed().as_secs_f64());
        let repr = format!("{report:?}");
        match &first {
            None => first = Some((report, repr)),
            Some((_, first_repr)) if *first_repr != repr => failures.push(format!(
                "{total_flows} flows: repetition {rep} changed the simulated report"
            )),
            Some(_) => {}
        }
    }
    run_times.sort_by(f64::total_cmp);
    let run_s = run_times[reps / 2];
    let (report, _) = first.expect("at least one repetition");

    if !report.ledger.balanced() {
        failures.push(format!(
            "{total_flows} flows: conservation ledger unbalanced: {:?}",
            report.ledger
        ));
    }
    ScaleRow {
        flows_total: scenario.flows.len(),
        junk_flows,
        packets_total,
        heavy_flows,
        heavy_packets,
        materialize_s,
        run_s,
        sim_mpps: packets_total as f64 / run_s / 1e6,
        delivered_gbps: report.aggregate_bps() / 1e9,
        ledger_balanced: report.ledger.balanced(),
        validator_ok,
    }
}

/// Replay a small cell at full packet level and check the hybrid run
/// against it within the in-flight + window-edge bound the equivalence
/// suite documents. The bound only holds in the unsaturated regime (a
/// saturated packet path drops what an unconstrained analytic tail does
/// not), so this cell runs the flow mix without surges.
fn equivalence_check(
    p: &PlacementProblem,
    e: &EvaluatedPlacement,
    specs: &[TrafficSpec],
    failures: &mut Vec<String>,
) -> EquivalenceCheck {
    let config = sim_config();
    let spec = ScenarioSpec {
        seed: 0xBEEF,
        horizon_ns: horizon_ns(&config),
        chains: (0..2)
            .map(|ci| ChainLoad {
                flows: 100,
                flow_rate_pps: 10_000.0 + 2_000.0 * ci as f64,
                size: FlowSizeDist {
                    alpha: 1.1,
                    min_packets: 1,
                    max_packets: 2_048,
                },
                diurnal: None,
                surges: vec![],
            })
            .collect(),
    };
    let scenario: Scenario = spec.materialize();
    let run = |mode: &HybridMode| {
        testbed(p, e)
            .run_scenario(&scenario, specs, config, mode)
            .expect("valid hybrid config")
    };
    let packet = run(&HybridMode::PacketLevel);
    let hybrid = run(&HybridMode::Hybrid(HybridConfig {
        heavy_min_packets: THETA,
        ..HybridConfig::default()
    }));
    let bound = packet.ledger.in_flight_at_end
        + hybrid.ledger.in_flight_at_end
        + (packet.ledger.injected / 50).max(3);
    let ok = packet.ledger.injected == hybrid.ledger.injected
        && packet.ledger.balanced()
        && hybrid.ledger.balanced()
        && packet.ledger.delivered.abs_diff(hybrid.ledger.delivered) <= bound;
    if !ok {
        failures.push(format!(
            "hybrid vs packet-level divergence: injected {} vs {}, delivered {} vs {} (bound {bound})",
            packet.ledger.injected,
            hybrid.ledger.injected,
            packet.ledger.delivered,
            hybrid.ledger.delivered,
        ));
    }
    EquivalenceCheck {
        flows_total: scenario.flows.len(),
        injected_packet: packet.ledger.injected,
        injected_hybrid: hybrid.ledger.injected,
        delivered_packet: packet.ledger.delivered,
        delivered_hybrid: hybrid.ledger.delivered,
        bound,
        ok,
    }
}

/// Regression gate: each cell must simulate packets at ≥ 50% of the rate
/// recorded for the same flow count in the baseline artifact.
fn check_baseline(path: &str, cells: &[ScaleRow], failures: &mut Vec<String>) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            failures.push(format!("baseline {path}: unreadable: {e}"));
            return;
        }
    };
    let value = match serde_json::parse_value_str(&text) {
        Ok(v) => v,
        Err(e) => {
            failures.push(format!("baseline {path}: parse error: {e:?}"));
            return;
        }
    };
    let Some(base_cells) = value.get("cells").and_then(|c| c.as_array()) else {
        failures.push(format!("baseline {path}: no `cells` array"));
        return;
    };
    for row in cells {
        let matched = base_cells.iter().find(|c| {
            c.get("flows_total").and_then(|v| v.as_f64()) == Some(row.flows_total as f64)
        });
        let Some(base_mpps) = matched
            .and_then(|c| c.get("sim_mpps"))
            .and_then(|v| v.as_f64())
        else {
            continue; // baseline has no cell at this scale (e.g. quick vs full)
        };
        if row.sim_mpps < 0.5 * base_mpps {
            failures.push(format!(
                "{} flows: {:.2} sim-Mpps < 50% of baseline {:.2}",
                row.flows_total, row.sim_mpps, base_mpps
            ));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let baseline = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let (p, specs) = build_problem(
        &[CanonicalChain::Chain3, CanonicalChain::Chain5],
        0.3,
        lemur_placer::topology::Topology::testbed(),
    );
    let a = lemur_placer::baselines::hw_preferred_assignment(&p);
    let e = p.evaluate(&a, CoreStrategy::WaterFill).expect("placement");

    let mut failures = Vec::new();
    println!("=== Hybrid engine scaling (Chain3 + Chain5, θ = {THETA} packets) ===\n");
    let table = Table::new()
        .right("flows", 9)
        .right("junk", 8)
        .right("pkts(M)", 9)
        .right("heavy", 7)
        .right("hv-pkts(M)", 10)
        .right("mat_s", 8)
        .right("run_s", 8)
        .right("sim-Mpps", 9)
        .right("dlv(G)", 8)
        .right("ledger", 7)
        .right("traffic", 8);
    table.print_header();
    let mut cells = Vec::new();
    for total in scales(quick) {
        let reps = if quick { QUICK_REPS } else { 1 };
        let row = run_cell(&p, &e, &specs, total, reps, &mut failures);
        table.print_row(&[
            cell(row.flows_total),
            cell(row.junk_flows),
            fnum(row.packets_total as f64 / 1e6, 2),
            cell(row.heavy_flows),
            fnum(row.heavy_packets as f64 / 1e6, 2),
            fnum(row.materialize_s, 3),
            fnum(row.run_s, 3),
            fnum(row.sim_mpps, 2),
            fnum(row.delivered_gbps, 2),
            cell(if row.ledger_balanced { "ok" } else { "FAIL" }),
            cell(if row.validator_ok { "ok" } else { "FAIL" }),
        ]);
        if !quick && total >= HEADLINE_FLOWS && row.run_s > HEADLINE_BUDGET_S {
            failures.push(format!(
                "{total} flows: {:.1}s exceeds the {HEADLINE_BUDGET_S}s wall-clock budget",
                row.run_s
            ));
        }
        cells.push(row);
    }

    println!("\n=== Hybrid vs packet-level replay (small cell) ===\n");
    let eq = equivalence_check(&p, &e, &specs, &mut failures);
    println!(
        "{} flows: injected {} vs {}, delivered {} vs {} (bound {}) → {}",
        eq.flows_total,
        eq.injected_packet,
        eq.injected_hybrid,
        eq.delivered_packet,
        eq.delivered_hybrid,
        eq.bound,
        if eq.ok { "ok" } else { "DIVERGED" },
    );

    if let Some(path) = &baseline {
        check_baseline(path, &cells, &mut failures);
    }

    let artifact = Artifact {
        quick,
        theta: THETA,
        cells,
        equivalence: eq,
    };
    write_json("BENCH_scale", &artifact);

    if failures.is_empty() {
        let top = artifact.cells.last().expect("at least one cell");
        println!(
            "\nPASS: {} flows ({:.2} M simulated packets) in {:.2}s wall — {:.2} sim-Mpps, ledgers exact, validator + equivalence green.",
            top.flows_total,
            top.packets_total as f64 / 1e6,
            top.run_s,
            top.sim_mpps,
        );
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
