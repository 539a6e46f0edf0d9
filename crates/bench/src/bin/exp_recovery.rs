//! Recovery experiment: inject faults mid-run, let the SLO guard detect
//! the violation, repair the placement on the degraded rack, and measure
//! what the repaired deployment delivers.
//!
//! Sweeps fault intensity on a 3-server rack (one downed uplink → a
//! downed uplink plus failed cores → two downed uplinks) and reports,
//! per scenario:
//!
//! * `detect_us` — virtual time from fault injection to the first SLO
//!   violation the windowed guard emits,
//! * `replan_us` — wall-clock time to compute the repair placement,
//! * `time_to_recover_us` — the sum: violation-driven repair latency,
//! * `shed` — chains dropped (ascending SLO priority) when the degraded
//!   rack cannot hold everyone,
//! * `goodput_retained` — post-repair measured aggregate over the
//!   pre-fault baseline,
//! * `survivors_meet_tmin` — whether every kept chain still clears its
//!   `t_min` on the repaired deployment.

use lemur_bench::{
    build_problem, cached_compiler_oracle, measure, measure_with_faults, write_json,
};
use lemur_core::chains::CanonicalChain::{Chain1, Chain2, Chain3};
use lemur_dataplane::{FaultKind, FaultPlan};
use lemur_placer::repair::{repair, RepairMode};
use lemur_placer::topology::{ResourceMask, Topology};

const DURATION_S: f64 = 0.012;
const FAULT_NS: u64 = 6_000_000; // 6 ms: past warm-up, mid-measurement

struct Scenario {
    name: &'static str,
    servers_down: usize,
    cores_down: usize,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "link-down",
        servers_down: 1,
        cores_down: 0,
    },
    Scenario {
        name: "link+cores",
        servers_down: 1,
        cores_down: 3,
    },
    Scenario {
        name: "two-links",
        servers_down: 2,
        cores_down: 0,
    },
];

struct RecoveryRow {
    scenario: &'static str,
    servers_down: usize,
    cores_down: usize,
    detect_us: f64,
    replan_us: f64,
    time_to_recover_us: f64,
    mode: &'static str,
    shed: Vec<usize>,
    baseline_gbps: f64,
    recovered_gbps: f64,
    goodput_retained: f64,
    survivors_meet_tmin: bool,
}

impl serde::Serialize for RecoveryRow {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("scenario".to_string(), self.scenario.to_value()),
            ("servers_down".to_string(), self.servers_down.to_value()),
            ("cores_down".to_string(), self.cores_down.to_value()),
            ("detect_us".to_string(), self.detect_us.to_value()),
            ("replan_us".to_string(), self.replan_us.to_value()),
            (
                "time_to_recover_us".to_string(),
                self.time_to_recover_us.to_value(),
            ),
            ("mode".to_string(), self.mode.to_value()),
            ("shed".to_string(), self.shed.to_value()),
            ("baseline_gbps".to_string(), self.baseline_gbps.to_value()),
            ("recovered_gbps".to_string(), self.recovered_gbps.to_value()),
            (
                "goodput_retained".to_string(),
                self.goodput_retained.to_value(),
            ),
            (
                "survivors_meet_tmin".to_string(),
                self.survivors_meet_tmin.to_value(),
            ),
        ])
    }
}

/// Servers ranked by how many subgroups they host (busiest first), so the
/// injected failures hit where they hurt.
fn busiest_servers(
    placement: &lemur_placer::placement::EvaluatedPlacement,
    n_servers: usize,
) -> Vec<usize> {
    let mut load = vec![0usize; n_servers];
    for sg in &placement.subgroups {
        load[sg.server] += 1;
    }
    let mut order: Vec<usize> = (0..n_servers).collect();
    order.sort_by_key(|&s| std::cmp::Reverse(load[s]));
    order
}

fn main() {
    // One memoized oracle across the healthy placement and every repair:
    // repairs re-probe switch programs the initial search already packed.
    let oracle = cached_compiler_oracle();
    let (mut problem, specs) =
        build_problem(&[Chain1, Chain2, Chain3], 0.5, Topology::with_servers(3));
    // Descending shedding priority by chain index: chain 0 survives longest.
    let n_chains = problem.chains.len();
    for i in 0..n_chains {
        let slo = problem.chains[i]
            .slo
            .unwrap()
            .with_priority((n_chains - i) as u8);
        problem.chains[i].slo = Some(slo);
    }

    let placement =
        lemur_placer::heuristic::place(&problem, &oracle).expect("healthy rack placement");
    let baseline = measure(&problem, &placement, &specs, DURATION_S)
        .expect("baseline run")
        .aggregate_bps();
    println!("baseline aggregate: {:.2} Gbps", baseline / 1e9);

    let ranked = busiest_servers(&placement, problem.topology.servers.len());

    let mut rows: Vec<RecoveryRow> = Vec::new();
    for sc in &SCENARIOS {
        // Build the plan: down the k busiest uplinks; fail the first
        // worker cores (core 0 is the demux) on the busiest survivor.
        let mut plan = FaultPlan::empty();
        for &s in ranked.iter().take(sc.servers_down) {
            plan = plan.with(FAULT_NS, FaultKind::LinkDown { server: s });
        }
        if sc.cores_down > 0 {
            let victim = ranked[sc.servers_down];
            for core in 1..=sc.cores_down {
                plan = plan.with(
                    FAULT_NS,
                    FaultKind::CoreFail {
                        server: victim,
                        core,
                    },
                );
            }
        }

        // Detection: run the faulted deployment with the SLO guard armed.
        let faulted = measure_with_faults(&problem, &placement, &specs, DURATION_S, &plan)
            .expect("faulted run");
        let detect_ns = faulted
            .violations()
            .map(|e| e.at_ns())
            .find(|&t| t >= FAULT_NS)
            .map(|t| t - FAULT_NS);

        // Repair: re-place on the degraded rack.
        let mut mask = ResourceMask::none();
        for s in plan.links_down_at_end() {
            mask = mask.with_server_down(s);
        }
        for (server, _core) in plan.cores_failed() {
            mask = mask.with_cores_down(server, 1);
        }
        let t0 = std::time::Instant::now();
        let repaired = repair(&problem, &placement, mask, &oracle);
        let replan_us = t0.elapsed().as_secs_f64() * 1e6;

        let row = match repaired {
            Ok(r) => {
                let kept_specs: Vec<_> = r.kept.iter().map(|&c| specs[c].clone()).collect();
                let report = measure(&r.problem, &r.placement, &kept_specs, DURATION_S)
                    .expect("repaired run");
                let recovered = report.aggregate_bps();
                let t_mins: Vec<f64> = r
                    .problem
                    .chains
                    .iter()
                    .map(|c| c.slo.unwrap().t_min_bps)
                    .collect();
                let detect_us = detect_ns.map(|d| d as f64 / 1e3).unwrap_or(f64::NAN);
                RecoveryRow {
                    scenario: sc.name,
                    servers_down: sc.servers_down,
                    cores_down: sc.cores_down,
                    detect_us,
                    replan_us,
                    time_to_recover_us: detect_us + replan_us,
                    mode: match r.mode {
                        RepairMode::Incremental => "incremental",
                        RepairMode::FullReplace => "full-replace",
                    },
                    shed: r.shed.clone(),
                    baseline_gbps: baseline / 1e9,
                    recovered_gbps: recovered / 1e9,
                    goodput_retained: recovered / baseline,
                    survivors_meet_tmin: report.slos_met(&t_mins, 0.05),
                }
            }
            Err(e) => {
                println!("{}: repair failed: {e}", sc.name);
                RecoveryRow {
                    scenario: sc.name,
                    servers_down: sc.servers_down,
                    cores_down: sc.cores_down,
                    detect_us: detect_ns.map(|d| d as f64 / 1e3).unwrap_or(f64::NAN),
                    replan_us,
                    time_to_recover_us: f64::NAN,
                    mode: "failed",
                    shed: Vec::new(),
                    baseline_gbps: baseline / 1e9,
                    recovered_gbps: 0.0,
                    goodput_retained: 0.0,
                    survivors_meet_tmin: false,
                }
            }
        };
        rows.push(row);
    }

    println!(
        "\n{:>11} {:>7} {:>6} {:>10} {:>10} {:>12} {:>13} {:>6} {:>9} {:>9} {:>7}",
        "scenario",
        "links",
        "cores",
        "detect_us",
        "replan_us",
        "recover_us",
        "mode",
        "shed",
        "base(G)",
        "rec(G)",
        "kept%"
    );
    for r in &rows {
        println!(
            "{:>11} {:>7} {:>6} {:>10.1} {:>10.1} {:>12.1} {:>13} {:>6} {:>9.2} {:>9.2} {:>6.1}% {}",
            r.scenario,
            r.servers_down,
            r.cores_down,
            r.detect_us,
            r.replan_us,
            r.time_to_recover_us,
            r.mode,
            format!("{:?}", r.shed),
            r.baseline_gbps,
            r.recovered_gbps,
            r.goodput_retained * 100.0,
            if r.survivors_meet_tmin { "t_min ok" } else { "t_min MISSED" },
        );
    }
    write_json("exp_recovery", &rows);
}
