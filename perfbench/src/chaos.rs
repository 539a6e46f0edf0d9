//! `chaos_steady`: steady full-payload traffic for Chains 1, 2, 3 and 5 on
//! a four-server rack with a SmartNIC on server 0, under the chaos soak's
//! fault storm with the online supervisor in the loop.

use crate::adapter;
use crate::harness::{fnv1a, repeat, secs, Outcome, Rep};
use crate::placer::SearchLatency;
use crate::replay::{replay_steady, Replay};
use crate::trace::{Layers, TimedHook, TimedOracle};
use lemur_bench::{build_problem, compiler_oracle};
use lemur_control::chaos::{chaos_plan, ChaosConfig};
use lemur_control::{Supervisor, SupervisorConfig};
use lemur_core::chains::CanonicalChain;
use lemur_core::Slo;
use lemur_dataplane::{ControlHook, FaultPlan, SimConfig, TrafficSpec};
use lemur_placer::oracle::StageOracle;
use lemur_placer::placement::{EvaluatedPlacement, PlacementProblem};
use lemur_placer::topology::{SmartNicSpec, Topology};
use std::time::Instant;

const N_SERVERS: usize = 4;
const WINDOW_NS: u64 = 1_000_000;
const WARMUP_S: f64 = 0.003;
const DURATION_S: f64 = 0.036;
const N_FAULTS: usize = 22;
/// Seed of the fault storm: the chaos soak's default storm, held fixed so
/// that `--seed` varies the traffic and service-time draws, not which
/// faults strike.
const STORM_SEED: u64 = 42;

fn problem() -> (PlacementProblem, Vec<TrafficSpec>) {
    let mut topology = Topology::with_servers(N_SERVERS);
    topology.smartnics.push(SmartNicSpec::agilio_cx_40g(0));
    let (mut problem, specs) = build_problem(
        &[
            CanonicalChain::Chain1,
            CanonicalChain::Chain2,
            CanonicalChain::Chain3,
            CanonicalChain::Chain5,
        ],
        0.3,
        topology,
    );
    // Descending shedding priority by index: chain 0 survives longest.
    let n = problem.chains.len();
    for (i, chain) in problem.chains.iter_mut().enumerate() {
        chain.slo = chain.slo.map(|s| s.with_priority((n - i) as u8));
    }
    (problem, specs)
}

/// The chaos soak's storm for this placement: busiest servers first, so
/// link faults displace chains, and faults stop at 60% of the horizon.
fn storm(problem: &PlacementProblem, placement: &EvaluatedPlacement) -> Result<FaultPlan, String> {
    let mut load = [0usize; N_SERVERS];
    for sg in &placement.subgroups {
        load[sg.server] += 1;
    }
    let mut hot_servers: Vec<usize> = (0..N_SERVERS).filter(|&s| load[s] > 0).collect();
    hot_servers.sort_by_key(|&s| std::cmp::Reverse(load[s]));
    let horizon_ns = ((WARMUP_S + DURATION_S) * 1e9) as u64;
    let plan = chaos_plan(&ChaosConfig {
        seed: STORM_SEED,
        n_faults: N_FAULTS,
        start_ns: (WARMUP_S * 1e9) as u64 + 2 * WINDOW_NS,
        end_ns: horizon_ns * 3 / 5,
        n_servers: N_SERVERS,
        cores_per_server: problem.topology.servers[0].num_cores(),
        n_subgroups: placement.subgroups.len(),
        n_chains: problem.chains.len(),
        max_core_fails_per_server: 2,
        n_migration_faults: 2,
        hot_servers,
    });
    plan.validate(
        &problem.topology,
        placement.subgroups.len(),
        problem.chains.len(),
    )
    .map_err(|e| format!("chaos plan invalid: {e:?}"))?;
    Ok(plan)
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        duration_s: DURATION_S,
        warmup_s: WARMUP_S,
        seed,
        window_ns: WINDOW_NS,
        ..SimConfig::default()
    }
}

/// What the post-run replay needs.
struct Soak {
    problem: PlacementProblem,
    placement: EvaluatedPlacement,
    specs: Vec<TrafficSpec>,
    plan: FaultPlan,
    injected: u64,
}

pub fn run(seed: u64, seconds: u64, mut layers: Option<&mut Layers>) -> Outcome {
    let traced = layers.is_some();
    let mut latency = SearchLatency::default();
    let plain = compiler_oracle();
    let mut last: Option<Soak> = None;
    let mut out = repeat(seconds, |rep| {
        last = None;
        // The first repetition of a traced run runs untraced, so the
        // digest check also proves tracing leaves every output unchanged.
        let tr = layers.as_deref_mut().filter(|_| rep > 0);
        let timed = TimedOracle::new(&plain);
        let oracle: &dyn StageOracle = if tr.is_some() { &timed } else { &plain };

        let t0 = Instant::now();
        let (problem, mut specs) = problem();
        let t = Instant::now();
        let placement =
            adapter::heuristic(&problem, oracle).map_err(|e| format!("initial placement: {e}"))?;
        let searched = (t, Instant::now());
        let t = Instant::now();
        let deployment = adapter::compile(&problem, &placement)?;
        let compile_s = secs(t);
        for (i, s) in specs.iter_mut().enumerate() {
            s.offered_bps = (placement.chain_rates_bps[i] * 1.1).max(1e8);
        }
        let plan = storm(&problem, &placement)?;
        let mut supervisor = Supervisor::new(
            &problem,
            &placement,
            &deployment,
            oracle,
            SupervisorConfig {
                seed: STORM_SEED,
                ..Default::default()
            },
        );
        let t = Instant::now();
        let mut testbed = adapter::build(&problem, &placement, deployment)?;
        let build_s = secs(t);
        let slos: Vec<Option<Slo>> = problem.chains.iter().map(|c| c.slo).collect();
        let config = sim_config(seed);
        let setup_s = secs(t0);

        let mut measure = |hook: &mut dyn ControlHook| {
            let t1 = Instant::now();
            let report = adapter::run_supervised(&mut testbed, &specs, config, &plan, &slos, hook);
            (report, secs(t1))
        };
        let (report, wall_s) = match tr {
            Some(l) => {
                let mut hook = TimedHook::new(&mut supervisor);
                let (report, wall_s) = measure(&mut hook);
                l.add_hook(&hook);
                l.commits += report.commits() as u64;
                l.migration_aborts += report.migration_aborts().count() as u64;
                l.add_oracle(&timed);
                l.add_search(searched, placement.telemetry, &timed);
                l.compile_s += compile_s;
                l.build_s += build_s;
                l.traced_wall_s += wall_s;
                l.reps += 1;
                (report, wall_s)
            }
            None => measure(&mut supervisor),
        };

        if !report.ledger.balanced() {
            return Err(format!(
                "conservation ledger unbalanced: {:?}",
                report.ledger
            ));
        }
        if !supervisor.wal().is_consistent() {
            return Err("supervisor decision log ended with a dangling intent".to_string());
        }
        let state = format!("{:?}", supervisor.state());
        if state != "Converged" && state != "GracefulDegraded" {
            return Err(format!("supervisor ended unsettled: {state}"));
        }
        let digest =
            fnv1a(format!("{report:?}{:?}{state}{placement:?}", supervisor.events()).as_bytes());
        let r = Rep {
            setup_s,
            wall_s,
            items: report.ledger.injected,
            delivered_gbps: report.aggregate_bps() / 1e9,
            marginal_gbps: placement.marginal_bps / 1e9,
            digest,
        };
        println!(
            "chaos_steady rep {rep}: final={state} commits={} migration_aborts={} injected={}",
            report.commits(),
            report.migration_aborts().count(),
            report.ledger.injected
        );
        if !traced {
            latency.sample(&problem)?;
        }
        last = Some(Soak {
            problem,
            placement,
            specs,
            plan,
            injected: report.ledger.injected,
        });
        Ok(r)
    });

    out.place_ms = latency.samples_ms;
    if let Some(s) = last {
        // The replay feeds the same packets once per run; a traced run
        // walks them through the initial deployment's platforms.
        let horizon_ns = ((WARMUP_S + DURATION_S) * 1e9) as u64;
        let replayed = match layers {
            None => Ok(replay_steady(&s.specs, seed, horizon_ns, &s.plan, None)),
            Some(l) => adapter::compile(&s.problem, &s.placement)
                .and_then(|d| Replay::new(&s.problem, d))
                .map(|mut r| replay_steady(&s.specs, seed, horizon_ns, &s.plan, Some((&mut r, l)))),
        };
        match replayed {
            Ok(n) if n == s.injected => {}
            Ok(n) => out.fail(format!(
                "replay fed {n} packets but the run injected {}",
                s.injected
            )),
            Err(e) => out.fail(e),
        }
    }
    out
}
