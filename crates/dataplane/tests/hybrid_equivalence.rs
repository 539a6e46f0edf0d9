//! Equivalence suite for the hybrid engine: flow-level fast path vs the
//! exact packet-level reference.
//!
//! Two properties, in increasing looseness:
//!
//! 1. **θ = 0 is bit-exact.** With the heavy-hitter threshold at zero,
//!    every flow is materialized and the analytic tail is empty — the
//!    hybrid run must produce a byte-identical [`SimReport`] to the
//!    packet-level run of the same scenario.
//! 2. **Small scenarios agree within the documented bound** (proptest).
//!    For any unsaturated scenario of ≤ 64 flows over ≤ 3 chains,
//!    hybrid and packet-level reports agree exactly on injected totals,
//!    and on delivered/dropped totals and per-node NF observables within
//!    `in_flight(p) + in_flight(h) + max(3, 2% of injected)` — the slack
//!    covers packets still in flight at the horizon and window-edge
//!    timing (the tail delivers a window's mass at its close; the packet
//!    path delivers it a queueing delay later).

use lemur_core::chains::{canonical_chain, CanonicalChain};
use lemur_core::graph::ChainSpec;
use lemur_core::Slo;
use lemur_dataplane::{
    ChainLoad, FlowSizeDist, HybridConfig, HybridMode, Scenario, ScenarioSpec, SimConfig,
    SimReport, Surge, SurgeKind, Testbed, TrafficSpec,
};
use lemur_nf::NfKind;
use lemur_placer::corealloc::CoreStrategy;
use lemur_placer::placement::{EvaluatedPlacement, PlacementProblem};
use lemur_placer::profiles::NfProfiles;
use lemur_placer::topology::Topology;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn setup(which: &[CanonicalChain]) -> (PlacementProblem, EvaluatedPlacement, Vec<TrafficSpec>) {
    let mut specs = Vec::new();
    let chains: Vec<ChainSpec> = which
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let spec = TrafficSpec::for_chain(i + 1, 1e9).expect("chain index in range");
            let agg = spec.aggregate();
            specs.push(spec);
            ChainSpec {
                name: format!("chain{}", w.index()),
                graph: canonical_chain(*w),
                slo: None,
                aggregate: Some(agg),
            }
        })
        .collect();
    let mut p = PlacementProblem::new(chains, Topology::testbed(), NfProfiles::table4());
    for i in 0..p.chains.len() {
        let base = p.base_rate_bps(i);
        p.chains[i].slo = Some(Slo::elastic_pipe(base, 100e9));
    }
    let a = lemur_placer::baselines::hw_preferred_assignment(&p);
    let e = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
    (p, e, specs)
}

fn quick() -> SimConfig {
    SimConfig {
        duration_s: 0.004,
        warmup_s: 0.001,
        ..SimConfig::default()
    }
}

fn horizon_ns(c: &SimConfig) -> u64 {
    ((c.warmup_s + c.duration_s) * 1e9) as u64
}

/// A mild flow-level load for `n_chains` chains: small flows, low rates,
/// far from saturating any placement.
fn small_scenario(n_chains: usize, seed: u64, flows: usize, max_size: u64) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        horizon_ns: horizon_ns(&quick()),
        chains: (0..n_chains)
            .map(|ci| ChainLoad {
                flows,
                flow_rate_pps: 400_000.0 + 50_000.0 * ci as f64,
                size: FlowSizeDist {
                    alpha: 1.3,
                    min_packets: 1,
                    max_packets: max_size,
                },
                diurnal: None,
                surges: vec![],
            })
            .collect(),
    }
}

/// `(chain, node, kind)` → summed `(packets, flows)` NF observables.
type NodeObservables = BTreeMap<(usize, usize, NfKind), (u64, u64)>;

/// Per-`(chain, node, kind)` packet/flow observable sums: replica counts
/// are summed because the hybrid tail splits aggregates across replicas
/// deterministically while the packet path hash-spreads flows.
fn obs_by_node(tb: &Testbed) -> NodeObservables {
    let mut m = BTreeMap::new();
    for (chain, node, _replica, kind, o) in tb.nf_observables() {
        let e = m.entry((chain, node, kind)).or_insert((0u64, 0u64));
        e.0 += o.packets;
        e.1 += o.flows;
    }
    m
}

fn testbed(p: &PlacementProblem, e: &EvaluatedPlacement) -> Testbed {
    Testbed::build(p, e, lemur_metacompiler::compile(p, e).unwrap()).unwrap()
}

fn run_mode(
    p: &PlacementProblem,
    e: &EvaluatedPlacement,
    specs: &[TrafficSpec],
    scenario: &Scenario,
    mode: &HybridMode,
) -> (SimReport, NodeObservables) {
    let mut tb = testbed(p, e);
    let slos = vec![None; specs.len()];
    let report = tb
        .run_scenario_supervised(
            scenario,
            specs,
            quick(),
            &lemur_dataplane::FaultPlan::empty(),
            &slos,
            mode,
            &mut lemur_dataplane::NoopHook,
        )
        .expect("valid hybrid config");
    let obs = obs_by_node(&tb);
    (report, obs)
}

#[test]
fn theta_zero_hybrid_is_bit_identical_to_packet_level() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain3, CanonicalChain::Chain5]);
    let scenario = small_scenario(2, 97, 40, 24).materialize();
    let (packet, obs_p) = run_mode(&p, &e, &specs, &scenario, &HybridMode::PacketLevel);
    let (hybrid, obs_h) = run_mode(
        &p,
        &e,
        &specs,
        &scenario,
        &HybridMode::Hybrid(HybridConfig {
            heavy_min_packets: 0,
            capacity_bps: vec![],
            queue_buffer_packets: 4096,
        }),
    );
    assert!(
        packet.ledger.injected > 0,
        "vacuous comparison: nothing injected"
    );
    // Every flow is heavy at θ=0; the tail is empty and must leave no
    // trace — the full report (stats, windows, ledger, timeline) and the
    // NF state observables are bit-identical.
    assert_eq!(packet, hybrid);
    assert_eq!(obs_p, obs_h);
    // The same must hold with the fluid queue armed: capacity budgets
    // and buffers only ever touch tail mass, and at θ=0 there is none.
    let (queued, obs_q) = run_mode(
        &p,
        &e,
        &specs,
        &scenario,
        &HybridMode::Hybrid(HybridConfig {
            heavy_min_packets: 0,
            capacity_bps: vec![10e9, 10e9],
            queue_buffer_packets: 64,
        }),
    );
    assert_eq!(packet, queued, "θ=0 with queueing enabled diverged");
    assert_eq!(obs_p, obs_q);
}

#[test]
fn hybrid_ledger_balances_with_surges_and_capacity() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain1]);
    let mut spec = small_scenario(1, 3, 60, 200);
    spec.chains[0].surges = vec![
        Surge {
            kind: SurgeKind::FlashCrowd,
            start_ns: 2_000_000,
            duration_ns: 1_000_000,
            factor: 3.0,
        },
        Surge {
            kind: SurgeKind::Ddos,
            start_ns: 3_000_000,
            duration_ns: 1_000_000,
            factor: 4.0,
        },
    ];
    let scenario = spec.materialize();
    let (hybrid, _) = run_mode(
        &p,
        &e,
        &specs,
        &scenario,
        &HybridMode::Hybrid(HybridConfig {
            heavy_min_packets: 8,
            // Tight capacity: the surge windows must shed tail packets
            // and the ledger must still balance to the exact packet.
            // A small buffer keeps the queue from absorbing the whole
            // surge, so overflow drops still engage.
            capacity_bps: vec![20e6],
            queue_buffer_packets: 16,
        }),
    );
    assert!(
        hybrid.ledger.balanced(),
        "conservation violated: {:?}",
        hybrid.ledger
    );
    assert!(
        hybrid.ledger.drops_queue > 0,
        "capacity constraint never engaged — test is vacuous"
    );
}

#[test]
fn fluid_queue_delays_and_surfaces_latency_instead_of_dropping() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain1]);
    let mut spec = small_scenario(1, 3, 60, 200);
    spec.chains[0].surges = vec![Surge {
        kind: SurgeKind::FlashCrowd,
        start_ns: 2_000_000,
        duration_ns: 1_000_000,
        factor: 3.0,
    }];
    let scenario = spec.materialize();
    let run = |buffer: u64| {
        run_mode(
            &p,
            &e,
            &specs,
            &scenario,
            &HybridMode::Hybrid(HybridConfig {
                heavy_min_packets: 8,
                capacity_bps: vec![20e6],
                queue_buffer_packets: buffer,
            }),
        )
        .0
    };
    // Drop-only baseline (buffer = 0) vs a deep queue.
    let droponly = run(0);
    let queued = run(1_000_000);
    assert!(droponly.ledger.drops_queue > 0, "vacuous: no overload");
    assert!(queued.ledger.balanced(), "queued ledger unbalanced");
    assert!(
        queued.ledger.drops_queue < droponly.ledger.drops_queue,
        "a deep buffer must absorb mass the drop-only budget discards"
    );
    // The backlog is visible at window closes and is charged as
    // in-flight if the run ends before it drains.
    let peak_backlog = queued
        .windows
        .iter()
        .map(|w| w.backlog_packets)
        .max()
        .unwrap_or(0);
    assert!(peak_backlog > 0, "queue never formed");
    // Queueing produces a latency signal the drop-only budget hides:
    // some window's mean latency must exceed the drop-only run's.
    let max_lat = |r: &SimReport| {
        r.windows
            .iter()
            .map(|w| w.mean_latency_ns)
            .fold(0.0f64, f64::max)
    };
    assert!(
        max_lat(&queued) > max_lat(&droponly),
        "fluid queue added no waiting time to any window"
    );
    // Arrival accounting is identical either way — the queue only moves
    // mass between delivered/dropped/in-flight buckets.
    assert_eq!(droponly.ledger.injected, queued.ledger.injected);
}

#[test]
fn invalid_capacity_is_a_typed_error() {
    let (p, e, specs) = setup(&[CanonicalChain::Chain1]);
    let scenario = small_scenario(1, 5, 10, 16).materialize();
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let mut tb = testbed(&p, &e);
        let err = tb
            .run_scenario(
                &scenario,
                &specs,
                quick(),
                &HybridMode::Hybrid(HybridConfig {
                    heavy_min_packets: 4,
                    capacity_bps: vec![bad],
                    queue_buffer_packets: 0,
                }),
            )
            .expect_err("bad capacity must be refused");
        let lemur_dataplane::ScenarioError::InvalidCapacity { chain, value } = err else {
            panic!("expected InvalidCapacity, got {err}");
        };
        assert_eq!(chain, 0);
        assert!(value == bad || (value.is_nan() && bad.is_nan()));
    }
}

proptest! {
    #![cases = 6]

    /// Any small scenario: hybrid matches packet-level on injected totals
    /// exactly, and on delivered totals and per-node NF observables
    /// within the documented in-flight + window-edge bound.
    #[test]
    fn small_scenarios_agree_within_bound(
        seed in 0u64..1_000,
        n_chains in 1usize..=3,
        flows in 1usize..=21, // ≤ 63 flows across ≤ 3 chains
        max_size in 4u64..=32,
        theta in 2u64..=16,
    ) {
        let all = [CanonicalChain::Chain1, CanonicalChain::Chain3, CanonicalChain::Chain5];
        let (p, e, specs) = setup(&all[..n_chains]);
        let scenario = small_scenario(n_chains, seed, flows, max_size).materialize();
        let (packet, obs_p) = run_mode(&p, &e, &specs, &scenario, &HybridMode::PacketLevel);
        let (hybrid, obs_h) = run_mode(
            &p,
            &e,
            &specs,
            &scenario,
            &HybridMode::Hybrid(HybridConfig { heavy_min_packets: theta, ..HybridConfig::default() }),
        );
        // Arrival accounting is exact in both modes.
        prop_assert_eq!(packet.ledger.injected, hybrid.ledger.injected);
        prop_assert!(packet.ledger.balanced(), "packet ledger unbalanced");
        prop_assert!(hybrid.ledger.balanced(), "hybrid ledger unbalanced");
        let bound = packet.ledger.in_flight_at_end
            + hybrid.ledger.in_flight_at_end
            + (packet.ledger.injected / 50).max(3);
        let d_p = packet.ledger.delivered;
        let d_h = hybrid.ledger.delivered;
        prop_assert!(
            d_p.abs_diff(d_h) <= bound,
            "delivered diverged: packet={d_p} hybrid={d_h} bound={bound}"
        );
        // NF state effects: per-(chain, node, kind) packet counts agree
        // within the same bound; flow counts within the flow total.
        prop_assert_eq!(
            obs_p.keys().collect::<Vec<_>>(),
            obs_h.keys().collect::<Vec<_>>(),
            "NF index diverged"
        );
        for (k, (pk_packets, pk_flows)) in &obs_p {
            let (hy_packets, hy_flows) = obs_h[k];
            prop_assert!(
                pk_packets.abs_diff(hy_packets) <= bound,
                "{k:?}: NF packets diverged: packet={pk_packets} hybrid={hy_packets} bound={bound}"
            );
            let flow_bound = (scenario.flows.len() as u64 / 20).max(2);
            prop_assert!(
                pk_flows.abs_diff(hy_flows) <= flow_bound,
                "{k:?}: NF flows diverged: packet={pk_flows} hybrid={hy_flows} bound={flow_bound}"
            );
        }
    }
}
