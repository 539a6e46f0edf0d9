//! The fleet soak's hard-invariant battery: exact conservation, fencing
//! exclusivity, post-storm settlement, WAL consistency, run-to-run
//! reproducibility, and cross-PoP stateful failover — all under the
//! seeded storm weather of `lemur_control::chaos::fleet_storm`.

use lemur_fleet::sim::{FleetSim, FleetSimConfig, FleetSpec};
use lemur_placer::oracle::AlwaysFits;

fn soak(seed: u64, n_pops: usize, validate: bool) -> lemur_fleet::FleetReport {
    let spec = FleetSpec::canonical(n_pops);
    let mut cfg = FleetSimConfig::soak(seed, n_pops);
    cfg.validate = validate;
    FleetSim::new(spec, cfg).run(&AlwaysFits)
}

#[test]
fn soak_invariants_hold_across_seeds() {
    for seed in [1, 2, 3, 4] {
        let report = soak(seed, 2, false);
        assert!(
            report.invariants_hold(),
            "seed {seed} violated an invariant: {report:?}"
        );
        assert!(report.drains >= 1, "the guaranteed blackout must drain");
    }
}

#[test]
fn validation_runs_the_real_dataplane_per_surviving_pop() {
    let report = soak(3, 2, true);
    assert!(report.invariants_hold(), "{report:?}");
    assert!(
        !report.validations.is_empty(),
        "survivors must be validated: {report:?}"
    );
    for v in &report.validations {
        assert!(v.ran && v.settled && v.balanced, "{v:?}");
        assert!(!v.chains.is_empty());
    }
}

#[test]
fn blackout_recovers_via_cross_site_state_migration() {
    // Seed 3's storm blacks out PoP 0 for a full drain window while it
    // holds a stateful (NAT) chain; the failover must ship the last
    // replicated snapshot to the survivor, not start fresh.
    let report = soak(3, 2, false);
    assert_eq!(report.blackout_victim, Some(0), "{report:?}");
    assert!(report.drains >= 1, "{report:?}");
    assert!(report.state_failovers >= 1, "{report:?}");
    assert!(report.state_restores >= 1, "{report:?}");
    assert!(report.invariants_hold(), "{report:?}");
}

#[test]
fn three_pop_fleets_survive_the_storm_too() {
    let report = soak(7, 3, false);
    assert!(report.invariants_hold(), "{report:?}");
}

#[test]
fn reports_are_bit_identical_run_to_run() {
    let one = soak(11, 2, true);
    let two = soak(11, 2, true);
    assert_eq!(one, two, "the same seed must reproduce the report");
}
