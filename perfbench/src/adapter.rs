//! The only place the benchmark calls the system's production entry
//! points: the Placer's searches, meta-compilation, testbed construction
//! and the run calls. When the run API or the server-runtime selection
//! changes, this file is the one to edit.

use lemur_dataplane::{
    ControlHook, FaultPlan, HybridConfig, HybridMode, Scenario, ScenarioError, SimConfig,
    SimReport, Testbed, TrafficSpec,
};
use lemur_metacompiler::Deployment;
use lemur_placer::oracle::StageOracle;
use lemur_placer::placement::{EvaluatedPlacement, PlacementError, PlacementProblem};

/// Number of placer search workers the benchmark runs with.
pub const WORKERS: usize = 1;

/// Pin `LEMUR_WORKERS` to [`WORKERS`] for the process before any search
/// reads it. Results are bit-identical at any worker count; one worker
/// keeps search latency from depending on whether a second host CPU
/// happens to be free.
pub fn pin_workers() {
    // Set once, single-threaded, before any worker pool exists.
    std::env::set_var("LEMUR_WORKERS", WORKERS.to_string());
}

/// The Placer's heuristic search.
pub fn heuristic(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
) -> Result<EvaluatedPlacement, PlacementError> {
    lemur_placer::heuristic::place(problem, oracle)
}

/// The brute-force search with its default beam.
pub fn brute(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
) -> Result<EvaluatedPlacement, PlacementError> {
    lemur_placer::brute::optimal(problem, oracle, lemur_placer::brute::BruteConfig::default())
}

/// Meta-compile a placement with the default options.
pub fn compile(
    problem: &PlacementProblem,
    placement: &EvaluatedPlacement,
) -> Result<Deployment, String> {
    lemur_metacompiler::compile(problem, placement).map_err(|e| format!("compile: {e}"))
}

/// Build the simulated testbed from a deployment.
pub fn build(
    problem: &PlacementProblem,
    placement: &EvaluatedPlacement,
    deployment: Deployment,
) -> Result<Testbed, String> {
    Testbed::build(problem, placement, deployment).map_err(|e| format!("testbed build: {e}"))
}

/// Run a flow-level scenario in hybrid mode: flows of at least `theta`
/// packets are materialized, the rest form the analytic tail.
pub fn run_hybrid(
    testbed: &mut Testbed,
    scenario: &Scenario,
    specs: &[TrafficSpec],
    config: SimConfig,
    theta: u64,
) -> Result<SimReport, ScenarioError> {
    let mode = HybridMode::Hybrid(HybridConfig {
        heavy_min_packets: theta,
        ..HybridConfig::default()
    });
    testbed.run_scenario(scenario, specs, config, &mode)
}

/// Run steady sources under a fault plan with a control hook.
pub fn run_supervised(
    testbed: &mut Testbed,
    specs: &[TrafficSpec],
    config: SimConfig,
    plan: &FaultPlan,
    slos: &[Option<lemur_core::Slo>],
    hook: &mut dyn ControlHook,
) -> SimReport {
    testbed.run_supervised(specs, config, plan, slos, hook)
}
