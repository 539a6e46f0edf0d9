//! # lemur-bench
//!
//! The experiment harness: shared machinery used by the `exp_*` binaries
//! to regenerate every table and figure of the paper's evaluation (see
//! `DESIGN.md`'s per-experiment index) and by the Criterion microbenches.
//!
//! The flow for every throughput experiment mirrors §5.1 "Metrics":
//! compute the placement per scheme, generate code with the meta-compiler,
//! and — *only when the placement is feasible* — execute the chains on the
//! simulated testbed and measure aggregate throughput.

pub mod table;

use lemur_core::chains::{canonical_chain, CanonicalChain};
use lemur_core::graph::ChainSpec;
use lemur_core::Slo;
use lemur_dataplane::{SimConfig, Testbed, TrafficSpec};
use lemur_metacompiler::{CachedCompilerOracle, CompilerOracle};
use lemur_placer::oracle::StageOracle;
use lemur_placer::placement::{EvaluatedPlacement, PlacementError, PlacementProblem};
use lemur_placer::profiles::NfProfiles;
use lemur_placer::topology::Topology;
use std::fmt;
use std::path::PathBuf;

/// The placement schemes compared in Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    Lemur,
    Optimal,
    HwPreferred,
    SwPreferred,
    MinBounce,
    Greedy,
    NoProfiling,
    NoCoreAlloc,
}

impl Scheme {
    /// The six Figure 2(a–e) schemes.
    pub const COMPARISON: [Scheme; 6] = [
        Scheme::Lemur,
        Scheme::Optimal,
        Scheme::HwPreferred,
        Scheme::SwPreferred,
        Scheme::MinBounce,
        Scheme::Greedy,
    ];

    /// The Figure 2f variants.
    pub const ABLATIONS: [Scheme; 3] = [Scheme::Lemur, Scheme::NoProfiling, Scheme::NoCoreAlloc];
}

impl serde::Serialize for Scheme {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(format!("{self:?}"))
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scheme::Lemur => "Lemur",
            Scheme::Optimal => "Optimal",
            Scheme::HwPreferred => "HW Preferred",
            Scheme::SwPreferred => "SW Preferred",
            Scheme::MinBounce => "Min Bounce",
            Scheme::Greedy => "Greedy",
            Scheme::NoProfiling => "No Profiling",
            Scheme::NoCoreAlloc => "No Core Alloc",
        };
        write!(f, "{s:>13}")
    }
}

/// Build the placement problem for a set of canonical chains at a given δ
/// (t_min = δ × base rate, t_max = 100 Gbps, §5.1), along with matching
/// traffic specs whose aggregates the generated P4 classifies on.
pub fn build_problem(
    which: &[CanonicalChain],
    delta: f64,
    topology: Topology,
) -> (PlacementProblem, Vec<TrafficSpec>) {
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
    let mut p = PlacementProblem::new(chains, topology, NfProfiles::table4());
    for i in 0..p.chains.len() {
        let base = p.base_rate_bps(i);
        p.chains[i].slo = Some(Slo::elastic_pipe(delta * base, 100e9));
    }
    (p, specs)
}

/// Run one scheme's placement (stage feasibility via the real compiler
/// oracle unless the caller supplies another).
pub fn place(
    scheme: Scheme,
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
) -> Result<EvaluatedPlacement, PlacementError> {
    match scheme {
        Scheme::Lemur => lemur_placer::heuristic::place(problem, oracle),
        Scheme::Optimal => lemur_placer::brute::optimal(
            problem,
            oracle,
            lemur_placer::brute::BruteConfig::default(),
        ),
        Scheme::HwPreferred => lemur_placer::baselines::hw_preferred(problem, oracle),
        Scheme::SwPreferred => lemur_placer::baselines::sw_preferred(problem, oracle),
        Scheme::MinBounce => lemur_placer::baselines::min_bounce(problem, oracle),
        Scheme::Greedy => lemur_placer::baselines::greedy(problem, oracle),
        Scheme::NoProfiling => lemur_placer::ablations::no_profiling(problem, oracle),
        Scheme::NoCoreAlloc => lemur_placer::ablations::no_core_allocation(problem, oracle),
    }
}

/// The default stage oracle: the meta-compiler + `lemur-p4sim` compiler.
pub fn compiler_oracle() -> CompilerOracle {
    CompilerOracle::new()
}

/// The memoizing stage oracle: identical verdicts to [`compiler_oracle`],
/// but repeated probes of the same synthesized switch program skip stage
/// packing. Share one instance across a whole (set, δ, scheme) sweep so
/// cells that re-derive the same program hit the cache.
pub fn cached_compiler_oracle() -> CachedCompilerOracle {
    CachedCompilerOracle::new()
}

/// Why a measurement run could not start: each stage of the
/// placer → meta-compiler → dataplane pipeline surfaces its own typed
/// error instead of a panic or a stringly-typed one.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureError {
    /// The meta-compiler rejected the placement.
    Compile(lemur_metacompiler::CompileError),
    /// The simulated testbed could not be built from the deployment.
    Build(lemur_dataplane::BuildError),
}

impl From<lemur_metacompiler::CompileError> for MeasureError {
    fn from(e: lemur_metacompiler::CompileError) -> Self {
        MeasureError::Compile(e)
    }
}

impl From<lemur_dataplane::BuildError> for MeasureError {
    fn from(e: lemur_dataplane::BuildError) -> Self {
        MeasureError::Build(e)
    }
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Compile(e) => write!(f, "meta-compilation failed: {e}"),
            MeasureError::Build(e) => write!(f, "testbed build failed: {e}"),
        }
    }
}

impl std::error::Error for MeasureError {}

/// Meta-compile and execute a feasible placement on the simulated
/// testbed; offered load = 110% of each chain's predicted rate.
pub fn measure(
    problem: &PlacementProblem,
    placement: &EvaluatedPlacement,
    specs: &[TrafficSpec],
    duration_s: f64,
) -> Result<lemur_dataplane::SimReport, MeasureError> {
    let deployment = lemur_metacompiler::compile(problem, placement)?;
    let mut testbed = Testbed::build(problem, placement, deployment)?;
    let mut offered: Vec<TrafficSpec> = specs.to_vec();
    for (i, s) in offered.iter_mut().enumerate() {
        s.offered_bps = (placement.chain_rates_bps[i] * 1.1).max(1e8);
    }
    let config = SimConfig {
        duration_s,
        warmup_s: duration_s / 5.0,
        ..SimConfig::default()
    };
    Ok(testbed.run(&offered, config))
}

/// Like [`measure`], but injecting a [`FaultPlan`] mid-run with the SLO
/// guard armed (per-chain SLOs from the problem), so the report carries a
/// fault/violation timeline and per-window samples.
pub fn measure_with_faults(
    problem: &PlacementProblem,
    placement: &EvaluatedPlacement,
    specs: &[TrafficSpec],
    duration_s: f64,
    plan: &lemur_dataplane::FaultPlan,
) -> Result<lemur_dataplane::SimReport, MeasureError> {
    let deployment = lemur_metacompiler::compile(problem, placement)?;
    let mut testbed = Testbed::build(problem, placement, deployment)?;
    let mut offered: Vec<TrafficSpec> = specs.to_vec();
    for (i, s) in offered.iter_mut().enumerate() {
        s.offered_bps = (placement.chain_rates_bps[i] * 1.1).max(1e8);
    }
    let config = SimConfig {
        duration_s,
        warmup_s: duration_s / 5.0,
        ..SimConfig::default()
    };
    let slos: Vec<Option<Slo>> = problem.chains.iter().map(|c| c.slo).collect();
    Ok(testbed.run_with_faults(&offered, config, plan, &slos))
}

/// One result row of a comparison experiment.
#[derive(Debug, Clone)]
pub struct Row {
    pub scheme: Scheme,
    pub delta: f64,
    pub feasible: bool,
    /// Σ t_min over chains (the hashed rectangle of Figure 2).
    pub aggregate_tmin_gbps: f64,
    /// Placer-predicted aggregate throughput (the ◇ marker).
    pub predicted_gbps: f64,
    /// Measured aggregate throughput (the bar).
    pub measured_gbps: f64,
    pub marginal_gbps: f64,
    pub stages_used: Option<usize>,
    /// Stage-oracle invocations the search made for this cell (from
    /// [`lemur_placer::placement::SearchTelemetry`]); `None` when the
    /// placement failed. Deterministic — identical run to run.
    pub oracle_calls: Option<u64>,
}

impl serde::Serialize for Row {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("scheme".to_string(), self.scheme.to_value()),
            ("delta".to_string(), self.delta.to_value()),
            ("feasible".to_string(), self.feasible.to_value()),
            (
                "aggregate_tmin_gbps".to_string(),
                self.aggregate_tmin_gbps.to_value(),
            ),
            ("predicted_gbps".to_string(), self.predicted_gbps.to_value()),
            ("measured_gbps".to_string(), self.measured_gbps.to_value()),
            ("marginal_gbps".to_string(), self.marginal_gbps.to_value()),
            ("stages_used".to_string(), self.stages_used.to_value()),
            ("oracle_calls".to_string(), self.oracle_calls.to_value()),
        ])
    }
}

/// Pretty-print rows grouped by δ.
pub fn print_rows(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    println!(
        "{:>13} {:>5} {:>9} {:>10} {:>10} {:>10} {:>7} {:>8}",
        "scheme", "δ", "feasible", "Σt_min(G)", "pred(G)", "meas(G)", "stages", "oracle"
    );
    for r in rows {
        println!(
            "{} {:>5.1} {:>9} {:>10.2} {:>10.2} {:>10.2} {:>7} {:>8}",
            r.scheme,
            r.delta,
            if r.feasible { "yes" } else { "NO" },
            r.aggregate_tmin_gbps,
            if r.feasible {
                r.predicted_gbps
            } else {
                f64::NAN
            },
            if r.feasible {
                r.measured_gbps
            } else {
                f64::NAN
            },
            r.stages_used.map(|s| s.to_string()).unwrap_or_default(),
            r.oracle_calls.map(|c| c.to_string()).unwrap_or_default(),
        );
    }
}

/// Write a JSON result artifact under `target/experiments/`.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
            .join("experiments");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if std::fs::write(&path, s).is_ok() {
                println!("[wrote {}]", path.display());
            }
        }
        Err(e) => eprintln!("failed to serialize {name}: {e}"),
    }
}

/// Run one (scheme, δ) cell of a comparison figure.
pub fn run_cell(
    scheme: Scheme,
    which: &[CanonicalChain],
    delta: f64,
    topology: Topology,
    oracle: &dyn StageOracle,
    sim_duration_s: f64,
) -> Row {
    let (problem, specs) = build_problem(which, delta, topology);
    let aggregate_tmin: f64 = problem
        .chains
        .iter()
        .map(|c| c.slo.unwrap().t_min_bps)
        .sum();
    match place(scheme, &problem, oracle) {
        Ok(placement) => {
            let measured = measure(&problem, &placement, &specs, sim_duration_s)
                .map(|r| r.aggregate_bps())
                .unwrap_or(0.0);
            Row {
                scheme,
                delta,
                feasible: true,
                aggregate_tmin_gbps: aggregate_tmin / 1e9,
                predicted_gbps: placement.aggregate_bps / 1e9,
                measured_gbps: measured / 1e9,
                marginal_gbps: (measured - aggregate_tmin).max(0.0) / 1e9,
                stages_used: placement.stages_used,
                oracle_calls: placement.telemetry.map(|t| t.oracle_calls),
            }
        }
        Err(_) => Row {
            scheme,
            delta,
            feasible: false,
            aggregate_tmin_gbps: aggregate_tmin / 1e9,
            predicted_gbps: 0.0,
            measured_gbps: 0.0,
            marginal_gbps: 0.0,
            stages_used: None,
            oracle_calls: None,
        },
    }
}

/// Chain-set definitions for Figure 2(a–e).
pub fn figure2_set(set: char) -> Option<Vec<CanonicalChain>> {
    use CanonicalChain::*;
    Some(match set {
        'a' => vec![Chain1, Chain2, Chain3, Chain4],
        'b' => vec![Chain1, Chain2, Chain3],
        'c' => vec![Chain1, Chain2, Chain4],
        'd' => vec![Chain1, Chain3, Chain4],
        'e' => vec![Chain2, Chain3, Chain4],
        'f' => vec![Chain1, Chain2, Chain3, Chain4],
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_placer::oracle::AlwaysFits;

    #[test]
    fn cell_runs_lemur_feasibly() {
        let row = run_cell(
            Scheme::Lemur,
            &[CanonicalChain::Chain3],
            0.5,
            Topology::testbed(),
            &AlwaysFits,
            0.003,
        );
        assert!(row.feasible);
        assert!(row.measured_gbps > 0.0);
        assert!(row.predicted_gbps > 0.0);
    }

    #[test]
    fn figure2_sets_defined() {
        for set in ['a', 'b', 'c', 'd', 'e', 'f'] {
            assert!(figure2_set(set).is_some());
        }
        assert!(figure2_set('z').is_none());
        assert_eq!(figure2_set('a').unwrap().len(), 4);
        assert_eq!(figure2_set('b').unwrap().len(), 3);
    }

    #[test]
    fn infeasible_cell_reports_cleanly() {
        let row = run_cell(
            Scheme::NoCoreAlloc,
            &[CanonicalChain::Chain3],
            3.0,
            Topology::testbed(),
            &AlwaysFits,
            0.003,
        );
        assert!(!row.feasible);
        assert_eq!(row.measured_gbps, 0.0);
    }
}
