//! §5.2 "An extreme configuration: P4 stage constraints".
//!
//! The chain `BPF -> N × NAT (branched) -> IPv4Fwd` at δ = 0.5:
//!
//! * all-switch placement of 11 NATs exceeds the 12-stage pipeline;
//! * 10 NATs fit (the compiler's packing beats the conservative analytic
//!   estimate — paper: estimate 14 vs compiled 12);
//! * without the meta-compiler's dependency-elimination optimizations the
//!   10-NAT program balloons (paper: 27 stages);
//! * Lemur handles the 11-NAT chain by placing one NAT on the server.
//!
//! The four chain lengths run in N order. The memoized compiler oracles
//! are shared across them.

use lemur_bench::write_json;
use lemur_core::chains::extreme_nat_chain;
use lemur_core::graph::ChainSpec;
use lemur_core::Slo;
use lemur_metacompiler::{p4gen, routing, CachedCompilerOracle};
use lemur_placer::oracle::{StageOracle, StageVerdict};
use lemur_placer::placement::PlacementProblem;
use lemur_placer::profiles::{NfProfiles, Platform};
use lemur_placer::topology::Topology;

fn problem(n: usize) -> PlacementProblem {
    let mut p = PlacementProblem::new(
        vec![ChainSpec {
            name: format!("extreme{n}"),
            graph: extreme_nat_chain(n),
            slo: None,
            aggregate: None,
        }],
        Topology::testbed(),
        NfProfiles::table4(),
    );
    let base = p.base_rate_bps(0);
    p.chains[0].slo = Some(Slo::elastic_pipe(1.0 * base, 100e9));
    p
}

/// Print one chain length's two report lines and return its JSON summary.
fn run_one(
    n: usize,
    oracle: &CachedCompilerOracle,
    naive: &CachedCompilerOracle,
) -> (usize, String, usize, usize) {
    let p = problem(n);
    let hw = lemur_placer::baselines::hw_preferred_assignment(&p);

    // Real compiler.
    let compiled = oracle.check(&p, &hw);
    // Conservative analytic estimate.
    let plan = routing::plan(&p, &hw);
    let estimate = p4gen::synthesize(&p, &hw, &plan, p4gen::P4GenOptions::default())
        .map(|s| {
            lemur_p4sim::compiler::estimate_conservative(&s.program, p.topology.pisa().unwrap())
        })
        .unwrap_or(0);
    // Naive (no dependency elimination) generation.
    let naive_stages = match naive.check(&p, &hw) {
        StageVerdict::Fits { stages } => stages,
        StageVerdict::OutOfStages { required, .. } => required,
    };
    let compiled_str = match &compiled {
        StageVerdict::Fits { stages } => format!("{stages} (fits)"),
        StageVerdict::OutOfStages { required, .. } => format!("{required} (OVERFLOW)"),
    };
    println!(
        "  {n:>2} NATs all-switch: compiled {compiled_str:>15}, analytic estimate {estimate:>2}, naive codegen {naive_stages:>2}"
    );

    // What the full placers do with this chain.
    let lemur = lemur_placer::heuristic::place(&p, oracle);
    let hw_res = lemur_placer::baselines::hw_preferred(&p, oracle);
    let sw_res = lemur_placer::baselines::sw_preferred(&p, oracle);
    let nats_on_server = lemur
        .as_ref()
        .map(|e| {
            p.chains[0]
                .graph
                .nodes()
                .filter(|(id, node)| {
                    node.kind == lemur_nf::NfKind::Nat
                        && matches!(e.assignment[0].get(id), Some(Platform::Server(_)))
                })
                .count()
        })
        .unwrap_or(0);
    println!(
        "      Lemur: {} ({} NAT(s) moved to server) | HW Preferred: {} | SW Preferred: {}",
        lemur
            .as_ref()
            .map(|e| format!("feasible, {:.1}G", e.aggregate_bps / 1e9))
            .unwrap_or_else(|e| format!("infeasible ({e})")),
        nats_on_server,
        hw_res
            .map(|_| "feasible".to_string())
            .unwrap_or_else(|e| format!("infeasible ({e})")),
        sw_res
            .map(|_| "feasible".to_string())
            .unwrap_or_else(|e| format!("infeasible ({e})")),
    );
    (n, compiled_str, estimate, naive_stages)
}

fn main() {
    println!("=== §5.2 extreme configuration: BPF -> N x NAT -> IPv4Fwd ===\n");
    let oracle = CachedCompilerOracle::new();
    let naive = CachedCompilerOracle::naive();
    let ns = [9usize, 10, 11, 12];
    let summary: Vec<_> = ns.iter().map(|&n| run_one(n, &oracle, &naive)).collect();
    write_json("stages", &summary);
    println!("\nPaper shape: 10 NATs fit (12 stages; conservative estimate 14; naive 27);");
    println!("11 NATs overflow, and only Lemur finds a feasible mixed placement.");
}
