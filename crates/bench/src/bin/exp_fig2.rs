//! Figure 2 (a–f): scheme comparison across chain sets and δ sweeps, plus
//! the Figure 2f component ablations.
//!
//! Usage: `exp_fig2 [--set a|b|c|d|e|f|all] [--quick]`
//!
//! Output: one table per set — a bar per (scheme, δ) with the aggregate
//! Σt_min (the hashed rectangle), the Placer prediction (◇), and the
//! measured aggregate throughput; missing bars are infeasible placements.
//!
//! The (δ, scheme) cells run one after another in δ-major order. The
//! memoized compiler oracle is shared across the whole sweep, so
//! candidates that synthesize a switch program already packed at another δ
//! skip recompilation; the tables and JSON are identical to an uncached
//! run.

use lemur_bench::{cached_compiler_oracle, figure2_set, print_rows, run_cell, Row, Scheme};
use lemur_placer::oracle::StageOracle;
use lemur_placer::topology::Topology;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let set_arg = args
        .iter()
        .position(|a| a == "--set")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("all");
    let quick = args.iter().any(|a| a == "--quick");
    let deltas: Vec<f64> = if quick {
        vec![0.5, 1.0, 1.5, 2.0]
    } else {
        vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    };
    let sim_s = if quick { 0.004 } else { 0.01 };
    let sets: Vec<char> = match set_arg {
        "all" => vec!['a', 'b', 'c', 'd', 'e', 'f'],
        s => vec![s.chars().next().unwrap_or('a')],
    };

    let oracle = cached_compiler_oracle();
    for set in sets {
        let chains = figure2_set(set).expect("known set");
        let schemes: &[Scheme] = if set == 'f' {
            &Scheme::ABLATIONS
        } else {
            &Scheme::COMPARISON
        };
        let before = oracle.cache_stats().unwrap_or_default();
        let rows: Vec<Row> = deltas
            .iter()
            .flat_map(|&delta| schemes.iter().map(move |&scheme| (scheme, delta)))
            .map(|(scheme, delta)| {
                run_cell(scheme, &chains, delta, Topology::testbed(), &oracle, sim_s)
            })
            .collect();
        let title = format!(
            "Figure 2{set}: chains {:?}",
            chains.iter().map(|c| c.index()).collect::<Vec<_>>()
        );
        print_rows(&title, &rows);
        // Feasibility summary (the paper's "Lemur is the only one that
        // produces a feasible solution" observation).
        for &scheme in schemes {
            let feas = rows
                .iter()
                .filter(|r| r.scheme == scheme && r.feasible)
                .count();
            let total = rows.iter().filter(|r| r.scheme == scheme).count();
            println!("  {scheme}: feasible {feas}/{total}");
        }
        if quick {
            // Search-cost accounting for the quick CI run: total stage-
            // oracle probes the schemes issued, and how many of those the
            // memoized compiler answered without re-packing stages.
            let total_calls: u64 = rows.iter().filter_map(|r| r.oracle_calls).sum();
            let cache = oracle.cache_stats().unwrap_or_default().since(&before);
            println!(
                "  oracle calls: {total_calls} (cache: {} hits / {} misses, {:.0}% hit rate)",
                cache.hits,
                cache.misses,
                cache.hit_rate() * 100.0
            );
        }
        lemur_bench::write_json(&format!("fig2{set}"), &rows);
    }
}
