//! Server dataplane overload drop curve: drive the simulated testbed at
//! offered loads from 0.5× to 3× the predicted rate of an all-software
//! Chain3 placement, so every NF runs in the server NF runtime.
//!
//! Usage: `exp_dataplane_throughput [--quick]`
//!
//! Per offered load the experiment reports the virtual-time delivered
//! rate and drop fraction, plus the wall-clock time to simulate the
//! window. Results land in `target/experiments/BENCH_dataplane.json`; a
//! snapshot of the full run is checked in at the repo root. Exit is
//! non-zero if any row's conservation ledger does not balance.

use lemur_bench::table::{cell, fnum, json_row, Table};
use lemur_bench::{build_problem, write_json};
use lemur_core::chains::CanonicalChain;
use lemur_dataplane::{SimConfig, Testbed};
use lemur_placer::corealloc::CoreStrategy;
use std::time::Instant;

struct OverloadRow {
    offered_multiplier: f64,
    offered_gbps: f64,
    delivered_gbps: f64,
    drop_frac: f64,
    wall_s: f64,
    ledger_balanced: bool,
}

impl serde::Serialize for OverloadRow {
    fn to_value(&self) -> serde::Value {
        json_row(vec![
            ("offered_multiplier", self.offered_multiplier.to_value()),
            ("offered_gbps", self.offered_gbps.to_value()),
            ("delivered_gbps", self.delivered_gbps.to_value()),
            ("drop_frac", self.drop_frac.to_value()),
            ("wall_s", self.wall_s.to_value()),
            ("ledger_balanced", self.ledger_balanced.to_value()),
        ])
    }
}

fn overload_curve(quick: bool) -> Vec<OverloadRow> {
    // All-software placement of a canonical chain: every NF runs in the
    // server runtime. The relaxed SLO floor keeps the placement feasible
    // without hardware offload.
    let (p, mut specs) = build_problem(
        &[CanonicalChain::Chain3],
        0.25,
        lemur_placer::topology::Topology::testbed(),
    );
    let a = lemur_placer::baselines::sw_preferred_assignment(&p);
    let e = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
    let config = SimConfig {
        duration_s: if quick { 0.004 } else { 0.02 },
        warmup_s: if quick { 0.001 } else { 0.004 },
        ..SimConfig::default()
    };
    let mut rows = Vec::new();
    for mult in [0.5, 1.0, 1.5, 2.0, 3.0] {
        specs[0].offered_bps = e.chain_rates_bps[0] * mult;
        let deployment = lemur_metacompiler::compile(&p, &e).expect("meta-compile");
        let mut testbed = Testbed::build(&p, &e, deployment).expect("testbed build");
        let t0 = Instant::now();
        let report = testbed.run(&specs, config);
        let wall_s = t0.elapsed().as_secs_f64();
        let delivered = report.per_chain[0].delivered_bps;
        rows.push(OverloadRow {
            offered_multiplier: mult,
            offered_gbps: specs[0].offered_bps / 1e9,
            delivered_gbps: delivered / 1e9,
            drop_frac: (1.0 - delivered / specs[0].offered_bps).max(0.0),
            wall_s,
            ledger_balanced: report.ledger.balanced(),
        });
    }
    rows
}

struct Artifact {
    quick: bool,
    overload: Vec<OverloadRow>,
}

impl serde::Serialize for Artifact {
    fn to_value(&self) -> serde::Value {
        json_row(vec![
            ("quick", self.quick.to_value()),
            ("overload", self.overload.to_value()),
        ])
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    println!("=== Overload drop curve (Chain3, all-software placement) ===\n");
    let table = Table::new()
        .right("mult", 5)
        .right("offered(G)", 12)
        .right("delivered(G)", 14)
        .right("drop%", 10)
        .right("wall_s", 10)
        .right("ledger", 8);
    table.print_header();
    let rows = overload_curve(quick);
    for r in &rows {
        table.print_row(&[
            fnum(r.offered_multiplier, 1),
            fnum(r.offered_gbps, 2),
            fnum(r.delivered_gbps, 2),
            format!("{:.1}%", r.drop_frac * 100.0),
            fnum(r.wall_s, 3),
            cell(if r.ledger_balanced { "ok" } else { "FAIL" }),
        ]);
    }

    let artifact = Artifact {
        quick,
        overload: rows,
    };
    write_json("BENCH_dataplane", &artifact);

    let unbalanced: Vec<f64> = artifact
        .overload
        .iter()
        .filter(|r| !r.ledger_balanced)
        .map(|r| r.offered_multiplier)
        .collect();
    if unbalanced.is_empty() {
        println!("\nPASS: every row's conservation ledger balances.");
    } else {
        for mult in unbalanced {
            eprintln!("FAIL: conservation ledger unbalanced at {mult}x offered");
        }
        std::process::exit(1);
    }
}
