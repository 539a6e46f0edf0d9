//! Differential dataplane fuzzing run (robustness experiment).
//!
//! Axis 1: random table programs through the stage-packing compiler vs
//! the naive one-table-per-stage reference vs the control-tree
//! interpreter, on identical packet workloads. Axis 2: generated eBPF
//! NIC programs vs the software NF path on random NSH traffic.
//!
//! Seeds run in order; each seed's report is a pure function of the
//! seed, so the JSON output is bit-identical run to run.
//!
//! Usage:
//!
//! ```text
//! exp_diff_fuzz [--seeds N] [--trials N] [--quick] [--inject-bug]
//! ```
//!
//! * default: 5 seeds x 500 trials per axis;
//! * `--quick`: 2 seeds x 60 trials (CI);
//! * `--inject-bug`: self-test — enable the compiler's deliberate
//!   packing bug and *demand* a divergence that shrinks to <= 2 tables
//!   and <= 3 packets. Exit code 1 if the harness fails to catch it.
//!
//! Exit codes: 0 = clean (or bug caught in `--inject-bug` mode);
//! 1 = unexpected divergence, panic, or missed injected bug.

use lemur_bench::write_json;
use lemur_fuzz::{run_backend_seed, run_seed, RunOptions};
use serde::Value;
use std::process::ExitCode;

struct Args {
    seeds: u64,
    trials: usize,
    inject_bug: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 5,
        trials: 500,
        inject_bug: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                args.seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seeds needs a number"));
            }
            "--trials" => {
                args.trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--trials needs a number"));
            }
            "--quick" => {
                args.seeds = 2;
                args.trials = 60;
            }
            "--inject-bug" => args.inject_bug = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!("exp_diff_fuzz: {msg}");
    eprintln!("usage: exp_diff_fuzz [--seeds N] [--trials N] [--quick] [--inject-bug]");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args = parse_args();
    let opts = RunOptions {
        inject_bug: args.inject_bug,
        max_failures_per_seed: 3,
    };

    println!(
        "== differential dataplane fuzzing: {} seeds x {} trials/axis{} ==",
        args.seeds,
        args.trials,
        if args.inject_bug {
            " [INJECTED BUG SELF-TEST]"
        } else {
            ""
        }
    );

    // Axis 1 (compiler) and axis 2 (backend) per seed.
    let reports: Vec<_> = (0..args.seeds)
        .map(|seed| {
            (
                run_seed(seed, args.trials, opts),
                run_backend_seed(seed, args.trials),
            )
        })
        .collect();

    let mut exec = 0usize;
    let mut skipped = 0usize;
    let mut packets = 0usize;
    let mut a1_failures = 0usize;
    let mut a2_divergences = 0usize;
    let mut shrunk_ok = 0usize;
    for (a1, a2) in &reports {
        exec += a1.executed + a2.executed;
        skipped += a1.skipped_packed + a1.skipped_naive;
        packets += a1.packets;
        a1_failures += a1.failures.len();
        a2_divergences += a2.divergences.len();
        for f in &a1.failures {
            let small = f.case.program.num_tables() <= 2 && f.case.packets.len() <= 3;
            if small {
                shrunk_ok += 1;
            }
            println!(
                "  seed {} trial {}: {} (shrunk to {} tables / {} packets, {} reductions)",
                f.seed,
                f.trial,
                f.divergence.detail,
                f.case.program.num_tables(),
                f.case.packets.len(),
                f.reductions
            );
        }
        for d in &a2.divergences {
            println!("  backend seed {}: {}", a2.seed, d);
        }
    }
    println!(
        "executed {exec} trials ({packets} packets, {skipped} skipped), \
         {a1_failures} compiler divergences, {a2_divergences} backend divergences"
    );

    let report = Value::object(vec![
        ("seeds".into(), Value::Int(args.seeds as i128)),
        ("trials_per_seed".into(), Value::Int(args.trials as i128)),
        ("inject_bug".into(), Value::Bool(args.inject_bug)),
        ("executed".into(), Value::Int(exec as i128)),
        ("skipped".into(), Value::Int(skipped as i128)),
        ("packets".into(), Value::Int(packets as i128)),
        (
            "axis1".into(),
            Value::Array(reports.iter().map(|(a1, _)| a1.to_value()).collect()),
        ),
        (
            "axis2".into(),
            Value::Array(reports.iter().map(|(_, a2)| a2.to_value()).collect()),
        ),
    ]);
    write_json("diff_fuzz", &report);

    if args.inject_bug {
        // Self-test: the harness must catch the bug and shrink it tight.
        if a1_failures == 0 {
            eprintln!("FAIL: injected packing bug produced no divergence");
            return ExitCode::FAILURE;
        }
        if shrunk_ok == 0 {
            eprintln!("FAIL: no divergence shrank to <= 2 tables / <= 3 packets");
            return ExitCode::FAILURE;
        }
        println!("self-test OK: bug caught and minimized");
        return ExitCode::SUCCESS;
    }
    if a1_failures > 0 || a2_divergences > 0 {
        eprintln!("FAIL: unexpected cross-backend divergence (see report above)");
        return ExitCode::FAILURE;
    }
    println!("OK: no divergences");
    ExitCode::SUCCESS
}
