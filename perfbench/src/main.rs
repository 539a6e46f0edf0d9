//! Benchmark of the Lemur simulator and Placer, driven from outside
//! through their public entry points.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hybrid_flows|chaos_steady|placer_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats its workload — set-up, then the measured phase — until
//! `--seconds` have passed, checks every repetition's outputs, and prints
//! as its last stdout line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones; with `--trace 1` they are the per-layer ones, taken by timing
//! wrappers and a functional replay (see `NOTES.md`).

mod adapter;
mod chaos;
mod harness;
mod hybrid;
mod placer;
mod replay;
mod trace;

use harness::{median, metric, print_result, quantile, Metric, Outcome};
use trace::Layers;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    })
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(out: &Outcome) -> Result<Vec<Metric>, String> {
    let reps = &out.reps;
    let first = reps.first().ok_or("no repetition succeeded")?;
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let wall: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let rate: Vec<f64> = reps.iter().map(|r| r.items as f64 / r.wall_s).collect();
    Ok(vec![
        metric("setup_s", median(&setup), "s"),
        metric("wall_s", median(&wall), "s"),
        metric("work_per_s", median(&rate), "1/s"),
        metric("peak_rss_mb", harness::peak_rss_mb()?, "MiB"),
        metric("delivered_gbps", first.delivered_gbps, "Gbps"),
        metric("marginal_gbps", first.marginal_gbps, "Gbps"),
        metric("place_ms_p90", quantile(&out.place_ms, 0.9), "ms"),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    adapter::pin_workers();
    println!(
        "workload={} seed={} seconds={} trace={} LEMUR_WORKERS={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        adapter::WORKERS
    );

    let mut layers = Layers::default();
    let tr = args.trace.then_some(&mut layers);
    let mut out = match args.workload.as_str() {
        "hybrid_flows" => hybrid::run(args.seed, args.seconds, tr),
        "chaos_steady" => chaos::run(args.seed, args.seconds, tr),
        "placer_sweep" => placer::run(args.seed, args.seconds, tr),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };

    let metrics = if args.trace {
        layers.metrics()
    } else {
        match end_to_end(&out) {
            Ok(m) => m,
            Err(e) => {
                out.fail(e);
                Vec::new()
            }
        }
    };
    let digest = out.reps.first().map_or(0, |r| r.digest);
    println!(
        "repetitions={} digest={digest:#018x} failed_frac={} ratio",
        out.reps.len(),
        out.failures.len() as f64 / out.attempted.max(1) as f64
    );
    // The search-latency median flips between the host's fast and slow
    // phases from run to run, so it is printed but not gated.
    if !args.trace {
        println!(
            "place_ms_p50={} ms over {} searches",
            median(&out.place_ms),
            out.place_ms.len()
        );
    }
    // `work_per_s` under the name of what a workload's work item is.
    if let Some(m) = metrics.iter().find(|m| m.name == "work_per_s") {
        let name = match args.workload.as_str() {
            "placer_sweep" => "searches_per_s",
            _ => "mat_pkts_per_s",
        };
        println!("{name}={} {}", m.value, m.unit);
    }
    for f in &out.failures {
        println!("FAIL: {f}");
    }
    print_result(out.attempted, out.failures.len() as u64, &metrics);
}
