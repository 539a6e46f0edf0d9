//! Fleet soak: multi-PoP control under seeded storm weather — channel
//! blackouts, asymmetric partitions, brownouts, and coordinator crashes
//! with torn journal tails — held to four hard invariants per seed:
//!
//! * **Exact packet conservation** — generated = forwarded + NF-dropped +
//!   dropped-unowned, as integers, plus an exact copy ledger on the lossy
//!   control channel itself.
//! * **Fencing exclusivity** — no tick ever sees one chain live at two
//!   PoPs; leases, fencing tokens, and incarnations must hold the line
//!   through every blackout and recovery.
//! * **Settled ending** — after the storm, every non-shed chain is live
//!   at exactly its journaled home, and every journal (coordinator and
//!   per-PoP) replays to the live state.
//! * **Bit-identical reproducibility** — running the same seed twice
//!   yields an identical `FleetReport`.
//!
//! The sweep must also produce evidence of a full-PoP blackout recovered
//! via cross-site state migration (a drain whose stateful chains restore
//! from replicated snapshots on the survivor, fingerprint-verified).
//!
//! Usage: `exp_fleet [--seeds N] [--pops N] [--base-seed N] [--quick]`

use lemur_bench::{compiler_oracle, write_json};
use lemur_fleet::sim::{FleetSim, FleetSimConfig, FleetSpec};
use lemur_fleet::FleetReport;
use lemur_placer::oracle::StageOracle;

fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn soak(seed: u64, n_pops: usize, validate: bool, oracle: &dyn StageOracle) -> FleetReport {
    let spec = FleetSpec::canonical(n_pops);
    let mut cfg = FleetSimConfig::soak(seed, n_pops);
    cfg.validate = validate;
    FleetSim::new(spec, cfg).run(oracle)
}

struct FleetRow {
    report: FleetReport,
    reproducible: bool,
    validated: bool,
}

impl serde::Serialize for FleetRow {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("report".to_string(), self.report.to_value()),
            ("reproducible".to_string(), self.reproducible.to_value()),
            ("validated".to_string(), self.validated.to_value()),
        ])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let n_seeds = arg_u64(&args, "--seeds", if quick { 3 } else { 10 });
    let n_pops = arg_u64(&args, "--pops", 2) as usize;
    let base_seed = arg_u64(&args, "--base-seed", 1);
    let oracle = compiler_oracle();

    println!(
        "fleet soak: seeds {base_seed}..{} pops={n_pops}{}",
        base_seed + n_seeds - 1,
        if quick { " (quick)" } else { "" }
    );

    let mut rows: Vec<FleetRow> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for seed in base_seed..base_seed + n_seeds {
        // Reproducibility is checked the hard way: running the same seed
        // twice must yield one bit-identical report. Deep validation
        // (per-PoP dataplane re-runs) is sampled below rather than paid
        // on every run.
        let report = soak(seed, n_pops, false, &oracle);
        let reproducible = report == soak(seed, n_pops, false, &oracle);

        if !report.invariants_hold() {
            failures.push(format!("seed {seed}: invariant violated: {report:?}"));
        }
        if !reproducible {
            failures.push(format!("seed {seed}: report differs between two runs"));
        }
        if report.drains == 0 {
            failures.push(format!(
                "seed {seed}: the guaranteed blackout never drained its PoP"
            ));
        }
        println!(
            "seed {seed}: drains={} failovers={} sheds={} state_restores={} \
             fencing={} recoveries={} settled={} reproducible={reproducible}",
            report.drains,
            report.failovers,
            report.sheds,
            report.state_restores,
            report.fencing_events,
            report.coordinator_recoveries,
            report.settled,
        );
        rows.push(FleetRow {
            report,
            reproducible,
            validated: false,
        });
    }

    // Evidence of cross-site state migration: at least one seed must
    // blackout a whole PoP and recover its stateful chains from
    // replicated snapshots on the survivor.
    let migrated: Vec<u64> = rows
        .iter()
        .filter(|r| {
            r.report.blackout_victim.is_some()
                && r.report.drains >= 1
                && r.report.state_restores >= 1
        })
        .map(|r| r.report.seed)
        .collect();
    if migrated.is_empty() {
        failures.push(
            "no seed recovered a full-PoP blackout via cross-site state migration".to_string(),
        );
    } else {
        println!("cross-site state migration recovered seeds: {migrated:?}");
    }

    // Deep validation: rerun the first migration-evidence seed (and the
    // first seed overall) with per-PoP dataplane validation on, twice —
    // survivors must compile, settle under their own
    // supervisor, and balance their packet ledgers exactly.
    if !quick {
        let mut picks: Vec<u64> = Vec::new();
        if let Some(&s) = migrated.first() {
            picks.push(s);
        }
        if let Some(first) = rows.first().map(|r| r.report.seed) {
            if !picks.contains(&first) {
                picks.push(first);
            }
        }
        for seed in picks {
            let v1 = soak(seed, n_pops, true, &oracle);
            if v1 != soak(seed, n_pops, true, &oracle) {
                failures.push(format!(
                    "seed {seed}: validated report differs between two runs"
                ));
            }
            if !v1.invariants_hold() {
                failures.push(format!(
                    "seed {seed}: dataplane validation failed: {:?}",
                    v1.validations
                ));
            }
            println!(
                "seed {seed}: validated {} surviving PoPs through the dataplane",
                v1.validations.len()
            );
            if let Some(row) = rows.iter_mut().find(|r| r.report.seed == seed) {
                row.report = v1;
                row.validated = true;
            }
        }
    }

    write_json("exp_fleet", &rows);

    if failures.is_empty() {
        println!("fleet soak PASSED ({n_seeds} seeds)");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
