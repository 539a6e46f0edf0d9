//! `lemur-fuzz`: differential dataplane fuzzing.
//!
//! The Lemur pipeline compiles one logical NF chain onto three very
//! different substrates: a stage-packed PISA program, BESS subgroups on
//! server cores, and verifier-checked eBPF on SmartNICs. Each substrate
//! has its own compiler path and its own executor — exactly the setting
//! where a silent miscompilation turns into an SLO violation or a
//! blackholed flow that no throughput benchmark notices.
//!
//! This crate fuzzes the equivalence claims directly, on two axes:
//!
//! * **Axis 1 (compiler)** — random table programs run through the
//!   optimizing stage-packing compiler vs. the naive one-table-per-stage
//!   reference vs. the control-tree interpreter, on identical packet
//!   workloads ([`diff`]).
//! * **Axis 2 (backend)** — random `(SPI, SI, kind)` dispatch lists run
//!   through the generated eBPF NIC program vs. the software NF path,
//!   comparing the observable steering projection ([`backend`]).
//!
//! Failures are minimized by a deterministic delta-debugging shrinker
//! ([`shrink`]) into a JSON regression corpus ([`corpus`]) that
//! `cargo test` replays forever after.
//!
//! Everything is seeded: a report is a pure function of `(seed set,
//! trial count)`, independent of wall clock.

pub mod backend;
pub mod corpus;
pub mod diff;
pub mod gen;
pub mod shrink;

use diff::{DiffOutcome, Divergence};
use gen::DiffCase;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

/// A shrunk axis-1 failure, ready for triage or corpus check-in.
#[derive(Debug, Clone)]
pub struct ShrunkFailure {
    pub seed: u64,
    pub trial: usize,
    pub divergence: Divergence,
    pub case: DiffCase,
    /// Reductions the shrinker applied to reach the minimal case.
    pub reductions: usize,
}

/// Per-seed axis-1 statistics.
#[derive(Debug, Clone, Default)]
pub struct SeedReport {
    pub seed: u64,
    pub trials: usize,
    pub executed: usize,
    pub skipped_packed: usize,
    pub skipped_naive: usize,
    pub packets: usize,
    pub failures: Vec<ShrunkFailure>,
}

/// Options for a fuzzing run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Inject the compiler's deliberate packing bug (self-test mode:
    /// divergences are *expected*).
    pub inject_bug: bool,
    /// Stop a seed after this many failures (shrinking is the expensive
    /// part; one minimal case per seed is usually enough).
    pub max_failures_per_seed: usize,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            inject_bug: false,
            max_failures_per_seed: 3,
        }
    }
}

/// Run `trials` axis-1 trials under one seed. Deterministic: the
/// generator stream depends only on `seed`, and every divergence is
/// shrunk with the same predicate that detected it.
pub fn run_seed(seed: u64, trials: usize, opts: RunOptions) -> SeedReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = SeedReport {
        seed,
        trials,
        ..SeedReport::default()
    };
    let check = |case: &DiffCase| -> DiffOutcome {
        if opts.inject_bug {
            diff::diff_case_injected(case)
        } else {
            diff::diff_case(case)
        }
    };
    for trial in 0..trials {
        let case = gen::gen_case(&mut rng);
        report.packets += case.packets.len();
        match check(&case) {
            DiffOutcome::Agree => report.executed += 1,
            DiffOutcome::Skipped(diff::Skip::Packed(_)) => report.skipped_packed += 1,
            DiffOutcome::Skipped(diff::Skip::Naive(_)) => report.skipped_naive += 1,
            DiffOutcome::Diverged(divergence) => {
                report.executed += 1;
                if report.failures.len() < opts.max_failures_per_seed {
                    let (small, reductions) =
                        shrink::shrink(&case, |c| matches!(check(c), DiffOutcome::Diverged(_)));
                    let final_div = match check(&small) {
                        DiffOutcome::Diverged(d) => d,
                        _ => divergence.clone(),
                    };
                    report.failures.push(ShrunkFailure {
                        seed,
                        trial,
                        divergence: final_div,
                        case: small,
                        reductions,
                    });
                } else {
                    report.failures.push(ShrunkFailure {
                        seed,
                        trial,
                        divergence,
                        case,
                        reductions: 0,
                    });
                }
            }
        }
    }
    report
}

/// Run `trials` axis-2 backend trials under one seed.
pub fn run_backend_seed(seed: u64, trials: usize) -> BackendReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb0c0_de00);
    let mut report = BackendReport {
        seed,
        trials,
        ..BackendReport::default()
    };
    for _ in 0..trials {
        match backend::backend_trial(&mut rng) {
            Ok(divs) => {
                report.executed += 1;
                for d in divs {
                    report.divergences.push(format!(
                        "kind={} len={} {}",
                        d.kind.name(),
                        d.frame.len(),
                        d.detail
                    ));
                }
            }
            Err(e) => {
                report.synth_errors += 1;
                report.last_error = Some(e);
            }
        }
    }
    report
}

/// Per-seed axis-2 statistics.
#[derive(Debug, Clone, Default)]
pub struct BackendReport {
    pub seed: u64,
    pub trials: usize,
    pub executed: usize,
    pub synth_errors: usize,
    pub last_error: Option<String>,
    pub divergences: Vec<String>,
}

impl SeedReport {
    /// JSON projection for the experiment report.
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            ("seed".into(), Value::Int(self.seed as i128)),
            ("trials".into(), Value::Int(self.trials as i128)),
            ("executed".into(), Value::Int(self.executed as i128)),
            (
                "skipped_packed".into(),
                Value::Int(self.skipped_packed as i128),
            ),
            (
                "skipped_naive".into(),
                Value::Int(self.skipped_naive as i128),
            ),
            ("packets".into(), Value::Int(self.packets as i128)),
            (
                "failures".into(),
                Value::Array(
                    self.failures
                        .iter()
                        .map(|f| {
                            Value::object(vec![
                                ("trial".into(), Value::Int(f.trial as i128)),
                                ("detail".into(), Value::Str(f.divergence.detail.clone())),
                                (
                                    "tables".into(),
                                    Value::Int(f.case.program.num_tables() as i128),
                                ),
                                ("packets".into(), Value::Int(f.case.packets.len() as i128)),
                                ("reductions".into(), Value::Int(f.reductions as i128)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl BackendReport {
    /// JSON projection for the experiment report.
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            ("seed".into(), Value::Int(self.seed as i128)),
            ("trials".into(), Value::Int(self.trials as i128)),
            ("executed".into(), Value::Int(self.executed as i128)),
            ("synth_errors".into(), Value::Int(self.synth_errors as i128)),
            (
                "divergences".into(),
                Value::Array(
                    self.divergences
                        .iter()
                        .map(|d| Value::Str(d.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sound_run_has_no_failures() {
        let r = run_seed(1, 60, RunOptions::default());
        assert!(
            r.failures.is_empty(),
            "unexpected divergence: {:?}",
            r.failures[0].divergence
        );
        assert!(r.executed > 30);
    }

    #[test]
    fn injected_bug_run_finds_and_shrinks_failures() {
        let opts = RunOptions {
            inject_bug: true,
            max_failures_per_seed: 1,
        };
        // Some seed in this small set must trip the bug.
        let hit = (0u64..6).find_map(|s| {
            let r = run_seed(s, 120, opts);
            r.failures.into_iter().next()
        });
        let f = hit.expect("injected bug never detected across 6 seeds x 120 trials");
        assert!(f.case.program.num_tables() <= 2, "not minimal: {f:?}");
        assert!(f.case.packets.len() <= 3, "not minimal: {f:?}");
    }

    #[test]
    fn reports_are_reproducible() {
        let a = run_seed(9, 40, RunOptions::default());
        let b = run_seed(9, 40, RunOptions::default());
        assert_eq!(
            serde_json::to_string(&a.to_value()).unwrap(),
            serde_json::to_string(&b.to_value()).unwrap()
        );
        let c = run_backend_seed(9, 10);
        let d = run_backend_seed(9, 10);
        assert_eq!(
            serde_json::to_string(&c.to_value()).unwrap(),
            serde_json::to_string(&d.to_value()).unwrap()
        );
    }
}
