//! Per-layer timing from outside the program: delegating wrappers around
//! the stage oracle and the control hook, and the counters every layer
//! reports into. Nothing here changes what a wrapped call computes.

use crate::harness::{metric, Metric};
use lemur_dataplane::{ControlAction, ControlHook, FaultKind, MigrationError};
use lemur_dataplane::{TimelineEvent, WindowSample};
use lemur_placer::cache::CacheStats;
use lemur_placer::oracle::{StageOracle, StageVerdict};
use lemur_placer::placement::{Assignment, PlacementProblem, SearchTelemetry};
use std::sync::Mutex;
use std::time::Instant;

/// Per-layer counters of one run. Counts and seconds accumulate over the
/// traced repetitions (and the one replay); [`Layers::metrics`] turns them
/// into per-repetition values and per-call costs.
#[derive(Default)]
pub struct Layers {
    pub p4_passes: u64,
    pub p4_ns: u64,
    pub bess_visits: u64,
    pub bess_ns: u64,
    pub nf_calls: u64,
    pub nf_ns: u64,
    pub ebpf_runs: u64,
    pub ebpf_ns: u64,
    pub ebpf_steps: u64,
    pub materialize_s: f64,
    pub tail_plan_s: f64,
    pub tail_cells: u64,
    pub validate_s: f64,
    pub compile_s: f64,
    pub build_s: f64,
    pub hook_s: f64,
    pub hook_calls: u64,
    pub commits: u64,
    pub migration_aborts: u64,
    pub oracle_calls: u64,
    pub oracle_ns: u64,
    pub oracle_fits: u64,
    pub search_self_s: f64,
    pub pruned: u64,
    pub lp_evals: u64,
    pub lp_timed_ns: u64,
    pub lp_timed: u64,
    /// Host seconds of the measured phase with the wrappers in place.
    pub traced_wall_s: f64,
    /// Traced repetitions folded into the fields above.
    pub reps: u64,
}

fn per(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

impl Layers {
    /// Fold one traced oracle's spans into the counters.
    pub fn add_oracle(&mut self, oracle: &TimedOracle<'_>) {
        let spans = oracle.spans();
        self.oracle_calls += spans.len() as u64;
        self.oracle_fits += spans.iter().filter(|s| s.fits).count() as u64;
        self.oracle_ns += spans
            .iter()
            .map(|s| s.end.duration_since(s.start).as_nanos() as u64)
            .sum::<u64>();
    }

    /// Fold one placement search in: its self time (wall minus the time
    /// an oracle call was running) and its search telemetry.
    pub fn add_search(
        &mut self,
        (start, end): (Instant, Instant),
        telemetry: Option<SearchTelemetry>,
        oracle: &TimedOracle<'_>,
    ) {
        self.search_self_s +=
            end.duration_since(start).as_secs_f64() - oracle.covered_s(start, end);
        let t = telemetry.unwrap_or_default();
        self.pruned += t.pruned_candidates;
        self.lp_evals += t.lp_evals;
    }

    /// Fold one traced hook's time and call count in.
    pub fn add_hook(&mut self, hook: &TimedHook<'_>) {
        self.hook_s += hook.busy_s;
        self.hook_calls += hook.calls;
    }

    /// The per-layer metrics, in `BENCHMARK.json` order. Counts and
    /// seconds are per repetition; replay counts are per replay.
    pub fn metrics(&self) -> Vec<Metric> {
        let r = self.reps.max(1) as f64;
        vec![
            metric("p4sim.passes", self.p4_passes as f64, "count"),
            metric("p4sim.ns_per_pass", per(self.p4_ns, self.p4_passes), "ns"),
            metric("bess.visits", self.bess_visits as f64, "count"),
            metric(
                "bess.ns_per_visit",
                per(self.bess_ns, self.bess_visits),
                "ns",
            ),
            metric("nf.calls", self.nf_calls as f64, "count"),
            metric("nf.ns_per_call", per(self.nf_ns, self.nf_calls), "ns"),
            metric("ebpf.runs", self.ebpf_runs as f64, "count"),
            metric("ebpf.ns_per_run", per(self.ebpf_ns, self.ebpf_runs), "ns"),
            metric(
                "ebpf.steps_per_run",
                per(self.ebpf_steps, self.ebpf_runs),
                "steps",
            ),
            metric("flowsim.materialize_s", self.materialize_s / r, "s"),
            metric("flowsim.tail_plan_s", self.tail_plan_s / r, "s"),
            metric("flowsim.tail_cells", self.tail_cells as f64 / r, "count"),
            metric("flowsim.validate_s", self.validate_s / r, "s"),
            metric("metacompiler.compile_s", self.compile_s / r, "s"),
            metric("dataplane.build_s", self.build_s / r, "s"),
            metric("control.hook_s", self.hook_s / r, "s"),
            metric("control.hook_calls", self.hook_calls as f64 / r, "count"),
            metric("control.commits", self.commits as f64 / r, "count"),
            metric(
                "control.migration_aborts",
                self.migration_aborts as f64 / r,
                "count",
            ),
            metric("oracle.calls", self.oracle_calls as f64 / r, "count"),
            metric(
                "oracle.ns_per_call",
                per(self.oracle_ns, self.oracle_calls),
                "ns",
            ),
            metric(
                "oracle.fits_frac",
                per(self.oracle_fits, self.oracle_calls),
                "ratio",
            ),
            metric("placer.search_self_s", self.search_self_s / r, "s"),
            metric("placer.pruned", self.pruned as f64 / r, "count"),
            metric("lp.evals", self.lp_evals as f64 / r, "count"),
            metric("lp.ns_per_eval", per(self.lp_timed_ns, self.lp_timed), "ns"),
            metric("trace.wall_s", self.traced_wall_s / r, "s"),
        ]
    }
}

/// One stage-oracle call.
#[derive(Clone, Copy)]
pub struct Span {
    pub start: Instant,
    pub end: Instant,
    pub fits: bool,
}

/// A [`StageOracle`] that delegates every call and records one span per
/// call. `StageOracle` must be `Sync`, hence the lock.
pub struct TimedOracle<'a> {
    inner: &'a dyn StageOracle,
    spans: Mutex<Vec<Span>>,
}

impl<'a> TimedOracle<'a> {
    pub fn new(inner: &'a dyn StageOracle) -> TimedOracle<'a> {
        TimedOracle {
            inner,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording an oracle span")
            .clone()
    }

    /// Host seconds spent in oracle calls that ran within `[from, to]`.
    /// The searches run on one worker, so the calls never overlap.
    pub fn covered_s(&self, from: Instant, to: Instant) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.start >= from && s.end <= to)
            .map(|s| s.end.duration_since(s.start).as_secs_f64())
            .sum()
    }
}

impl StageOracle for TimedOracle<'_> {
    fn check(&self, problem: &PlacementProblem, assignment: &Assignment) -> StageVerdict {
        let start = Instant::now();
        let verdict = self.inner.check(problem, assignment);
        let end = Instant::now();
        self.spans
            .lock()
            .expect("a thread panicked while recording an oracle span")
            .push(Span {
                start,
                end,
                fits: matches!(verdict, StageVerdict::Fits { .. }),
            });
        verdict
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }
}

/// A [`ControlHook`] that delegates every callback and times it.
pub struct TimedHook<'h> {
    inner: &'h mut dyn ControlHook,
    pub busy_s: f64,
    pub calls: u64,
}

impl<'h> TimedHook<'h> {
    pub fn new(inner: &'h mut dyn ControlHook) -> TimedHook<'h> {
        TimedHook {
            inner,
            busy_s: 0.0,
            calls: 0,
        }
    }

    fn span<T>(&mut self, f: impl FnOnce(&mut dyn ControlHook) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut *self.inner);
        self.busy_s += t0.elapsed().as_secs_f64();
        self.calls += 1;
        out
    }
}

impl ControlHook for TimedHook<'_> {
    fn on_fault(&mut self, at_ns: u64, kind: &FaultKind) -> ControlAction {
        self.span(|h| h.on_fault(at_ns, kind))
    }

    fn on_window(
        &mut self,
        end_ns: u64,
        samples: &[WindowSample],
        violations: &[TimelineEvent],
    ) -> ControlAction {
        self.span(|h| h.on_window(end_ns, samples, violations))
    }

    fn on_commit(&mut self, at_ns: u64, epoch: u64, packets_lost: u64, rollback: bool) {
        self.span(|h| h.on_commit(at_ns, epoch, packets_lost, rollback))
    }

    fn on_migration_failed(&mut self, at_ns: u64, error: &MigrationError) {
        self.span(|h| h.on_migration_failed(at_ns, error))
    }
}
