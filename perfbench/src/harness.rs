//! Repetition loop, statistics, digests and the result line shared by
//! every workload.

use std::time::{Duration, Instant};

/// Repetitions started even when one alone outlasts `--seconds`, so that
/// every reported time is a median and every digest is compared at least
/// once.
pub const MIN_REPS: usize = 3;

/// What one repetition of a workload measured.
pub struct Rep {
    /// Host seconds of the set-up phase.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// Work items completed in the measured phase (materialized packets
    /// or placement searches).
    pub items: u64,
    /// Deterministic outputs; must repeat bit for bit.
    pub delivered_gbps: f64,
    pub marginal_gbps: f64,
    /// FNV-1a digest of the repetition's deterministic outputs.
    pub digest: u64,
}

/// Every repetition of one run plus its failures.
pub struct Outcome {
    pub reps: Vec<Rep>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Host latencies (ms) of the heuristic searches the run timed.
    pub place_ms: Vec<f64>,
}

impl Outcome {
    /// Record a failed correctness check found outside a repetition.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

/// Run `one(rep_index)` at least [`MIN_REPS`] times, then as long as
/// another repetition as long as the last one still ends within
/// `seconds`. A repetition that returns an error, panics or whose digest
/// differs from the first repetition's counts as failed.
pub fn repeat(seconds: u64, mut one: impl FnMut(usize) -> Result<Rep, String>) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = Outcome {
        reps: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        place_ms: Vec::new(),
    };
    let mut last = Duration::ZERO;
    while out.attempted < MIN_REPS as u64 || start.elapsed() + last <= budget {
        let i = out.attempted as usize;
        out.attempted += 1;
        let began = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| one(i)))
            .unwrap_or_else(|p| Err(format!("repetition {i} panicked: {}", panic_text(&p))));
        match result {
            Ok(rep) => match out.reps.first() {
                Some(first)
                    if first.digest != rep.digest
                        || first.delivered_gbps.to_bits() != rep.delivered_gbps.to_bits()
                        || first.marginal_gbps.to_bits() != rep.marginal_gbps.to_bits() =>
                {
                    out.failures.push(format!(
                        "repetition {i}: digest {:#018x} differs from the first repetition's {:#018x}",
                        rep.digest, first.digest
                    ));
                }
                _ => {
                    println!(
                        "repetition {i}: setup_s={:.6} wall_s={:.6} items={}",
                        rep.setup_s, rep.wall_s, rep.items
                    );
                    out.reps.push(rep);
                }
            },
            Err(e) => out.failures.push(e),
        }
        last = began.elapsed();
        // A failing workload stops early instead of burning the budget.
        if !out.failures.is_empty() && out.attempted >= MIN_REPS as u64 {
            break;
        }
    }
    out
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// FNV-1a (64-bit) over a byte string — the digest of a `Debug` rendering.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of a sample; 0 for an empty one.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Print the metrics as a table, then the result line the benchmark's
/// contract defines: the last line of stdout, one JSON object.
pub fn print_result(attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<26} {:>20} {}", m.name, format!("{}", m.value), m.unit);
    }
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite value already
            // made the run incorrect above.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
