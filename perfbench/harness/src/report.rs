//! Run results: ops attempted/failed, the metrics the run reports, and
//! the named figures printed beside them, plus the exact-quantile and
//! hashing helpers every workload shares.

use std::time::Duration;

/// Samples a latency distribution needs for ten to lie beyond its p99.
pub const TAIL_SAMPLES: usize = 1_000;

/// One reported number with its unit and how many samples it came from.
#[derive(Debug, Clone)]
pub struct Figure {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: requests, fits, and output checks.
    pub attempted: u64,
    /// Operations that failed: non-2xx or truncated responses, and
    /// checks whose outputs were wrong.
    pub failed: u64,
    /// Why each failed operation failed (printed to stderr, capped).
    pub failures: Vec<String>,
    /// The metrics of the final JSON line, in the order they were added.
    pub metrics: Vec<Figure>,
    /// Named per-endpoint / per-dataset figures, printed as `detail`
    /// lines before the JSON line.
    pub details: Vec<Figure>,
    /// Dataset and batch sizes, stamped on the result.
    pub sizes: Vec<(String, usize)>,
}

impl Report {
    /// Counts one operation; `Err` marks it failed with the reason.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// Counts one output check: passes when `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(if ok { Ok(()) } else { Err(what()) });
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Figure {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.details.push(Figure {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    pub fn size(&mut self, name: &str, n: usize) {
        self.sizes.push((name.to_owned(), n));
    }

    /// Adds a latency distribution as `{prefix}.p50_ms` / `{prefix}.p99_ms`
    /// details, and checks that at least ten samples lie beyond the p99.
    pub fn latency_details(&mut self, prefix: &str, samples_ns: &[u64]) {
        let n = samples_ns.len();
        self.detail(
            &format!("{prefix}.p50_ms"),
            quantile_ms(samples_ns, 0.50),
            "ms",
            n,
        );
        self.detail(
            &format!("{prefix}.p99_ms"),
            quantile_ms(samples_ns, 0.99),
            "ms",
            n,
        );
        self.check(n >= TAIL_SAMPLES, || {
            format!("{prefix}: {n} samples leave fewer than 10 beyond the p99")
        });
    }
}

/// Exact nearest-rank quantile of raw samples (no histogram buckets):
/// the smallest sample with at least `q·n` samples at or below it.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// [`quantile`] of nanosecond samples, in milliseconds.
pub fn quantile_ms(samples_ns: &[u64], q: f64) -> f64 {
    quantile(samples_ns, q) as f64 / 1e6
}

/// Median of durations, in seconds (nearest rank).
pub fn median_secs(samples: &[Duration]) -> f64 {
    let ns: Vec<u64> = samples.iter().map(|d| d.as_nanos() as u64).collect();
    quantile(&ns, 0.5) as f64 / 1e9
}

/// FNV-1a over the bit patterns of `values`: equal iff bit-identical
/// (up to hash collisions).
pub fn hash_f64s(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
