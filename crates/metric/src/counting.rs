//! A metric decorator that counts distance evaluations.
//!
//! Lemma 1 bounds MCCATCH's runtime by the cost of its spatial joins, which
//! is proportional to the number of distance computations. Wall-clock
//! benchmarks are noisy; counting distance calls gives a deterministic,
//! machine-independent measurement that the harness uses to check the
//! `O(n^(2-1/u))` growth curve of Fig. 7.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::Metric;

/// Wraps a metric and counts how many times `distance` is invoked.
///
/// The counter is atomic so parallel joins can share one wrapper; relaxed
/// ordering suffices because the count is only read after joins complete.
#[derive(Debug, Default)]
pub struct CountingMetric<M> {
    inner: M,
    calls: AtomicU64,
}

impl<M> CountingMetric<M> {
    /// Wraps `inner` with a zeroed counter.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    /// Number of distance evaluations since construction or the last
    /// [`reset`](Self::reset).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
    }

    /// Consumes the wrapper, returning the inner metric.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<P, M: Metric<P>> Metric<P> for CountingMetric<M> {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.distance(a, b)
    }

    fn transformation_cost(&self, data: &[P]) -> f64 {
        self.inner.transformation_cost(data)
    }

    /// The inner metric's bound, so a wrapped metric fits the same radius
    /// grid; its evaluations are added to the count.
    fn diameter_bound(&self, points: &[P], ids: &[u32]) -> (f64, u64) {
        let (bound, evals) = self.inner.diameter_bound(points, ids);
        self.calls.fetch_add(evals, Ordering::Relaxed);
        (bound, evals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Euclidean;

    #[test]
    fn counts_calls_and_resets() {
        let m = CountingMetric::new(Euclidean);
        let a = vec![0.0, 0.0];
        let b = vec![1.0, 1.0];
        assert_eq!(m.calls(), 0);
        let _ = m.distance(&a, &b);
        let _ = m.distance(&a, &b);
        assert_eq!(m.calls(), 2);
        m.reset();
        assert_eq!(m.calls(), 0);
    }

    #[test]
    fn preserves_distances_and_cost() {
        let m = CountingMetric::new(Euclidean);
        let a = vec![0.0, 0.0];
        let b = vec![3.0, 4.0];
        assert_eq!(m.distance(&a, &b), 5.0);
        let data = vec![a, b];
        assert_eq!(m.transformation_cost(&data), 2.0);
    }
}
