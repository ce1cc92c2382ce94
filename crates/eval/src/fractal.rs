//! Correlation (fractal) dimension estimation.
//!
//! Lemma 1 bounds MCCATCH's cost by `O(n · n^(1-1/u))` where `u` is the
//! *correlation fractal dimension* — "how quickly the number of neighbors
//! grows with the distance" (footnote 7). Tab. III reports `u` for every
//! dataset and Fig. 7 derives the expected runtime slopes `2 - 1/u` from
//! it. We estimate `u` the standard way: the slope of
//! `log2(avg pair count within r)` versus `log2(r)` over the scaling range.
//!
//! Only distances are needed, so this works for nondimensional data too —
//! exactly as the paper requires.

use crate::stats::linear_regression;
use mccatch_index::{IndexBuilder, RangeIndex};
use mccatch_metric::Metric;

/// Correlation-dimension estimate with its diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct FractalDim {
    /// Estimated correlation fractal dimension `u`.
    pub dimension: f64,
    /// `R²` of the log-log fit (low values mean no clear scaling range).
    pub r2: f64,
    /// The `(log2 r, log2 avg-count)` points used in the fit.
    pub fit_points: Vec<(f64, f64)>,
}

/// Estimates the correlation fractal dimension of `points` under `metric`.
///
/// `num_radii` controls the grid resolution (the paper's own radius count,
/// 15, is a good default); `max_queries` caps the number of correlation-
/// integral query points for large datasets (deterministic striding, no
/// sampling randomness).
///
/// # Panics
/// Panics unless `3 <= num_radii <= 64`: the grid divides the diameter by
/// `2^(num_radii - 1)`, which must fit in a `u64`.
pub fn correlation_dimension<P, M, B>(
    points: &[P],
    metric: &M,
    builder: &B,
    num_radii: usize,
    max_queries: usize,
) -> FractalDim
where
    P: Sync + Clone,
    M: Metric<P> + Clone,
    B: IndexBuilder<P, M>,
{
    let n = points.len();
    assert!(
        (3..=64).contains(&num_radii),
        "num_radii {num_radii} not in 3..=64"
    );
    if n < 3 {
        return FractalDim {
            dimension: 0.0,
            r2: 1.0,
            fit_points: Vec::new(),
        };
    }
    let index = builder.build_all_ref(points, metric);
    let diameter = index.diameter_estimate();
    if diameter <= 0.0 {
        return FractalDim {
            dimension: 0.0,
            r2: 1.0,
            fit_points: Vec::new(),
        };
    }
    // Deterministic query subset: every ceil(n / max_queries)-th point.
    let stride = n.div_ceil(max_queries.max(1)).max(1);
    let queries: Vec<u32> = (0..n as u32).step_by(stride).collect();
    let radii: Vec<f64> = (0..num_radii)
        .map(|k| diameter / (1u64 << (num_radii - 1 - k)) as f64)
        .collect();
    // Correlation integral: average neighbor count (excluding self) per r.
    let mut fit_points = Vec::new();
    for &r in &radii {
        let counts = mccatch_index::batch_range_count(&index, points, &queries, r, 1);
        let avg = counts
            .iter()
            .map(|&c| (c.saturating_sub(1)) as f64)
            .sum::<f64>()
            / queries.len() as f64;
        // Keep only the scaling range: neither empty nor saturated.
        if avg >= 0.5 && avg <= 0.4 * n as f64 {
            fit_points.push((r.log2(), avg.log2()));
        }
    }
    if fit_points.len() < 2 {
        // No scaling range: distances concentrate (high embedding
        // dimension at this sample size) and the correlation dimension is
        // not measurable — report NaN rather than a misleading number.
        return FractalDim {
            dimension: f64::NAN,
            r2: 0.0,
            fit_points,
        };
    }
    let xs: Vec<f64> = fit_points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = fit_points.iter().map(|p| p.1).collect();
    let reg = linear_regression(&xs, &ys);
    FractalDim {
        dimension: reg.slope,
        r2: reg.r2,
        fit_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_index::KdTreeBuilder;
    use mccatch_metric::Euclidean;

    /// Deterministic low-discrepancy sequence filling [0,1]^d.
    fn halton(n: usize, dim: usize) -> Vec<Vec<f64>> {
        const PRIMES: [u64; 4] = [2, 3, 5, 7];
        (1..=n)
            .map(|i| {
                (0..dim)
                    .map(|d| {
                        let base = PRIMES[d % PRIMES.len()];
                        let mut f = 1.0;
                        let mut r = 0.0;
                        let mut k = i as u64 + (d / PRIMES.len()) as u64 * 7919;
                        while k > 0 {
                            f /= base as f64;
                            r += f * (k % base) as f64;
                            k /= base;
                        }
                        r
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn line_has_dimension_one() {
        let pts: Vec<Vec<f64>> = (0..2000).map(|i| vec![i as f64, 0.0]).collect();
        let fd = correlation_dimension(&pts, &Euclidean, &KdTreeBuilder::default(), 15, 500);
        assert!(
            (fd.dimension - 1.0).abs() < 0.15,
            "line dim {} r2 {}",
            fd.dimension,
            fd.r2
        );
    }

    #[test]
    fn plane_has_dimension_two() {
        let pts = halton(4000, 2);
        let fd = correlation_dimension(&pts, &Euclidean, &KdTreeBuilder::default(), 15, 500);
        assert!(
            (fd.dimension - 2.0).abs() < 0.3,
            "plane dim {} r2 {}",
            fd.dimension,
            fd.r2
        );
    }

    #[test]
    fn diagonal_in_high_dim_still_dimension_one() {
        // 10-dim diagonal line: embedding dim 10, intrinsic dim 1 — the
        // Diagonal dataset of Fig. 7.
        let pts: Vec<Vec<f64>> = (0..2000).map(|i| vec![i as f64 * 0.01; 10]).collect();
        let fd = correlation_dimension(&pts, &Euclidean, &KdTreeBuilder::default(), 15, 400);
        assert!(
            (fd.dimension - 1.0).abs() < 0.15,
            "diagonal dim {}",
            fd.dimension
        );
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<Vec<f64>> = vec![];
        let fd = correlation_dimension(&empty, &Euclidean, &KdTreeBuilder::default(), 15, 100);
        assert_eq!(fd.dimension, 0.0);
        let same = vec![vec![1.0, 1.0]; 10];
        let fd = correlation_dimension(&same, &Euclidean, &KdTreeBuilder::default(), 15, 100);
        assert_eq!(fd.dimension, 0.0);
    }
}
