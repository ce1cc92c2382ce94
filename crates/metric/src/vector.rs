//! `L_p` metrics for dense vector data.
//!
//! All metrics in this module are generic over `P: AsRef<[f64]>`, so they
//! work with `Vec<f64>`, `[f64; N]`, boxed slices, and newtypes that
//! deref to coordinate slices. Vectors of mismatched dimensionality are a
//! programmer error and panic in debug builds; in release builds the extra
//! coordinates of the longer vector are ignored, matching `zip` semantics.

use crate::Metric;

#[inline]
fn coords<'a, P: AsRef<[f64]>>(a: &'a P, b: &'a P) -> (&'a [f64], &'a [f64]) {
    let (a, b) = (a.as_ref(), b.as_ref());
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    (a, b)
}

/// Dimensionality-derived transformation cost (Def. 7): describing a point
/// one unit away requires one coordinate delta per feature.
fn vector_transformation_cost<P: AsRef<[f64]>>(data: &[P]) -> f64 {
    data.first().map_or(1.0, |p| p.as_ref().len().max(1) as f64)
}

/// The Euclidean (`L_2`) distance — the paper's default for vector data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

impl<P: AsRef<[f64]> + Sync> Metric<P> for Euclidean {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        let (a, b) = coords(a, b);
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    fn transformation_cost(&self, data: &[P]) -> f64 {
        vector_transformation_cost(data)
    }

    /// The diagonal of the points' bounding box, for no evaluations: the
    /// squared per-dimension widths, summed in dimension order, square
    /// rooted. Rounding is monotone, so no computed distance between two
    /// of the points exceeds it.
    fn diameter_bound(&self, points: &[P], ids: &[u32]) -> (f64, u64) {
        let Some(&first) = ids.first() else {
            return (0.0, 0);
        };
        let dim = points[first as usize].as_ref().len();
        let mut bbox = vec![(f64::INFINITY, f64::NEG_INFINITY); dim];
        for &i in ids {
            for ((lo, hi), &x) in bbox.iter_mut().zip(points[i as usize].as_ref()) {
                *lo = lo.min(x);
                *hi = hi.max(x);
            }
        }
        let sum: f64 = bbox.iter().map(|(lo, hi)| (hi - lo) * (hi - lo)).sum();
        (sum.sqrt(), 0)
    }
}

/// The Manhattan (`L_1`) distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Manhattan;

impl<P: AsRef<[f64]> + Sync> Metric<P> for Manhattan {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        let (a, b) = coords(a, b);
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    fn transformation_cost(&self, data: &[P]) -> f64 {
        vector_transformation_cost(data)
    }
}

/// The Chebyshev (`L_∞`) distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chebyshev;

impl<P: AsRef<[f64]> + Sync> Metric<P> for Chebyshev {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        let (a, b) = coords(a, b);
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    fn transformation_cost(&self, data: &[P]) -> f64 {
        vector_transformation_cost(data)
    }
}

/// The general Minkowski (`L_p`) distance for `p ≥ 1`.
///
/// `p < 1` does not satisfy the triangle inequality and is rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minkowski {
    p: f64,
}

impl Minkowski {
    /// Creates an `L_p` metric.
    ///
    /// # Panics
    /// Panics if `p < 1` or `p` is not finite (not a metric).
    pub fn new(p: f64) -> Self {
        assert!(
            p.is_finite() && p >= 1.0,
            "Minkowski requires finite p >= 1"
        );
        Self { p }
    }

    /// The exponent `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl<P: AsRef<[f64]> + Sync> Metric<P> for Minkowski {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        let (a, b) = coords(a, b);
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs().powf(self.p))
            .sum::<f64>()
            .powf(1.0 / self.p)
    }

    fn transformation_cost(&self, data: &[P]) -> f64 {
        vector_transformation_cost(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(c: &[f64]) -> Vec<f64> {
        c.to_vec()
    }

    #[test]
    fn euclidean_known_value() {
        assert_eq!(Euclidean.distance(&v(&[0.0, 0.0]), &v(&[3.0, 4.0])), 5.0);
    }

    #[test]
    fn euclidean_identity() {
        let p = v(&[1.5, -2.5, 3.0]);
        assert_eq!(Euclidean.distance(&p, &p), 0.0);
    }

    #[test]
    fn manhattan_known_value() {
        assert_eq!(Manhattan.distance(&v(&[1.0, 2.0]), &v(&[4.0, -2.0])), 7.0);
    }

    #[test]
    fn chebyshev_known_value() {
        assert_eq!(Chebyshev.distance(&v(&[1.0, 2.0]), &v(&[4.0, -2.0])), 4.0);
    }

    #[test]
    fn minkowski_p1_matches_manhattan() {
        let a = v(&[0.2, -0.7, 1.0]);
        let b = v(&[-1.0, 0.0, 2.5]);
        let got = Minkowski::new(1.0).distance(&a, &b);
        let want = Manhattan.distance(&a, &b);
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn minkowski_p2_matches_euclidean() {
        let a = v(&[0.2, -0.7, 1.0]);
        let b = v(&[-1.0, 0.0, 2.5]);
        let got = Minkowski::new(2.0).distance(&a, &b);
        let want = Euclidean.distance(&a, &b);
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "p >= 1")]
    fn minkowski_rejects_p_below_one() {
        let _ = Minkowski::new(0.5);
    }

    #[test]
    fn transformation_cost_is_dimensionality() {
        let data = vec![v(&[0.0; 7]), v(&[1.0; 7])];
        assert_eq!(Euclidean.transformation_cost(&data), 7.0);
        assert_eq!(Manhattan.transformation_cost(&data), 7.0);
    }

    #[test]
    fn transformation_cost_of_empty_dataset_defaults_to_one() {
        let data: Vec<Vec<f64>> = vec![];
        assert_eq!(Euclidean.transformation_cost(&data), 1.0);
    }

    #[test]
    fn symmetry_spot_checks() {
        let a = v(&[0.1, 0.9, -4.0]);
        let b = v(&[2.0, -1.0, 0.5]);
        for m in [1.0f64, 1.5, 2.0, 3.0] {
            let mk = Minkowski::new(m);
            assert_eq!(mk.distance(&a, &b), mk.distance(&b, &a));
        }
    }
}
