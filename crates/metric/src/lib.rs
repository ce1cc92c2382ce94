//! Distance functions and metric-space abstractions for MCCATCH.
//!
//! MCCATCH (ICDE 2024) works on *any* metric dataset: the algorithm never
//! touches coordinates, only pairwise distances. This crate provides the
//! [`Metric`] trait that the rest of the workspace builds on, together with
//! concrete metrics for the three data modalities evaluated in the paper:
//!
//! * **Vectors** — [`Euclidean`], [`Manhattan`], [`Chebyshev`] and general
//!   [`Minkowski`] (`L_p`) distances (Sec. V: "for vector data, we use the
//!   Euclidean distance (but any other Lp metric would work)").
//! * **Strings** — [`Levenshtein`] ("L-Edit") and [`SoundexDistance`]
//!   (Sec. V: "string-editing or soundex encoding distance for strings").
//! * **Trees** — [`TreeEditDistance`] (Zhang–Shasha) over [`OrderedTree`]s,
//!   standing in for the paper's skeleton-graph edit distance.
//! * **Codes, sets and rays** — [`Hamming`], [`Jaccard`] and [`Angular`],
//!   for categorical codes, token sets and directional data.
//!
//! Each metric also knows its *transformation cost* `t` (Def. 7): the number
//! of bits needed to describe how to transform one element into another
//! element that is one unit of distance away. The cost feeds the
//! compression-based anomaly scores of `mccatch-core`.
//!
//! Finally, [`CountingMetric`] wraps any metric and counts distance
//! evaluations, which the benchmark harness uses to verify the subquadratic
//! behaviour promised by Lemma 1 independently of wall-clock noise.

#![deny(missing_docs)]

mod counting;
mod discrete;
mod string;
mod tree;
mod vector;

pub use counting::CountingMetric;
pub use discrete::{jaccard_set, Angular, Hamming, Jaccard};
pub use string::{soundex, Levenshtein, SoundexDistance};
pub use tree::{OrderedTree, TreeEditDistance, TreeNode};
pub use vector::{Chebyshev, Euclidean, Manhattan, Minkowski};

/// A distance function over elements of type `P`.
///
/// Implementations must satisfy the metric (or at least pseudometric) axioms:
/// non-negativity, symmetry, `d(x, x) = 0`, and the triangle inequality.
/// The triangle inequality is load-bearing: the Slim-tree in `mccatch-index`
/// prunes subtrees with it, and a non-metric distance silently produces
/// wrong neighbor counts.
///
/// `Send + Sync` is required so neighbor counting can be parallelized and
/// so fitted models that own their metric can move across threads.
pub trait Metric<P>: Send + Sync {
    /// The distance between `a` and `b`.
    fn distance(&self, a: &P, b: &P) -> f64;

    /// The transformation cost `t` of Def. 7: the cost in bits to transform
    /// an element into another element that is one unit of distance away.
    ///
    /// The default of `1.0` is a conservative choice for custom spaces; the
    /// provided metrics override it (e.g. dimensionality for vector spaces,
    /// the op/char/position code length for edit distance).
    ///
    /// `data` is the dataset under analysis: some costs depend on dataset
    /// statistics such as the alphabet size or the longest word.
    fn transformation_cost(&self, data: &[P]) -> f64 {
        let _ = data;
        1.0
    }

    /// An upper bound on the diameter of `points[ids]` (the largest
    /// distance between two of them), and the distance evaluations spent
    /// on it. MCCATCH derives its whole radius grid from this one number
    /// (Alg. 1 line 2), and the fit fills the grid's last column with `n`
    /// without a join, so the bound must never fall below a distance this
    /// metric computes between two of the points. It depends on the points
    /// and the metric alone, not on the order of `ids` or on any index,
    /// so every backend fits the same grid.
    ///
    /// The default is a farthest-point sweep of `4 (n - 1)` evaluations.
    /// From the smallest id `x`, let `a` be the point farthest from `x`,
    /// `b` the point farthest from `a`, and `c` the point minimising
    /// `max(d(a, ·), d(b, ·))`; the bound is `2 · min(ecc(x), ecc(a),
    /// ecc(c))`, where `ecc(p)` is the largest distance from `p`, so the
    /// triangle inequality makes each term an upper bound. Every argmax
    /// and argmin breaks ties by the smallest id. A metric with a cheaper
    /// bound overrides it: [`Euclidean`] returns the bounding box's
    /// diagonal for no evaluations.
    fn diameter_bound(&self, points: &[P], ids: &[u32]) -> (f64, u64) {
        sweep_bound(self, points, ids)
    }
}

/// The farthest-point sweep of [`Metric::diameter_bound`]'s default.
fn sweep_bound<P, M: Metric<P> + ?Sized>(metric: &M, points: &[P], ids: &[u32]) -> (f64, u64) {
    let Some(&x) = ids.iter().min() else {
        return (0.0, 0);
    };
    // Distances from `from` to `points[ids[k]]`, in `ids` order.
    let sweep = |from: u32| -> Vec<f64> {
        ids.iter()
            .map(|&i| {
                if i == from {
                    0.0
                } else {
                    metric.distance(&points[from as usize], &points[i as usize])
                }
            })
            .collect()
    };
    let ecc = |dist: &[f64]| dist.iter().copied().fold(0.0, f64::max);
    let from_x = sweep(x);
    let a = arg_best(ids, &from_x, |v, w| v > w);
    let from_a = sweep(a);
    let b = arg_best(ids, &from_a, |v, w| v > w);
    let from_b = sweep(b);
    let worst: Vec<f64> = from_a.iter().zip(&from_b).map(|(u, v)| u.max(*v)).collect();
    let c = arg_best(ids, &worst, |v, w| v < w);
    let bound = ecc(&from_x).min(ecc(&from_a)).min(ecc(&sweep(c)));
    (2.0 * bound, 4 * (ids.len() as u64 - 1))
}

/// The id whose key (`key[k]` for `ids[k]`) beats every other by
/// `better`, the smallest id among equal keys, so the choice does not
/// depend on the order of `ids`. `ids` is not empty.
fn arg_best(ids: &[u32], key: &[f64], better: fn(f64, f64) -> bool) -> u32 {
    let mut at = 0;
    for k in 1..ids.len() {
        if better(key[k], key[at]) || (key[k] == key[at] && ids[k] < ids[at]) {
            at = k;
        }
    }
    ids[at]
}

/// Blanket impl so `&M` can be used wherever a metric is expected.
impl<P, M: Metric<P> + ?Sized> Metric<P> for &M {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        (**self).distance(a, b)
    }

    fn transformation_cost(&self, data: &[P]) -> f64 {
        (**self).transformation_cost(data)
    }

    fn diameter_bound(&self, points: &[P], ids: &[u32]) -> (f64, u64) {
        (**self).diameter_bound(points, ids)
    }
}

/// Blanket impl so a shared `Arc<M>` is itself a metric. This is how
/// stateful wrappers such as [`CountingMetric`] move into an owned fitted
/// model while the caller keeps a handle to read the state afterwards.
impl<P, M: Metric<P> + ?Sized> Metric<P> for std::sync::Arc<M> {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        (**self).distance(a, b)
    }

    fn transformation_cost(&self, data: &[P]) -> f64 {
        (**self).transformation_cost(data)
    }

    fn diameter_bound(&self, points: &[P], ids: &[u32]) -> (f64, u64) {
        (**self).diameter_bound(points, ids)
    }
}

/// Universal code length for integers, `⟨z⟩`, after Rissanen (1983) as used
/// by the paper (footnote 6): `⟨z⟩ ≈ log₂(z) + log₂(log₂(z)) + …`, keeping
/// only the positive terms. This is the optimal code length when the range
/// of `z` is unknown a priori.
///
/// Defined for `z ≥ 1`; `⟨1⟩ = 0`. Callers that may produce zeros must add
/// one first ("we add ones to some values whose code lengths are required,
/// so to account for zeros" — Sec. IV-D).
///
/// # Panics
/// Panics in debug builds if `z == 0`.
#[inline]
pub fn universal_code_length(z: u64) -> f64 {
    debug_assert!(z >= 1, "universal code length requires z >= 1");
    let mut total = 0.0;
    let mut term = (z.max(1) as f64).log2();
    while term > 0.0 {
        total += term;
        term = term.log2();
    }
    total
}

/// `⟨·⟩` applied to a real value: clamps up to 1 and takes the ceiling, i.e.
/// `⟨max(1, ⌈v⌉)⟩`. This is the form every use in Def. 5/Def. 7 reduces to
/// once the paper's "+1 for zeros" adjustments are applied by the caller.
#[inline]
pub fn universal_code_length_f64(v: f64) -> f64 {
    universal_code_length(v.ceil().max(1.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universal_code_of_one_is_zero() {
        assert_eq!(universal_code_length(1), 0.0);
    }

    #[test]
    fn universal_code_of_two() {
        // log2(2) = 1, log2(1) = 0 (dropped): total 1.
        assert_eq!(universal_code_length(2), 1.0);
    }

    #[test]
    fn universal_code_of_four() {
        // log2(4) = 2, log2(2) = 1, log2(1) = 0: total 3.
        assert_eq!(universal_code_length(4), 3.0);
    }

    #[test]
    fn universal_code_of_sixteen() {
        // 4 + 2 + 1 = 7.
        assert_eq!(universal_code_length(16), 7.0);
    }

    #[test]
    fn universal_code_monotone() {
        let mut prev = 0.0;
        for z in 1..10_000u64 {
            let c = universal_code_length(z);
            assert!(c >= prev, "not monotone at {z}");
            prev = c;
        }
    }

    #[test]
    fn universal_code_f64_clamps_small_values() {
        assert_eq!(universal_code_length_f64(0.0), 0.0);
        assert_eq!(universal_code_length_f64(0.3), 0.0);
        assert_eq!(universal_code_length_f64(1.0), 0.0);
        assert_eq!(universal_code_length_f64(1.1), 1.0); // ceil -> 2
    }

    #[test]
    fn metric_by_reference_works() {
        let m = Euclidean;
        let r = &m;
        let a = vec![0.0, 0.0];
        let b = vec![3.0, 4.0];
        assert_eq!(Metric::distance(&r, &a, &b), 5.0);
    }
}
