//! Metric access methods and spatial joins for MCCATCH.
//!
//! Step I of MCCATCH (Alg. 1) builds a tree `T` for the dataset — "like a
//! Slim-tree, M-tree, or R-tree" — and every later step counts neighbors
//! through that tree. This crate provides:
//!
//! * [`SlimTree`] — a main-memory Slim-tree (the M-tree family member the
//!   paper recommends for nondimensional data), with MST-based node splits
//!   and triangle-inequality pruning;
//! * [`KdTree`] — a kd-tree fast path for main-memory vector data under the
//!   Euclidean metric (the paper's footnote 4);
//! * [`VpTree`] — a vantage-point tree, a lightweight alternative metric
//!   index demonstrating the pipeline's index-agnosticism;
//! * [`BruteForce`] — a linear-scan reference implementation used as ground
//!   truth in tests and as a baseline in benches;
//! * count-only join helpers ([`batch_range_count`],
//!   [`batch_multi_range_count`], [`pair_join`]) implementing the paper's
//!   *count-only* and *using-index* principles (Sec. IV-G): neighbor
//!   joins never materialize point pairs unless the caller explicitly
//!   asks for pairs (the microcluster gelling step). The multi-radius
//!   variant drives MCCATCH's counting stage: one tree descent per query
//!   fills the counts for every grid radius at once
//!   ([`RangeIndex::multi_range_count_within`], native in all four
//!   backends), and the fit runs it over every point through
//!   [`RangeIndex::self_join_into`], where the kd-tree lets each leaf's
//!   points descend together.
//!
//! All indexes implement [`RangeIndex`]; algorithms are generic over
//! [`IndexBuilder`] so the same pipeline runs on metric or vector data.
//! Every backend also counts the distance evaluations it performs
//! ([`RangeIndex::distance_stats`]), the deterministic cost measure the
//! paper's Lemma 1 bounds.

#![deny(missing_docs)]

mod brute;
mod kd;
mod multi;
mod slim;
mod vp;

pub mod join;

pub use brute::{BruteForce, BruteForceBuilder};
pub use join::{
    batch_multi_range_count, batch_multi_range_count_into, batch_range_count, pair_join,
};
pub use kd::{KdTree, KdTreeBuilder};
pub use slim::{SlimTree, SlimTreeBuilder};
pub use vp::{VpTree, VpTreeBuilder};

use mccatch_metric::Metric;
use std::sync::Arc;

/// Sentinel for "count not computed; known to exceed the cap".
///
/// [`RangeIndex::multi_range_count`] stores this in every column after the
/// first count that crosses the sparse-focused cutoff `c` (Sec. IV-G of the
/// paper), and keeps that first count exact;
/// [`RangeIndex::multi_range_count_within`] stores it there too, after a
/// crossing count clamped to its ceiling. `mccatch-core` re-exports it as
/// `counts::OVER`. As a ceiling it means "none".
pub const OVER: u32 = u32::MAX;

/// Inline capacity of [`SmallCounts`]. The paper's default grid (`a = 15`)
/// joins `a - 1 = 14` radii, so the common case never touches the heap.
const SMALL_COUNTS_INLINE: usize = 16;

/// Per-radius neighbor counts returned by
/// [`RangeIndex::multi_range_count`]: one `u32` count per query radius,
/// stored inline for grids up to 16 radii (heap-spilled beyond that).
///
/// Entries after the first count exceeding the query's `cap` hold [`OVER`]
/// — they were not computed, matching the sparse-focused counting
/// principle — and that first count may be clamped to a ceiling
/// ([`RangeIndex::multi_range_count_within`]). Dereferences to `&[u32]`
/// for slice-style access.
#[derive(Debug, Clone)]
pub struct SmallCounts {
    len: usize,
    inline: [u32; SMALL_COUNTS_INLINE],
    /// Used instead of `inline` when `len > SMALL_COUNTS_INLINE`.
    spill: Vec<u32>,
}

impl SmallCounts {
    /// A counts vector of `len` entries, all set to `value`.
    pub fn filled(len: usize, value: u32) -> Self {
        if len <= SMALL_COUNTS_INLINE {
            Self {
                len,
                inline: [value; SMALL_COUNTS_INLINE],
                spill: Vec::new(),
            }
        } else {
            Self {
                len,
                inline: [value; SMALL_COUNTS_INLINE],
                spill: vec![value; len],
            }
        }
    }

    /// The counts, one per radius of the query (ascending radius order).
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        if self.len <= SMALL_COUNTS_INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Mutable view of the counts, for index implementors filling them in.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u32] {
        if self.len <= SMALL_COUNTS_INLINE {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

impl std::ops::Deref for SmallCounts {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl PartialEq for SmallCounts {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SmallCounts {}

/// Snapshot of an index's distance-computation counters, as reported by
/// [`RangeIndex::distance_stats`].
///
/// Wall-clock benchmarks are noisy; distance evaluations are the
/// deterministic, machine-independent cost measure that Lemma 1 actually
/// bounds. Every provided backend counts its point-to-point distance
/// evaluations (construction and queries alike) and reports them here, so
/// speedups such as the single-traversal multi-radius counting are
/// observable, not asserted. Counts are identical across thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistanceStats {
    /// Total point-to-point distance evaluations since the index was built
    /// (including the ones construction itself performed), one per
    /// distance actually computed: a multi-radius leaf scan computes each
    /// point's distance once and buckets it into every radius of its
    /// window, so it costs the leaf's size, not that times the radii. For
    /// the kd-tree this counts point-distance evaluations only;
    /// bounding-box arithmetic is coordinate work, not a metric
    /// evaluation. In the kd-tree's blocked self-join, a reference leaf
    /// reached by a query block costs one evaluation per (query, point)
    /// pair it computes, for each query whose own window there is not
    /// empty, so a block can charge pairs that query's lone descent would
    /// have pruned.
    pub evals: u64,
}

/// A neighbor returned by k-NN queries: dataset id plus distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the neighbor in the dataset the index was built over.
    pub id: u32,
    /// Distance from the query to the neighbor.
    pub dist: f64,
}

/// Total order on `f64` for heaps and sorts (NaN sorts last).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// An empty candidate slot of a nearest-neighbor search, `(distance,
/// id)`: it sorts after every candidate, so the last slot is always the
/// one to beat.
pub(crate) const EMPTY_SLOT: (f64, u32) = (f64::INFINITY, u32::MAX);

/// Offers the candidate `(d, id)` to `slots`, which hold the `k` best
/// candidates of a nearest-neighbor search so far, ascending in
/// `(distance, id)` order, then [`EMPTY_SLOT`]s. It enters if it precedes
/// the last slot, which it pushes out, so among equal distances the
/// smaller ids are kept, as [`BruteForce`] keeps them. A NaN distance
/// never enters. `d` may be any increasing function of the distance (the
/// kd-tree offers squared distances).
#[inline]
pub(crate) fn offer(slots: &mut [(f64, u32)], d: f64, id: u32) {
    let precedes = |(sd, sid): (f64, u32)| d < sd || (d == sd && id < sid);
    let mut at = slots.len() - 1;
    if !precedes(slots[at]) {
        return;
    }
    while at > 0 && precedes(slots[at - 1]) {
        slots[at] = slots[at - 1];
        at -= 1;
    }
    slots[at] = (d, id);
}

/// The candidates of a finished search: `slots` up to the first empty one.
pub(crate) fn found(slots: &[(f64, u32)]) -> &[(f64, u32)] {
    let n = slots.iter().position(|&s| s == EMPTY_SLOT);
    &slots[..n.unwrap_or(slots.len())]
}

/// An index over a subset of a dataset supporting the queries MCCATCH and
/// the baselines need. Ids refer to positions in the dataset slice the
/// index was built over, so indexes over subsets (outliers, inliers,
/// microcluster members) still report dataset-level ids.
pub trait RangeIndex<P>: Sync {
    /// Number of indexed elements.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of indexed elements within `radius` of `q` (inclusive).
    /// If `q` itself is indexed it is counted too — matching the paper's
    /// "count of neighbors (+ self)".
    fn range_count(&self, q: &P, radius: f64) -> usize;

    /// Counts neighbors of `q` for *every* radius of `radii` (ascending,
    /// inclusive, self counted) in a single pass over the index — the
    /// single-traversal replacement for `radii.len()` separate
    /// [`range_count`](Self::range_count) descents in MCCATCH's counting
    /// stage (Alg. 2 / Sec. IV-G).
    ///
    /// `cap` is the sparse-focused cutoff `c`: entry `k` of the result is
    /// the exact count at `radii[k]` as long as every smaller radius
    /// counted at most `cap`; the first count exceeding `cap` is still
    /// exact, and every entry after it holds [`OVER`]. Pass
    /// `cap = u32::MAX` for fully exact counts at all radii.
    ///
    /// This is [`multi_range_count_within`](Self::multi_range_count_within)
    /// with no ceilings, the exact oracle of the clamped counts.
    fn multi_range_count(&self, q: &P, radii: &[f64], cap: u32) -> SmallCounts {
        self.multi_range_count_within(q, radii, cap, &[])
    }

    /// [`multi_range_count`](Self::multi_range_count) with a crossing
    /// ceiling per radius: the first count exceeding `cap`, at some
    /// column `k`, is stored as `min(count, ceil[k])`, and the traversal
    /// stops refining that column once its running count reaches
    /// `ceil[k]`. Every other entry is as in `multi_range_count`. Each
    /// ceiling must exceed `cap` or be [`OVER`] (no ceiling); `ceil` holds
    /// one per radius, or is empty for exact crossing counts. MCCATCH's
    /// plateau test reads nothing of a crossing count beyond such a
    /// ceiling (`mccatch_core::plateau::crossing_ceilings`).
    ///
    /// The provided default falls back to one [`range_count`] call per
    /// radius (stopping at the first crossing, which it clamps); the four
    /// in-crate backends override it with native one-descent traversals
    /// that bulk-add subtrees wholly covered by a suffix of the radius
    /// grid, skip subtrees out of reach of every still-active radius, and
    /// stop refining radii whose stored value is already decided: those
    /// after the crossing, which can only end [`OVER`], and the crossing
    /// itself once it holds its ceiling. Results are identical to the
    /// fallback bit for bit.
    ///
    /// [`range_count`]: Self::range_count
    fn multi_range_count_within(
        &self,
        q: &P,
        radii: &[f64],
        cap: u32,
        ceil: &[u32],
    ) -> SmallCounts {
        debug_assert!(radii.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(ceil.is_empty() || ceil.len() == radii.len());
        let mut out = SmallCounts::filled(radii.len(), OVER);
        for (k, &r) in radii.iter().enumerate() {
            let c = self.range_count(q, r) as u32;
            if c > cap {
                out.as_mut_slice()[k] = ceil.get(k).map_or(c, |&t| c.min(t));
                break;
            }
            out.as_mut_slice()[k] = c;
        }
        out
    }

    /// The fit's count-only self-join (Alg. 2): for every `i` in
    /// `0..points.len()`, writes
    /// [`multi_range_count_within`](Self::multi_range_count_within)`(&points[i],
    /// radii, cap, ceil)` into `out[i * stride..][..radii.len()]`, on up to
    /// `threads` workers (cells past `radii.len()` are left untouched). The
    /// table and the distance evaluations are the same for every thread
    /// count.
    ///
    /// The provided default is [`batch_multi_range_count_into`] over the
    /// ids `0..points.len()`: one descent per query. [`KdTree`] overrides
    /// it with a blocked join, in which the points of each leaf descend
    /// the tree together, when it indexes all of `points`.
    ///
    /// # Panics
    /// Panics if `stride < radii.len()` or
    /// `out.len() != points.len() * stride`.
    #[allow(clippy::too_many_arguments)] // batch_multi_range_count_into's, minus the ids
    fn self_join_into(
        &self,
        points: &[P],
        radii: &[f64],
        cap: u32,
        ceil: &[u32],
        threads: usize,
        out: &mut [u32],
        stride: usize,
    ) where
        P: Sync,
    {
        let queries: Vec<u32> = (0..points.len() as u32).collect();
        batch_multi_range_count_into(
            self, points, &queries, radii, cap, ceil, threads, out, stride,
        );
    }

    /// Running totals of the distance evaluations this index has performed
    /// (construction plus all queries so far). The default reports zeros,
    /// meaning "not instrumented"; all in-crate backends override it.
    fn distance_stats(&self) -> DistanceStats {
        DistanceStats::default()
    }

    /// Appends the ids of all indexed elements within `radius` of `q`
    /// (inclusive) to `out`, in ascending id order.
    fn range_ids(&self, q: &P, radius: f64, out: &mut Vec<u32>);

    /// The first `k` indexed elements in `(distance, id)` order from `q`:
    /// among elements at equal distance, the smaller ids come first, so
    /// every backend returns the same ids as [`BruteForce`]. Returns fewer
    /// than `k` if the index is smaller.
    fn knn(&self, q: &P, k: usize) -> Vec<Neighbor>;

    /// The first indexed element in `(distance, id)` order from `q`, or
    /// `None` when the index is empty: `knn(q, 1)`'s one neighbor. This is
    /// the serving path's query (MCCATCH scores a new point by its
    /// distance to the nearest reference inlier, Alg. 4 lines 21–24). The
    /// provided default calls [`knn`](Self::knn); the kd-tree answers it
    /// on its `knn` traversal with one candidate and no heap allocation.
    fn nearest(&self, q: &P) -> Option<Neighbor> {
        self.knn(q, 1).into_iter().next()
    }

    /// The diameter estimate `l` of the indexed elements (Alg. 1 line 2),
    /// from which the fit derives its whole radius grid: the metric's
    /// [`Metric::diameter_bound`] over the indexed ids, with its
    /// evaluations charged to [`distance_stats`](Self::distance_stats).
    /// It does not depend on the tree, so every backend fits the same
    /// grid and gives the same answers; and it is an upper bound on every
    /// distance between two indexed elements, so the grid's last radius
    /// reaches every neighbor.
    fn diameter_estimate(&self) -> f64;
}

/// Builds a [`RangeIndex`] over `ids ⊆ 0..points.len()`.
///
/// MCCATCH builds three trees per run (dataset, outliers, inliers), so
/// construction is abstracted behind a builder; the pipeline in
/// `mccatch-core` is generic over it.
///
/// Indexes are **owned**: they hold id-based node storage plus `Arc`
/// handles to the dataset and metric, so an index (and anything built on
/// top of it, like a fitted detector) has no borrowed lifetime — it can be
/// returned from the stack frame that loaded the data, stored in a
/// long-lived service, and moved across threads. Sharing is cheap: every
/// tree built from the same `Arc<[P]>` reuses the one allocation.
pub trait IndexBuilder<P, M: Metric<P>>: Sync {
    /// The owned index type produced.
    type Index: RangeIndex<P>;

    /// Builds an index over the elements of `points` selected by `ids`.
    fn build(&self, points: Arc<[P]>, ids: Vec<u32>, metric: Arc<M>) -> Self::Index;

    /// Convenience: index the whole dataset.
    fn build_all(&self, points: Arc<[P]>, metric: Arc<M>) -> Self::Index {
        let ids = (0..points.len() as u32).collect();
        self.build(points, ids, metric)
    }

    /// Borrowed-slice convenience for one-shot callers: clones `points`
    /// and `metric` into fresh `Arc`s (an `O(n)` copy, dwarfed by the tree
    /// build itself). Long-lived callers should hold an `Arc<[P]>` and use
    /// [`build`](Self::build) so every tree shares one allocation.
    fn build_ref(&self, points: &[P], ids: Vec<u32>, metric: &M) -> Self::Index
    where
        P: Clone,
        M: Clone,
    {
        self.build(Arc::from(points), ids, Arc::new(metric.clone()))
    }

    /// Borrowed-slice convenience: index the whole dataset (see
    /// [`build_ref`](Self::build_ref) for the copy caveat).
    fn build_all_ref(&self, points: &[P], metric: &M) -> Self::Index
    where
        P: Clone,
        M: Clone,
    {
        self.build_all(Arc::from(points), Arc::new(metric.clone()))
    }

    /// A short, stable identifier for this backend ("brute", "kd", "vp",
    /// "slim"), used to label metrics and to tag persisted model
    /// snapshots so a snapshot is only rebuilt with the index family it
    /// was fitted with. Every backend gives the same answers; the tag
    /// matters because a snapshot's witness compares the fit's distance
    /// evaluations, which count the tree's work.
    fn backend_name(&self) -> &'static str {
        "custom"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordf64_total_order() {
        let mut v = [OrdF64(3.0), OrdF64(f64::NAN), OrdF64(-1.0), OrdF64(0.0)];
        v.sort();
        assert_eq!(v[0].0, -1.0);
        assert_eq!(v[1].0, 0.0);
        assert_eq!(v[2].0, 3.0);
        assert!(v[3].0.is_nan());
    }
}
