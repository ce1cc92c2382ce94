//! A kd-tree fast path for main-memory vector data under the Euclidean
//! metric (the paper's footnote 4: "kd-trees for main-memory-based vector
//! data"). Functionally interchangeable with the Slim-tree through
//! [`RangeIndex`], but several times faster on dense low-dimensional
//! vectors because it partitions coordinates instead of computing metric
//! distances during construction.
//!
//! Its multi-radius counts run one traversal for a *query block*: the
//! points of one leaf in the fit's self-join
//! ([`RangeIndex::self_join_into`]), or a single query point
//! ([`RangeIndex::multi_range_count_within`]). A node's box is bounded
//! against the block's box once per visit, and each reference leaf
//! computes every (query, point) squared distance the block needs.
//!
//! Its nearest-neighbor search ([`RangeIndex::knn`] and
//! [`RangeIndex::nearest`], the serving path's one query per scored
//! point) is one depth-first traversal that visits the nearer child
//! first and keeps its `k` best candidates in `(d², id)` order in a
//! bounded buffer.

use crate::join::batch_multi_range_count_into;
use crate::multi::MultiCounter;
use crate::{
    found, offer, DistanceStats, IndexBuilder, Neighbor, OrdF64, RangeIndex, SmallCounts,
    EMPTY_SLOT,
};
use mccatch_metric::{Euclidean, Metric};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Builder for [`KdTree`]. Only valid with the [`Euclidean`] metric: the
/// bounding-box pruning arithmetic assumes `L_2`.
#[derive(Debug, Clone, Copy)]
pub struct KdTreeBuilder {
    /// Maximum number of points per leaf.
    pub leaf_capacity: usize,
}

impl Default for KdTreeBuilder {
    fn default() -> Self {
        Self { leaf_capacity: 16 }
    }
}

impl<P: AsRef<[f64]> + Send + Sync> IndexBuilder<P, Euclidean> for KdTreeBuilder {
    type Index = KdTree<P>;

    fn build(&self, points: Arc<[P]>, ids: Vec<u32>, _metric: Arc<Euclidean>) -> Self::Index {
        KdTree::build(points, ids, self.leaf_capacity)
    }

    fn backend_name(&self) -> &'static str {
        "kd"
    }
}

#[derive(Debug)]
struct KdNode {
    /// Number of points below this node.
    count: u32,
    kind: KdKind,
}

#[derive(Debug)]
enum KdKind {
    /// Range into the permuted id array.
    Leaf {
        start: u32,
        end: u32,
    },
    Split {
        left: u32,
        right: u32,
    },
}

/// Median-split kd-tree over `points[ids]`; owns an `Arc` handle to the
/// dataset, so it has no lifetime.
#[derive(Debug)]
pub struct KdTree<P> {
    points: Arc<[P]>,
    ids: Vec<u32>,
    nodes: Vec<KdNode>,
    /// Every node's axis-aligned bounding box, `2 * dim` values per node
    /// in node order, interleaved `[min0, max0, min1, max1, ...]`.
    boxes: Vec<f64>,
    /// The leaves' coordinates, one dimension-major block per leaf: the
    /// leaf over `ids[start..end]` keeps coordinate `d` of point
    /// `ids[start + j]` at `blocks[start * dim + d * (end - start) + j]`,
    /// so the blocks tile the array in `ids` order (`n * dim` values).
    /// The multi-radius traversal reads only these, for a query block's
    /// coordinates as well as a reference leaf's, and so does the
    /// nearest-neighbor search; the per-radius queries read `points`
    /// through [`Self::dist2`].
    blocks: Vec<f64>,
    dim: usize,
    /// Point-distance evaluations performed by queries (construction
    /// partitions coordinates and computes none). Relaxed ordering: read
    /// only after joins complete; queries batch their updates.
    evals: AtomicU64,
}

impl<P: AsRef<[f64]>> KdTree<P> {
    /// Builds the tree. Splits the widest bounding-box dimension at the
    /// median; wholly deterministic.
    pub fn build(points: impl Into<Arc<[P]>>, mut ids: Vec<u32>, leaf_capacity: usize) -> Self {
        let points = points.into();
        let leaf_capacity = leaf_capacity.max(1);
        let dim = points.first().map_or(0, |p| p.as_ref().len());
        let mut tree = Self {
            points,
            ids: Vec::new(),
            nodes: Vec::new(),
            boxes: Vec::new(),
            blocks: vec![0.0; ids.len() * dim],
            dim,
            evals: AtomicU64::new(0),
        };
        if !ids.is_empty() {
            let n = ids.len();
            tree.build_rec(&mut ids, 0, n, leaf_capacity);
            tree.ids = ids;
        }
        tree
    }

    /// Builds the subtree over `ids[start..end]`, returning its node index.
    fn build_rec(&mut self, ids: &mut [u32], start: usize, end: usize, cap: usize) -> u32 {
        let idx = self.nodes.len() as u32;
        let at = self.boxes.len();
        self.boxes
            .extend((0..self.dim).flat_map(|_| [f64::INFINITY, f64::NEG_INFINITY]));
        let bbox = &mut self.boxes[at..];
        for &id in &ids[start..end] {
            let c = self.points[id as usize].as_ref();
            for d in 0..self.dim {
                bbox[2 * d] = bbox[2 * d].min(c[d]);
                bbox[2 * d + 1] = bbox[2 * d + 1].max(c[d]);
            }
        }
        let count = (end - start) as u32;
        if end - start <= cap {
            // Ancestors are done permuting this range: lay out its block.
            let len = end - start;
            let block = &mut self.blocks[start * self.dim..end * self.dim];
            for (j, &id) in ids[start..end].iter().enumerate() {
                let c = &self.points[id as usize].as_ref()[..self.dim];
                for (d, &x) in c.iter().enumerate() {
                    block[d * len + j] = x;
                }
            }
            self.nodes.push(KdNode {
                count,
                kind: KdKind::Leaf {
                    start: start as u32,
                    end: end as u32,
                },
            });
            return idx;
        }
        // Split the widest dimension at the median.
        let bbox = &self.boxes[at..];
        let split_dim = (0..self.dim)
            .max_by(|&a, &b| {
                OrdF64(bbox[2 * a + 1] - bbox[2 * a]).cmp(&OrdF64(bbox[2 * b + 1] - bbox[2 * b]))
            })
            .unwrap_or(0);
        let mid = (end - start) / 2;
        let points = Arc::clone(&self.points);
        ids[start..end].select_nth_unstable_by(mid, |&a, &b| {
            OrdF64(points[a as usize].as_ref()[split_dim])
                .cmp(&OrdF64(points[b as usize].as_ref()[split_dim]))
                .then(a.cmp(&b))
        });
        // Reserve this node's slot before recursing so parents precede children.
        self.nodes.push(KdNode {
            count,
            kind: KdKind::Leaf { start: 0, end: 0 }, // patched below
        });
        let left = self.build_rec(ids, start, start + mid, cap);
        let right = self.build_rec(ids, start + mid, end, cap);
        self.nodes[idx as usize].kind = KdKind::Split { left, right };
        idx
    }

    /// The bounding box of `node`.
    #[inline]
    fn bbox(&self, node: u32) -> &[f64] {
        let width = 2 * self.dim;
        &self.boxes[node as usize * width..][..width]
    }

    /// Squared distance from `q` to the nearest point of `bbox` (0 inside).
    fn min_dist2(&self, q: &[f64], bbox: &[f64]) -> f64 {
        let mut s = 0.0;
        for d in 0..self.dim {
            let v = near_gap(q[d], bbox[2 * d], bbox[2 * d + 1]);
            s += v * v;
        }
        s
    }

    /// Squared distance from `q` to the farthest corner of `bbox`.
    fn max_dist2(&self, q: &[f64], bbox: &[f64]) -> f64 {
        let mut s = 0.0;
        for d in 0..self.dim {
            let v = far_gap(q[d], bbox[2 * d], bbox[2 * d + 1]);
            s += v * v;
        }
        s
    }

    #[inline]
    fn dist2(&self, q: &[f64], id: u32) -> f64 {
        let c = self.points[id as usize].as_ref();
        q.iter()
            .zip(c)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    fn count_rec(&self, node: u32, q: &[f64], r2: f64, evals: &mut u64) -> usize {
        let n = &self.nodes[node as usize];
        let bbox = self.bbox(node);
        if self.min_dist2(q, bbox) > r2 {
            return 0;
        }
        if self.max_dist2(q, bbox) <= r2 {
            // Covered-subtree shortcut (count-only principle).
            return n.count as usize;
        }
        match n.kind {
            KdKind::Leaf { start, end } => {
                *evals += (end - start) as u64;
                self.ids[start as usize..end as usize]
                    .iter()
                    .filter(|&&id| self.dist2(q, id) <= r2)
                    .count()
            }
            KdKind::Split { left, right } => {
                self.count_rec(left, q, r2, evals) + self.count_rec(right, q, r2, evals)
            }
        }
    }

    /// The multi-radius descent of one query block over the window
    /// `[lo, hi)` of squared radii `r2` (ascending). The window narrows as
    /// the descent proves columns resolved for the whole block: columns
    /// whose radius cannot reach this box from the block's box contribute
    /// nothing (advance `lo`), columns whose radius covers every pair take
    /// the subtree cardinality in one bulk-add (shrink `hi`), and columns
    /// at or past every counter's watermark are decided, OVER or a settled
    /// crossing (clamp `hi`). `(near, far)` are this node's box-to-box
    /// bounds ([`box_bounds2`]), computed by the parent (`near` orders the
    /// children) and passed down so each box is bounded once per visit.
    /// They never contradict a pair's own squared distance, so the counts
    /// match the per-radius path bit for bit; for a block of one point
    /// they are [`Self::count_rec`]'s bounds exactly.
    fn join_rec(
        &self,
        node: u32,
        block: &mut QueryBlock,
        r2: &[f64],
        mut lo: usize,
        mut hi: usize,
        (near, far): (f64, f64),
    ) {
        hi = hi.min(block.hi_cap);
        while lo < hi && near > r2[lo] {
            lo += 1;
        }
        if lo >= hi {
            return;
        }
        let n = &self.nodes[node as usize];
        let mut nh = hi;
        while nh > lo && far <= r2[nh - 1] {
            nh -= 1;
        }
        if nh < hi {
            block.add_subtree(nh, hi, n.count);
            hi = nh.min(block.hi_cap);
            if lo >= hi {
                return;
            }
        }
        match n.kind {
            KdKind::Leaf { start, end } => {
                let (start, end) = (start as usize, end as usize);
                let points = &self.blocks[start * self.dim..end * self.dim];
                block.add_leaf(points, end - start, r2, lo, hi);
            }
            KdKind::Split { left, right } => {
                // Nearest child first: the block's dense neighborhood is
                // what pushes the running counts past the cap, so visiting
                // it early collapses the window to the small radii before
                // the expensive far subtrees are reached.
                let bl = box_bounds2(block.bbox, self.bbox(left));
                let br = box_bounds2(block.bbox, self.bbox(right));
                let ((near, near_b), (far, far_b)) = if bl.0 <= br.0 {
                    ((left, bl), (right, br))
                } else {
                    ((right, br), (left, bl))
                };
                self.join_rec(near, block, r2, lo, hi, near_b);
                self.join_rec(far, block, r2, lo, hi, far_b);
            }
        }
    }

    /// Runs `block` down the whole tree.
    fn descend(&self, block: &mut QueryBlock, r2: &[f64]) {
        let root = box_bounds2(block.bbox, self.bbox(0));
        self.join_rec(0, block, r2, 0, r2.len(), root);
    }

    /// The blocked self-join's unit of work: the points of the leaf
    /// `node` descend together, and their finished rows land in `rows`
    /// (`m` per point, in `ids` order). Returns the block's distance
    /// evaluations.
    fn join_leaf(&self, node: u32, r2: &[f64], cap: u32, ceil: &[u32], rows: &mut [u32]) -> u64 {
        let KdKind::Leaf { start, end } = self.nodes[node as usize].kind else {
            unreachable!("query blocks are leaves");
        };
        let (start, end) = (start as usize, end as usize);
        let m = r2.len();
        let mut block = QueryBlock {
            bbox: self.bbox(node),
            coords: &self.blocks[start * self.dim..end * self.dim],
            stride: end - start,
            counters: (start..end)
                .map(|_| MultiCounter::new(m, cap, ceil))
                .collect(),
            hi_cap: m,
        };
        self.descend(&mut block, r2);
        let mut evals = 0;
        for (row, counter) in rows.chunks_exact_mut(m).zip(&block.counters) {
            row.copy_from_slice(&counter.finish());
            evals += counter.evals;
        }
        evals
    }

    /// Whether `points` is the tree's own dataset and every point of it is
    /// indexed: the blocked self-join's premise, since its query blocks
    /// are the tree's leaves.
    fn indexes_all_of(&self, points: &[P]) -> bool {
        if self.ids.len() != points.len() || !std::ptr::eq(&*self.points, points) {
            return false;
        }
        let mut seen = vec![false; points.len()];
        self.ids
            .iter()
            .all(|&id| !std::mem::replace(&mut seen[id as usize], true))
    }

    /// Fills `slots` (see [`offer`]) with the `slots.len()` nearest
    /// indexed points to `q`.
    fn nearest_into(&self, q: &[f64], slots: &mut [(f64, u32)]) {
        if self.ids.is_empty() || slots.is_empty() {
            return;
        }
        let mut evals = 0;
        self.nearest_rec(0, &q[..self.dim], 0.0, slots, &mut evals);
        self.evals.fetch_add(evals, Ordering::Relaxed);
    }

    /// Depth-first nearest-neighbor search below `node`, whose box lies
    /// `bound` (squared) or farther from `q`. The subtree is skipped only
    /// when `bound` is strictly greater than the last slot's `d²`, so a
    /// point that ties it with a smaller id is still found; otherwise a
    /// leaf offers its points and a split visits the nearer child first,
    /// by [`Self::min_dist2`].
    fn nearest_rec(
        &self,
        node: u32,
        q: &[f64],
        bound: f64,
        slots: &mut [(f64, u32)],
        evals: &mut u64,
    ) {
        if bound > slots[slots.len() - 1].0 {
            return;
        }
        match self.nodes[node as usize].kind {
            KdKind::Leaf { start, end } => {
                *evals += u64::from(end - start);
                self.offer_leaf(q, start as usize, end as usize, slots);
            }
            KdKind::Split { left, right } => {
                let bl = self.min_dist2(q, self.bbox(left));
                let br = self.min_dist2(q, self.bbox(right));
                let ((near, near_b), (far, far_b)) = if bl <= br {
                    ((left, bl), (right, br))
                } else {
                    ((right, br), (left, bl))
                };
                self.nearest_rec(near, q, near_b, slots, evals);
                self.nearest_rec(far, q, far_b, slots, evals);
            }
        }
    }

    /// Offers every point of the leaf over `ids[start..end]` to `slots`,
    /// with squared distances from [`leaf_dist2`], [`TILE`] points at a
    /// time.
    fn offer_leaf(&self, q: &[f64], start: usize, end: usize, slots: &mut [(f64, u32)]) {
        let len = end - start;
        let block = &self.blocks[start * self.dim..end * self.dim];
        for (j, ids) in self.ids[start..end].chunks(TILE).enumerate() {
            let mut tile = [0.0f64; TILE];
            let dist = &mut tile[..ids.len()];
            leaf_dist2(block, len, j * TILE, q.iter().copied(), dist);
            for (&d2, &id) in dist.iter().zip(ids) {
                offer(slots, d2, id);
            }
        }
    }

    fn ids_rec(&self, node: u32, q: &[f64], r2: f64, out: &mut Vec<u32>, evals: &mut u64) {
        let n = &self.nodes[node as usize];
        let bbox = self.bbox(node);
        if self.min_dist2(q, bbox) > r2 {
            return;
        }
        if self.max_dist2(q, bbox) <= r2 {
            self.collect(node, out);
            return;
        }
        match n.kind {
            KdKind::Leaf { start, end } => {
                *evals += (end - start) as u64;
                out.extend(
                    self.ids[start as usize..end as usize]
                        .iter()
                        .copied()
                        .filter(|&id| self.dist2(q, id) <= r2),
                )
            }
            KdKind::Split { left, right } => {
                self.ids_rec(left, q, r2, out, evals);
                self.ids_rec(right, q, r2, out, evals);
            }
        }
    }

    fn collect(&self, node: u32, out: &mut Vec<u32>) {
        match self.nodes[node as usize].kind {
            KdKind::Leaf { start, end } => {
                out.extend_from_slice(&self.ids[start as usize..end as usize])
            }
            KdKind::Split { left, right } => {
                self.collect(left, out);
                self.collect(right, out);
            }
        }
    }
}

/// Points per tile of the nearest-neighbor leaf scan: the default leaf
/// capacity, so a default leaf is one tile.
const TILE: usize = 16;

/// One query's squared distances to the points `from..from + out.len()`
/// of a leaf whose `len` points lie dimension-major in `block` (coordinate
/// `d` of point `j` at `block[d * len + j]`), summed into `out`, which the
/// caller zeroes. `q` yields the query's coordinates in dimension order. Dimension-outer, so the
/// inner loop runs across points and vectorizes, while each point still
/// sums its coordinates in dimension order: every entry is bit-identical
/// to [`KdTree::dist2`]. The counting tile and the nearest-neighbor scan
/// both compute their distances here.
#[inline]
fn leaf_dist2(
    block: &[f64],
    len: usize,
    from: usize,
    q: impl Iterator<Item = f64>,
    out: &mut [f64],
) {
    for (column, x) in block.chunks_exact(len).zip(q) {
        for (s, &c) in out.iter_mut().zip(&column[from..]) {
            let t = x - c;
            *s += t * t;
        }
    }
}

/// A found candidate as a [`Neighbor`].
fn neighbor(&(d2, id): &(f64, u32)) -> Neighbor {
    Neighbor {
        id,
        dist: d2.sqrt(),
    }
}

/// Distance from coordinate `x` to the interval `[lo, hi]` (0 inside).
/// Branch-free: at most one term is positive, and a zero term adds
/// nothing, so this is `lo − x` below the interval, `x − hi` above it and
/// 0 inside, the gap [`box_bounds2`] takes for a one-point box.
#[inline]
fn near_gap(x: f64, lo: f64, hi: f64) -> f64 {
    (lo - x).max(0.0) + (x - hi).max(0.0)
}

/// Distance from coordinate `x` to the farther end of `[lo, hi]`.
#[inline]
fn far_gap(x: f64, lo: f64, hi: f64) -> f64 {
    (x - lo).abs().max((x - hi).abs())
}

/// The squared bound a query compares squared distances against: the
/// largest `s` with `fl(√s) ≤ radius`, so `d² ≤ s` exactly when the
/// [`Euclidean`] distance `fl(√d²)` is within `radius`, as the metric
/// backends test it (`radius²` itself can round below a distance that
/// meets the radius: `(√3)²` is `2.9999999999999996`). `-∞` for a
/// negative radius, which no distance meets; `-0.0` still counts exact
/// duplicates, and non-finite radii square as they are.
#[inline]
fn squared(radius: f64) -> f64 {
    if radius < 0.0 {
        return f64::NEG_INFINITY;
    }
    let mut s = radius * radius;
    if !radius.is_finite() {
        return s;
    }
    // `fl(√·)` is monotone and `s` is within a few ulps of the answer.
    while s.sqrt() > radius {
        s = s.next_down();
    }
    while s.next_up().sqrt() <= radius {
        s = s.next_up();
    }
    s
}

/// Squared near and far bounds between the boxes `a` and `b` (both
/// interleaved `[min0, max0, min1, max1, ...]`), summed in dimension
/// order: no computed squared distance between a point of `a` and a point
/// of `b` is below `near` or above `far`. IEEE subtraction rounds
/// monotonically, so per dimension the near gap never exceeds
/// `|fl(q_d − p_d)|` and the far gap never falls below it, and squaring
/// and summing in the same order keep both orders. When `a` is one point
/// `[q, q]`, the gaps are [`near_gap`] and [`far_gap`] bit for bit.
#[inline]
fn box_bounds2(a: &[f64], b: &[f64]) -> (f64, f64) {
    let (mut near, mut far) = (0.0, 0.0);
    for (a, b) in a.chunks_exact(2).zip(b.chunks_exact(2)) {
        let (alo, ahi, blo, bhi) = (a[0], a[1], b[0], b[1]);
        let v = if bhi < alo {
            alo - bhi
        } else if blo > ahi {
            blo - ahi
        } else {
            0.0
        };
        near += v * v;
        let w = (ahi - blo).abs().max((bhi - alo).abs());
        far += w * w;
    }
    (near, far)
}

/// Queries that descend the kd-tree together: the points of one leaf in
/// the blocked self-join, or one query point. They share one box, so a
/// node's box is bounded once per block, while each query keeps its own
/// counter and watermark.
struct QueryBlock<'b, 'c> {
    /// The block's bounding box, interleaved like [`KdTree`]'s boxes.
    bbox: &'b [f64],
    /// Dimension-major query coordinates: coordinate `d` of query `i` is
    /// `coords[d * stride + i]`.
    coords: &'b [f64],
    stride: usize,
    /// One counter per query.
    counters: Vec<MultiCounter<'c>>,
    /// The largest `hi_cap()` among `counters`: the block's window.
    hi_cap: usize,
}

impl QueryBlock<'_, '_> {
    /// Re-derives [`Self::hi_cap`] after the counters' watermarks moved.
    fn refresh(&mut self) {
        self.hi_cap = self
            .counters
            .iter()
            .map(MultiCounter::hi_cap)
            .max()
            .unwrap_or(0);
    }

    /// Bulk-adds a subtree of `count` points that every pair covers at
    /// columns `[lo, hi)`, each counter clamped to its own watermark.
    fn add_subtree(&mut self, lo: usize, hi: usize, count: u32) {
        for counter in &mut self.counters {
            let chi = hi.min(counter.hi_cap());
            if lo < chi {
                counter.add_subtree(lo, chi, count);
                counter.bump();
            }
        }
        self.refresh();
    }

    /// One reference leaf's tile: for every query whose own window
    /// `[lo, min(hi, hi_cap))` is not empty, the squared distances to the
    /// leaf's `len` points (`points`, dimension-major) from
    /// [`leaf_dist2`], bucketed into that window. A query is charged one
    /// evaluation per pair it computes.
    fn add_leaf(&mut self, points: &[f64], len: usize, r2: &[f64], lo: usize, hi: usize) {
        for (i, counter) in self.counters.iter_mut().enumerate() {
            let chi = hi.min(counter.hi_cap());
            if lo >= chi {
                continue;
            }
            let q = self.coords[i..].iter().step_by(self.stride).copied();
            let dist = counter.scratch_mut();
            dist.resize(len, 0.0);
            leaf_dist2(points, len, 0, q, dist);
            counter.evals += len as u64;
            counter.add_leaf(&r2[lo..chi], lo, chi);
        }
        self.refresh();
    }
}

impl<P: AsRef<[f64]> + Send + Sync> RangeIndex<P> for KdTree<P> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn range_count(&self, q: &P, radius: f64) -> usize {
        if self.ids.is_empty() {
            return 0;
        }
        let mut evals = 0;
        let count = self.count_rec(0, q.as_ref(), squared(radius), &mut evals);
        self.evals.fetch_add(evals, Ordering::Relaxed);
        count
    }

    /// One descent fills every radius column: the blocked self-join's
    /// traversal over a block of one point (see the private `join_rec`).
    fn multi_range_count_within(
        &self,
        q: &P,
        radii: &[f64],
        cap: u32,
        ceil: &[u32],
    ) -> SmallCounts {
        debug_assert!(radii.windows(2).all(|w| w[0] <= w[1]));
        let counter = MultiCounter::new(radii.len(), cap, ceil);
        if self.ids.is_empty() || radii.is_empty() {
            return counter.finish();
        }
        let q = &q.as_ref()[..self.dim];
        let bbox: Vec<f64> = q.iter().flat_map(|&x| [x, x]).collect();
        let r2: Vec<f64> = radii.iter().map(|&r| squared(r)).collect();
        let mut block = QueryBlock {
            bbox: &bbox,
            coords: q,
            stride: 1,
            counters: vec![counter],
            hi_cap: radii.len(),
        };
        self.descend(&mut block, &r2);
        let counter = &block.counters[0];
        self.evals.fetch_add(counter.evals, Ordering::Relaxed);
        counter.finish()
    }

    /// The blocked self-join: the points of each leaf descend the tree
    /// together as one query block, so each node's box is bounded once
    /// per leaf instead of once per point, and a reference leaf computes
    /// the block's distances as one tile. Workers take whole leaves in
    /// leaf order and fill a leaf-ordered row buffer, which one pass then
    /// copies to the rows of `out`, so the table and the evaluations are
    /// the same for every thread count. Falls back to the per-query
    /// default unless the tree indexes all of `points`, the very slice
    /// it was built over.
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
        if !self.indexes_all_of(points) {
            let queries: Vec<u32> = (0..points.len() as u32).collect();
            return batch_multi_range_count_into(
                self, points, &queries, radii, cap, ceil, threads, out, stride,
            );
        }
        let (n, m) = (points.len(), radii.len());
        assert!(stride >= m, "stride {stride} narrower than {m} radii");
        assert_eq!(out.len(), n * stride, "output size mismatch");
        if n == 0 || m == 0 {
            return;
        }
        debug_assert!(radii.windows(2).all(|w| w[0] <= w[1]));
        let r2: Vec<f64> = radii.iter().map(|&r| squared(r)).collect();
        // Leaves in node order tile `ids` in order: split the row buffer
        // into one run of rows per leaf.
        let mut rows = vec![0u32; n * m];
        let mut jobs = Vec::new();
        let mut rest = rows.as_mut_slice();
        for (node, kd_node) in self.nodes.iter().enumerate() {
            if let KdKind::Leaf { start, end } = kd_node.kind {
                let (head, tail) = rest.split_at_mut((end - start) as usize * m);
                jobs.push((node as u32, head));
                rest = tail;
            }
        }
        let threads = threads.clamp(1, jobs.len());
        let evals = if threads == 1 || n < 256 {
            jobs.into_iter()
                .map(|(node, rows)| self.join_leaf(node, &r2, cap, ceil, rows))
                .sum()
        } else {
            let jobs = Mutex::new(jobs.into_iter());
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut evals = 0;
                            loop {
                                let job = jobs.lock().expect("no worker panicked").next();
                                let Some((node, rows)) = job else {
                                    return evals;
                                };
                                evals += self.join_leaf(node, &r2, cap, ceil, rows);
                            }
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("join worker panicked"))
                    .sum::<u64>()
            })
        };
        self.evals.fetch_add(evals, Ordering::Relaxed);
        for (row, &id) in rows.chunks_exact(m).zip(&self.ids) {
            out[id as usize * stride..][..m].copy_from_slice(row);
        }
    }

    fn range_ids(&self, q: &P, radius: f64, out: &mut Vec<u32>) {
        if self.ids.is_empty() {
            return;
        }
        let start = out.len();
        let mut evals = 0;
        self.ids_rec(0, q.as_ref(), squared(radius), out, &mut evals);
        self.evals.fetch_add(evals, Ordering::Relaxed);
        out[start..].sort_unstable();
    }

    fn distance_stats(&self) -> DistanceStats {
        DistanceStats {
            evals: self.evals.load(Ordering::Relaxed),
        }
    }

    /// The depth-first traversal (see the private `nearest_rec`) with a
    /// buffer of `k` candidates.
    fn knn(&self, q: &P, k: usize) -> Vec<Neighbor> {
        let mut slots = vec![EMPTY_SLOT; k.min(self.ids.len())];
        self.nearest_into(q.as_ref(), &mut slots);
        found(&slots).iter().map(neighbor).collect()
    }

    /// The traversal of [`knn`](RangeIndex::knn) with `k = 1`, its one
    /// candidate on the stack.
    fn nearest(&self, q: &P) -> Option<Neighbor> {
        let mut slot = [EMPTY_SLOT];
        self.nearest_into(q.as_ref(), &mut slot);
        found(&slot).first().map(neighbor)
    }

    /// [`Euclidean`]'s bound: the bounding-box diagonal, no evaluations.
    fn diameter_estimate(&self) -> f64 {
        Euclidean.diameter_bound(&self.points, &self.ids).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_metric::{Euclidean, Metric};

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .flat_map(|x| (0..n).map(move |y| vec![x as f64, y as f64]))
            .collect()
    }

    fn kd(pts: &[Vec<f64>]) -> KdTree<Vec<f64>> {
        KdTree::build(pts.to_vec(), (0..pts.len() as u32).collect(), 4)
    }

    #[test]
    fn range_count_matches_brute_force() {
        let pts = grid(12);
        let t = kd(&pts);
        for q in [0usize, 17, 77, 143] {
            for r in [0.0, 1.0, 1.5, 3.2, 20.0] {
                let want = pts
                    .iter()
                    .filter(|p| Euclidean.distance(*p, &pts[q]) <= r)
                    .count();
                assert_eq!(t.range_count(&pts[q], r), want, "q={q} r={r}");
            }
        }
    }

    #[test]
    fn range_ids_sorted() {
        let pts = grid(5);
        let t = kd(&pts);
        let mut out = Vec::new();
        t.range_ids(&vec![0.0, 0.0], 1.0, &mut out);
        assert_eq!(out, vec![0, 1, 5]);
    }

    #[test]
    fn knn_matches_brute_force_ordering() {
        let pts = grid(6);
        let t = kd(&pts);
        let nn = t.knn(&vec![2.2, 3.1], 4);
        // Brute force.
        let mut all: Vec<(f64, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (Euclidean.distance(p, &vec![2.2, 3.1]), i as u32))
            .collect();
        all.sort_by(|a, b| OrdF64(a.0).cmp(&OrdF64(b.0)).then(a.1.cmp(&b.1)));
        for (got, want) in nn.iter().zip(&all) {
            assert_eq!(got.id, want.1);
            assert!((got.dist - want.0).abs() < 1e-12);
        }
    }

    #[test]
    fn diameter_is_bbox_diagonal() {
        let pts = grid(4); // 0..3 in both dims
        let t = kd(&pts);
        assert!((t.diameter_estimate() - (18.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_tree() {
        let pts: Vec<Vec<f64>> = vec![];
        let t = KdTree::build(pts.clone(), vec![], 4);
        assert_eq!(t.range_count(&vec![0.0, 0.0], 1.0), 0);
        assert_eq!(t.diameter_estimate(), 0.0);
        assert!(t.knn(&vec![0.0, 0.0], 1).is_empty());
    }

    #[test]
    fn subset_ids_preserved() {
        let pts = grid(4);
        let t = KdTree::build(pts.clone(), vec![5, 10, 15], 2);
        let mut out = Vec::new();
        t.range_ids(&pts[10], 0.0, &mut out);
        assert_eq!(out, vec![10]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicates_counted() {
        let pts = vec![vec![3.0, 3.0]; 9];
        let t = kd(&pts);
        assert_eq!(t.range_count(&vec![3.0, 3.0], 0.0), 9);
    }

    #[test]
    fn high_dimensional_counts() {
        // 20-dim points on a diagonal.
        let pts: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64; 20]).collect();
        let t = KdTree::build(pts.clone(), (0..64).collect(), 4);
        // Neighbor at diagonal step 1 is at distance sqrt(20).
        let r = (20.0f64).sqrt() + 1e-9;
        assert_eq!(t.range_count(&pts[10], r), 3);
    }

    /// Per dimension the interval `[lo, lo + 30·w²]`, interleaved, with
    /// its ends rounded onto the integer lattice when `lattice`, so that
    /// gaps tie.
    fn interval_box(lo: &[f64], w: &[f64], lattice: bool) -> Vec<f64> {
        let snap = |x: f64| if lattice { x.round() } else { x };
        lo.iter()
            .zip(w)
            .flat_map(|(&l, &w)| [snap(l), snap(l + 30.0 * w * w)])
            .collect()
    }

    /// The point at fraction `at` across `bbox` in each dimension.
    fn inside(bbox: &[f64], at: &[f64], lattice: bool) -> Vec<f64> {
        let snap = |x: f64| if lattice { x.round() } else { x };
        bbox.chunks_exact(2)
            .zip(at)
            .map(|(b, &t)| snap(b[0] + t * (b[1] - b[0])).clamp(b[0], b[1]))
            .collect()
    }

    fn coords() -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-50.0..50.0f64, 4)
    }

    fn fractions() -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
        proptest::collection::vec(0.0..1.0f64, 4)
    }

    /// A special value (zeros, infinities, NaN) or any bit pattern.
    fn float() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::strategy::Strategy;
        (0usize..10, 0u64..u64::MAX).prop_map(|(pick, bits)| {
            const SPECIAL: [f64; 6] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.0];
            SPECIAL.get(pick).copied().unwrap_or(f64::from_bits(bits))
        })
    }

    proptest::proptest! {
        /// The branch-free gap is the branching one bit for bit, on every
        /// interval a box can hold: `lo <= hi`, NaN ends, and the empty
        /// `[∞, −∞]` of a dimension whose coordinates are all NaN.
        #[test]
        fn near_gap_is_the_branching_gap(x in float(), a in float(), b in float(), empty in 0u8..8) {
            let (lo, hi) = match (empty, a <= b) {
                (0, _) => (f64::INFINITY, f64::NEG_INFINITY),
                (_, true) => (a, b),
                (_, false) => (b, a),
            };
            let branching = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            proptest::prop_assert_eq!(near_gap(x, lo, hi).to_bits(), branching.to_bits());
        }

        #[test]
        fn box_bounds_of_one_point_are_its_point_bounds(
            q in coords(),
            lo in coords(),
            width in fractions(),
            lattice in 0u8..2,
        ) {
            let bbox = interval_box(&lo, &width, lattice == 1);
            let point: Vec<f64> = q.iter().flat_map(|&x| [x, x]).collect();
            let (near, far) = box_bounds2(&point, &bbox);
            let (mut want_near, mut want_far) = (0.0f64, 0.0f64);
            for (d, b) in bbox.chunks_exact(2).enumerate() {
                let v = near_gap(q[d], b[0], b[1]);
                want_near += v * v;
                let w = far_gap(q[d], b[0], b[1]);
                want_far += w * w;
            }
            proptest::prop_assert_eq!(near.to_bits(), want_near.to_bits());
            proptest::prop_assert_eq!(far.to_bits(), want_far.to_bits());
        }

        #[test]
        fn box_bounds_never_contradict_a_pair(
            (alo, blo) in (coords(), coords()),
            (aw, bw) in (fractions(), fractions()),
            (at, bt) in (fractions(), fractions()),
            lattice in 0u8..2,
        ) {
            let a = interval_box(&alo, &aw, lattice == 1);
            let b = interval_box(&blo, &bw, lattice == 1);
            let (q, p) = (inside(&a, &at, lattice == 1), inside(&b, &bt, lattice == 1));
            let (near, far) = box_bounds2(&a, &b);
            let d2 = q.iter().zip(&p).fold(0.0, |s, (x, y)| {
                let t = x - y;
                s + t * t
            });
            proptest::prop_assert!(near <= d2 && d2 <= far, "{} <= {} <= {}", near, d2, far);
        }
    }
}
