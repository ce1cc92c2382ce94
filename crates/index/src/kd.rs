//! A kd-tree fast path for main-memory vector data under the Euclidean
//! metric (the paper's footnote 4: "kd-trees for main-memory-based vector
//! data"). Functionally interchangeable with the Slim-tree through
//! [`RangeIndex`], but several times faster on dense low-dimensional
//! vectors because it partitions coordinates instead of computing metric
//! distances during construction.

use crate::multi::MultiCounter;
use crate::{DistanceStats, IndexBuilder, Neighbor, OrdF64, RangeIndex, SmallCounts};
use mccatch_metric::Euclidean;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// The multi-radius leaf scan reads only these; the per-radius
    /// queries and `knn` read `points` through [`Self::dist2`].
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

    /// [`Self::min_dist2`] and [`Self::max_dist2`] in one pass over the
    /// box, each summed in the same order, so both are bit-identical.
    fn bounds2(&self, q: &[f64], bbox: &[f64]) -> (f64, f64) {
        let (mut near, mut far) = (0.0, 0.0);
        for d in 0..self.dim {
            let (lo, hi) = (bbox[2 * d], bbox[2 * d + 1]);
            let v = near_gap(q[d], lo, hi);
            near += v * v;
            let w = far_gap(q[d], lo, hi);
            far += w * w;
        }
        (near, far)
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

    /// Single-traversal multi-radius count over the window `[lo, hi)` of
    /// squared radii `r2` (ascending). The window narrows as the descent
    /// proves columns resolved: columns whose radius cannot reach this
    /// bounding box contribute nothing (advance `lo`), columns whose
    /// radius covers the whole box take the subtree cardinality in one
    /// bulk-add (shrink `hi`), and columns at or past the counter's
    /// watermark are decided, OVER or a settled crossing (clamp `hi`). The
    /// pruning predicates are the same as [`Self::count_rec`]'s, over the
    /// same box bounds, so the counts match the per-radius path bit for
    /// bit.
    /// `(min2, max2)` are this node's squared bounding-box bounds
    /// ([`Self::bounds2`]), computed by the parent (`min2` orders the
    /// children) and passed down so each box is evaluated exactly once.
    #[allow(clippy::too_many_arguments)] // recursion state, not an API
    fn multi_rec(
        &self,
        node: u32,
        q: &[f64],
        r2: &[f64],
        mut lo: usize,
        mut hi: usize,
        (min2, max2): (f64, f64),
        counter: &mut MultiCounter,
    ) {
        hi = hi.min(counter.hi_cap());
        while lo < hi && min2 > r2[lo] {
            lo += 1;
        }
        if lo >= hi {
            return;
        }
        let n = &self.nodes[node as usize];
        let mut nh = hi;
        while nh > lo && max2 <= r2[nh - 1] {
            nh -= 1;
        }
        if nh < hi {
            counter.add_subtree(nh, hi, n.count);
            counter.bump();
            hi = nh.min(counter.hi_cap());
            if lo >= hi {
                return;
            }
        }
        match n.kind {
            KdKind::Leaf { start, end } => {
                // Each point's squared distance once per visit, into the
                // counter's scratch, then bucketed into every window
                // column. Dimension-outer over the leaf's block, so the
                // inner loop runs across points and vectorizes, while each
                // point still sums its coordinates in order: the distances
                // are bit-identical to `dist2`.
                let (start, end) = (start as usize, end as usize);
                let len = end - start;
                let block = &self.blocks[start * self.dim..end * self.dim];
                let dist = counter.scratch_mut();
                dist.resize(len, 0.0);
                for (column, &x) in block.chunks_exact(len).zip(q) {
                    for (s, &c) in dist.iter_mut().zip(column) {
                        let t = x - c;
                        *s += t * t;
                    }
                }
                counter.evals += len as u64;
                counter.add_leaf(&r2[lo..hi], lo, hi);
            }
            KdKind::Split { left, right } => {
                // Nearest child first: the query's dense neighborhood is
                // what pushes the running counts past the cap, so visiting
                // it early collapses the window to the small radii before
                // the expensive far subtrees are reached.
                let bl = self.bounds2(q, self.bbox(left));
                let br = self.bounds2(q, self.bbox(right));
                let ((near, near_b), (far, far_b)) = if bl.0 <= br.0 {
                    ((left, bl), (right, br))
                } else {
                    ((right, br), (left, bl))
                };
                self.multi_rec(near, q, r2, lo, hi, near_b, counter);
                self.multi_rec(far, q, r2, lo, hi, far_b, counter);
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

/// Distance from coordinate `x` to the interval `[lo, hi]` (0 inside).
#[inline]
fn near_gap(x: f64, lo: f64, hi: f64) -> f64 {
    if x < lo {
        lo - x
    } else if x > hi {
        x - hi
    } else {
        0.0
    }
}

/// Distance from coordinate `x` to the farther end of `[lo, hi]`.
#[inline]
fn far_gap(x: f64, lo: f64, hi: f64) -> f64 {
    (x - lo).abs().max((x - hi).abs())
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
        let count = self.count_rec(0, q.as_ref(), radius * radius, &mut evals);
        self.evals.fetch_add(evals, Ordering::Relaxed);
        count
    }

    /// One descent fills every radius column (see the private `multi_rec`).
    fn multi_range_count_within(
        &self,
        q: &P,
        radii: &[f64],
        cap: u32,
        ceil: &[u32],
    ) -> SmallCounts {
        debug_assert!(radii.windows(2).all(|w| w[0] <= w[1]));
        let mut counter = MultiCounter::new(radii.len(), cap, ceil);
        if !self.ids.is_empty() && !radii.is_empty() {
            let q = q.as_ref();
            let r2: Vec<f64> = radii.iter().map(|&r| r * r).collect();
            let root = self.bounds2(q, self.bbox(0));
            self.multi_rec(0, q, &r2, 0, radii.len(), root, &mut counter);
            self.evals.fetch_add(counter.evals, Ordering::Relaxed);
        }
        counter.finish()
    }

    fn range_ids(&self, q: &P, radius: f64, out: &mut Vec<u32>) {
        if self.ids.is_empty() {
            return;
        }
        let start = out.len();
        let mut evals = 0;
        self.ids_rec(0, q.as_ref(), radius * radius, out, &mut evals);
        self.evals.fetch_add(evals, Ordering::Relaxed);
        out[start..].sort_unstable();
    }

    fn distance_stats(&self) -> DistanceStats {
        DistanceStats {
            evals: self.evals.load(Ordering::Relaxed),
        }
    }

    fn knn(&self, q: &P, k: usize) -> Vec<Neighbor> {
        if self.ids.is_empty() || k == 0 {
            return Vec::new();
        }
        let q = q.as_ref();
        let mut evals = 0u64;
        let mut frontier: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
        let mut best: BinaryHeap<(OrdF64, u32)> = BinaryHeap::new();
        frontier.push(Reverse((OrdF64(0.0), 0)));
        while let Some(Reverse((OrdF64(lb2), node))) = frontier.pop() {
            let tau2 = if best.len() < k {
                f64::INFINITY
            } else {
                best.peek().expect("non-empty").0 .0
            };
            if lb2 > tau2 {
                break;
            }
            let n = &self.nodes[node as usize];
            match n.kind {
                KdKind::Leaf { start, end } => {
                    evals += (end - start) as u64;
                    for &id in &self.ids[start as usize..end as usize] {
                        let d2 = self.dist2(q, id);
                        let tau2 = if best.len() < k {
                            f64::INFINITY
                        } else {
                            best.peek().expect("non-empty").0 .0
                        };
                        if d2 < tau2 || (d2 == tau2 && best.len() < k) {
                            best.push((OrdF64(d2), id));
                            if best.len() > k {
                                best.pop();
                            }
                        }
                    }
                }
                KdKind::Split { left, right } => {
                    for child in [left, right] {
                        let lb2 = self.min_dist2(q, self.bbox(child));
                        if best.len() < k || lb2 <= best.peek().expect("non-empty").0 .0 {
                            frontier.push(Reverse((OrdF64(lb2), child)));
                        }
                    }
                }
            }
        }
        self.evals.fetch_add(evals, Ordering::Relaxed);
        let mut out: Vec<Neighbor> = best
            .into_iter()
            .map(|(OrdF64(d2), id)| Neighbor {
                id,
                dist: d2.sqrt(),
            })
            .collect();
        out.sort_by(|a, b| OrdF64(a.dist).cmp(&OrdF64(b.dist)).then(a.id.cmp(&b.id)));
        out
    }

    /// Diameter of the root bounding box — for vector data this is the
    /// natural analogue of the paper's "max distance between root children".
    fn diameter_estimate(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let bbox = self.bbox(0);
        (0..self.dim)
            .map(|d| {
                let w = bbox[2 * d + 1] - bbox[2 * d];
                w * w
            })
            .sum::<f64>()
            .sqrt()
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
}
