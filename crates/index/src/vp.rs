//! A vantage-point tree: a second metric access method alongside the
//! Slim-tree.
//!
//! The paper's Step I accepts "a Slim-tree, M-tree, or R-tree" — the
//! pipeline only needs *some* metric index. The VP-tree is the classic
//! lightweight alternative: each node picks a vantage point and splits the
//! remaining elements by the median distance to it, giving a balanced
//! binary tree with one distance evaluation per node per query and
//! triangle-inequality pruning on both sides of the median shell.
//!
//! Compared to the Slim-tree it builds faster (no insertion reorganization)
//! but prunes less effectively on range counts (no covered-subtree
//! shortcut across shells); it is exposed mostly so the experiments can
//! demonstrate MCCATCH's index-agnosticism, and property tests pit all
//! three indexes against each other.

use crate::multi::MultiCounter;
use crate::{
    found, offer, DistanceStats, IndexBuilder, Neighbor, OrdF64, RangeIndex, SmallCounts,
    EMPTY_SLOT,
};
use mccatch_metric::Metric;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Builder for [`VpTree`].
#[derive(Debug, Clone, Copy)]
pub struct VpTreeBuilder {
    /// Maximum number of elements per leaf.
    pub leaf_capacity: usize,
}

impl Default for VpTreeBuilder {
    fn default() -> Self {
        Self { leaf_capacity: 16 }
    }
}

impl<P: Send + Sync, M: Metric<P>> IndexBuilder<P, M> for VpTreeBuilder {
    type Index = VpTree<P, M>;

    fn build(&self, points: Arc<[P]>, ids: Vec<u32>, metric: Arc<M>) -> Self::Index {
        VpTree::build(points, ids, metric, self.leaf_capacity)
    }

    fn backend_name(&self) -> &'static str {
        "vp"
    }
}

#[derive(Debug)]
enum VpNode {
    Leaf {
        start: u32,
        end: u32,
    },
    Split {
        /// The vantage point (also stored in the inside subtree range).
        vantage: u32,
        /// Median distance: inside elements are `<= mu`, outside `> mu`.
        mu: f64,
        /// Largest distance from the vantage to anything below this node.
        max_dist: f64,
        inside: u32,
        outside: u32,
        /// Number of elements below (vantage included).
        count: u32,
    },
}

/// A vantage-point tree over `points[ids]` using `metric`; owns `Arc`
/// handles to the dataset and metric, so it has no lifetime.
#[derive(Debug)]
pub struct VpTree<P, M: Metric<P>> {
    points: Arc<[P]>,
    metric: Arc<M>,
    ids: Vec<u32>,
    nodes: Vec<VpNode>,
    /// Distance evaluations (construction + queries). Relaxed ordering:
    /// read only after joins complete; queries batch their updates.
    evals: AtomicU64,
}

impl<P, M: Metric<P>> VpTree<P, M> {
    /// Builds the tree; deterministic (vantage = first element of the
    /// range, median split with stable tie-breaks).
    pub fn build(
        points: impl Into<Arc<[P]>>,
        mut ids: Vec<u32>,
        metric: impl Into<Arc<M>>,
        leaf_capacity: usize,
    ) -> Self {
        let cap = leaf_capacity.max(2);
        let mut tree = Self {
            points: points.into(),
            metric: metric.into(),
            ids: Vec::new(),
            nodes: Vec::new(),
            evals: AtomicU64::new(0),
        };
        if !ids.is_empty() {
            let n = ids.len();
            tree.build_rec(&mut ids, 0, n, cap);
            tree.ids = ids;
        }
        tree
    }

    fn build_rec(&mut self, ids: &mut [u32], start: usize, end: usize, cap: usize) -> u32 {
        if end - start <= cap {
            let idx = self.nodes.len() as u32;
            self.nodes.push(VpNode::Leaf {
                start: start as u32,
                end: end as u32,
            });
            return idx;
        }
        // Vantage: the first element (deterministic); distances to the rest.
        let vantage = ids[start];
        let rest = &mut ids[start + 1..end];
        let metric = Arc::clone(&self.metric);
        let points = Arc::clone(&self.points);
        let build_evals = std::cell::Cell::new(0u64);
        let key = |a: u32| {
            build_evals.set(build_evals.get() + 1);
            OrdF64(metric.distance(&points[vantage as usize], &points[a as usize]))
        };
        let mid = rest.len() / 2;
        rest.select_nth_unstable_by(mid, |&a, &b| key(a).cmp(&key(b)).then(a.cmp(&b)));
        let mu = metric.distance(&points[vantage as usize], &points[rest[mid] as usize]);
        let max_dist = rest
            .iter()
            .map(|&a| metric.distance(&points[vantage as usize], &points[a as usize]))
            .fold(0.0f64, f64::max);
        *self.evals.get_mut() += build_evals.get() + 1 + rest.len() as u64;
        let count = (end - start) as u32;
        let idx = self.nodes.len() as u32;
        self.nodes.push(VpNode::Leaf { start: 0, end: 0 }); // patched below

        // Inside: vantage itself plus [start+1 .. start+1+mid+1) (all <= mu).
        // Clamp so both subtrees stay non-empty and strictly smaller — for
        // a 3-element range the unclamped midpoint would swallow the whole
        // range and recurse forever. Ties with mu may then land on either
        // side, which the >= shell conditions below account for.
        let inside_end = (start + 1 + mid + 1).min(end - 1);
        let inside = self.build_rec(ids, start, inside_end, cap);
        let outside = self.build_rec(ids, inside_end, end, cap);
        self.nodes[idx as usize] = VpNode::Split {
            vantage,
            mu,
            max_dist,
            inside,
            outside,
            count,
        };
        idx
    }

    fn count_rec(&self, node: u32, q: &P, r: f64, evals: &mut u64) -> usize {
        match &self.nodes[node as usize] {
            VpNode::Leaf { start, end } => {
                *evals += (end - start) as u64;
                self.ids[*start as usize..*end as usize]
                    .iter()
                    .filter(|&&i| self.metric.distance(q, &self.points[i as usize]) <= r)
                    .count()
            }
            VpNode::Split {
                vantage,
                mu,
                max_dist,
                inside,
                outside,
                count,
            } => {
                let d = self.metric.distance(q, &self.points[*vantage as usize]);
                *evals += 1;
                // Covered shortcut: the whole subtree lives within
                // max_dist of the vantage.
                if d + max_dist <= r {
                    return *count as usize;
                }
                let mut c = 0;
                if d - r <= *mu {
                    c += self.count_rec(*inside, q, r, evals);
                }
                if d + r >= *mu {
                    c += self.count_rec(*outside, q, r, evals);
                }
                c
            }
        }
    }

    /// Single-traversal multi-radius count over the window `[lo, hi)` of
    /// `radii` (ascending): one vantage distance per node serves every
    /// column at once. Columns whose radius covers the whole subtree take
    /// the cardinality in one bulk-add; each child's window drops the
    /// columns whose radius cannot reach its shell; columns at or past the
    /// counter watermark are decided (OVER or a settled crossing) and are
    /// no longer refined. All
    /// predicates are textually those of [`Self::count_rec`], so counts
    /// match the per-radius path bit for bit.
    fn multi_rec(
        &self,
        node: u32,
        q: &P,
        radii: &[f64],
        lo: usize,
        mut hi: usize,
        counter: &mut MultiCounter,
    ) {
        hi = hi.min(counter.hi_cap());
        if lo >= hi {
            return;
        }
        match &self.nodes[node as usize] {
            VpNode::Leaf { start, end } => {
                counter.evals += (end - start) as u64;
                let scratch = counter.scratch_mut();
                for &i in &self.ids[*start as usize..*end as usize] {
                    scratch.push(self.metric.distance(q, &self.points[i as usize]));
                }
                counter.add_leaf(&radii[lo..hi], lo, hi);
            }
            VpNode::Split {
                vantage,
                mu,
                max_dist,
                inside,
                outside,
                count,
            } => {
                let d = self.metric.distance(q, &self.points[*vantage as usize]);
                counter.evals += 1;
                // Covered columns: the whole subtree is within radius.
                let mut nh = hi;
                while nh > lo && d + max_dist <= radii[nh - 1] {
                    nh -= 1;
                }
                if nh < hi {
                    counter.add_subtree(nh, hi, *count);
                    counter.bump();
                    hi = nh.min(counter.hi_cap());
                    if lo >= hi {
                        return;
                    }
                }
                // Visit the shell containing the query first: its points
                // are the nearest, so the running counts cross the cap
                // (and the window collapses to the small radii) before the
                // farther shell is traversed. Each shell's window drops
                // the columns whose radius cannot reach it.
                let descend_inside = |this: &Self, counter: &mut MultiCounter, hi: usize| {
                    // Inside shell: reachable at radius r iff d - r <= mu.
                    let mut ilo = lo;
                    while ilo < hi && d - radii[ilo] > *mu {
                        ilo += 1;
                    }
                    if ilo < hi {
                        this.multi_rec(*inside, q, radii, ilo, hi, counter);
                    }
                };
                let descend_outside = |this: &Self, counter: &mut MultiCounter, hi: usize| {
                    // Outside shell: reachable at radius r iff d + r >= mu.
                    let mut olo = lo;
                    while olo < hi && d + radii[olo] < *mu {
                        olo += 1;
                    }
                    if olo < hi {
                        this.multi_rec(*outside, q, radii, olo, hi, counter);
                    }
                };
                // (multi_rec re-clamps to the watermark at entry, so the
                // second call sees any window shrink the first caused.)
                if d <= *mu {
                    descend_inside(self, counter, hi);
                    descend_outside(self, counter, hi);
                } else {
                    descend_outside(self, counter, hi);
                    descend_inside(self, counter, hi);
                }
            }
        }
    }

    fn ids_rec(&self, node: u32, q: &P, r: f64, out: &mut Vec<u32>, evals: &mut u64) {
        match &self.nodes[node as usize] {
            VpNode::Leaf { start, end } => {
                *evals += (end - start) as u64;
                out.extend(
                    self.ids[*start as usize..*end as usize]
                        .iter()
                        .copied()
                        .filter(|&i| self.metric.distance(q, &self.points[i as usize]) <= r),
                )
            }
            VpNode::Split {
                vantage,
                mu,
                max_dist,
                inside,
                outside,
                ..
            } => {
                let d = self.metric.distance(q, &self.points[*vantage as usize]);
                *evals += 1;
                if d + max_dist <= r {
                    self.collect(node, out);
                    return;
                }
                if d - r <= *mu {
                    self.ids_rec(*inside, q, r, out, evals);
                }
                if d + r >= *mu {
                    self.ids_rec(*outside, q, r, out, evals);
                }
            }
        }
    }

    fn collect(&self, node: u32, out: &mut Vec<u32>) {
        match &self.nodes[node as usize] {
            VpNode::Leaf { start, end } => {
                out.extend_from_slice(&self.ids[*start as usize..*end as usize])
            }
            VpNode::Split {
                inside, outside, ..
            } => {
                self.collect(*inside, out);
                self.collect(*outside, out);
            }
        }
    }
}

impl<P: Send + Sync, M: Metric<P>> RangeIndex<P> for VpTree<P, M> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn range_count(&self, q: &P, radius: f64) -> usize {
        if self.ids.is_empty() {
            return 0;
        }
        let mut evals = 0;
        let count = self.count_rec(0, q, radius, &mut evals);
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
            self.multi_rec(0, q, radii, 0, radii.len(), &mut counter);
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
        self.ids_rec(0, q, radius, out, &mut evals);
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
        let mut evals = 0u64;
        let mut frontier: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
        let mut best = vec![EMPTY_SLOT; k.min(self.ids.len())];
        frontier.push(Reverse((OrdF64(0.0), 0)));
        while let Some(Reverse((OrdF64(lb), node))) = frontier.pop() {
            if lb > best[best.len() - 1].0 {
                break;
            }
            match &self.nodes[node as usize] {
                VpNode::Leaf { start, end } => {
                    evals += (end - start) as u64;
                    for &i in &self.ids[*start as usize..*end as usize] {
                        let d = self.metric.distance(q, &self.points[i as usize]);
                        offer(&mut best, d, i);
                    }
                }
                VpNode::Split {
                    vantage,
                    mu,
                    inside,
                    outside,
                    ..
                } => {
                    let d = self.metric.distance(q, &self.points[*vantage as usize]);
                    evals += 1;
                    // Lower bounds for the two shells.
                    let lb_in = (d - mu).max(0.0);
                    let lb_out = (mu - d).max(0.0);
                    frontier.push(Reverse((OrdF64(lb_in.min(lb)), *inside)));
                    frontier.push(Reverse((OrdF64(lb_out.max(lb)), *outside)));
                }
            }
        }
        self.evals.fetch_add(evals, Ordering::Relaxed);
        found(&best)
            .iter()
            .map(|&(dist, id)| Neighbor { id, dist })
            .collect()
    }

    /// The root shell radius bounds half the diameter; double it, matching
    /// the "derive the grid from the tree root" idea of Alg. 1.
    fn diameter_estimate(&self) -> f64 {
        match self.nodes.first() {
            Some(VpNode::Split { max_dist, .. }) => 2.0 * max_dist,
            Some(VpNode::Leaf { start, end }) => {
                let ids = &self.ids[*start as usize..*end as usize];
                let n = ids.len() as u64;
                self.evals
                    .fetch_add(n * n.saturating_sub(1) / 2, Ordering::Relaxed);
                let mut best = 0.0f64;
                for (i, &a) in ids.iter().enumerate() {
                    for &b in &ids[i + 1..] {
                        best = best.max(
                            self.metric
                                .distance(&self.points[a as usize], &self.points[b as usize]),
                        );
                    }
                }
                best
            }
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_metric::{Euclidean, Levenshtein};

    fn line(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64]).collect()
    }

    #[test]
    fn range_count_matches_brute_force() {
        let pts = line(200);
        let t = VpTree::build(pts.clone(), (0..200).collect(), Euclidean, 8);
        for q in [0usize, 50, 111, 199] {
            for r in [0.0, 1.0, 2.5, 10.0, 300.0] {
                let want = pts.iter().filter(|p| (p[0] - pts[q][0]).abs() <= r).count();
                assert_eq!(t.range_count(&pts[q], r), want, "q={q} r={r}");
            }
        }
    }

    #[test]
    fn range_ids_sorted_and_exact() {
        let pts = line(64);
        let t = VpTree::build(pts.clone(), (0..64).collect(), Euclidean, 4);
        let mut out = Vec::new();
        t.range_ids(&pts[10], 2.0, &mut out);
        assert_eq!(out, vec![8, 9, 10, 11, 12]);
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = line(100);
        let t = VpTree::build(pts.clone(), (0..100).collect(), Euclidean, 4);
        let nn = t.knn(&pts[42], 5);
        let ids: Vec<u32> = nn.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![42, 41, 43, 40, 44]);
    }

    #[test]
    fn string_metric_works() {
        let words: Vec<String> = ["cat", "car", "cart", "dog", "dot", "zebra"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let t = VpTree::build(words.clone(), (0..6).collect(), Levenshtein, 2);
        assert_eq!(t.range_count(&"cat".to_string(), 1.0), 3);
    }

    #[test]
    fn empty_and_singleton() {
        let pts: Vec<Vec<f64>> = vec![];
        let t = VpTree::build(pts.clone(), vec![], Euclidean, 4);
        assert_eq!(t.range_count(&vec![0.0], 5.0), 0);
        assert_eq!(t.diameter_estimate(), 0.0);
        let pts = line(1);
        let t = VpTree::build(pts.clone(), vec![0], Euclidean, 4);
        assert_eq!(t.len(), 1);
        assert_eq!(t.range_count(&pts[0], 0.0), 1);
    }

    #[test]
    fn diameter_estimate_reasonable() {
        let pts = line(1000);
        let t = VpTree::build(pts.clone(), (0..1000).collect(), Euclidean, 16);
        let est = t.diameter_estimate();
        assert!((999.0 * 0.5..=999.0 * 2.5).contains(&est), "est={est}");
    }

    #[test]
    fn duplicates_counted() {
        let pts = vec![vec![2.0]; 33];
        let t = VpTree::build(pts.clone(), (0..33).collect(), Euclidean, 4);
        assert_eq!(t.range_count(&vec![2.0], 0.0), 33);
    }
}
