//! A main-memory Slim-tree: the metric access method MCCATCH uses for
//! nondimensional data (Traina Jr. et al., IEEE TKDE 2002; footnote 4 of
//! the MCCATCH paper).
//!
//! Design notes:
//!
//! * **Structure.** A balanced-by-construction M-tree-family structure:
//!   leaves hold point ids; internal nodes hold routing entries
//!   `(representative, covering radius, child, subtree size)`.
//! * **Insertion** descends choosing the child whose covering radius grows
//!   least (preferring children that already cover the point, breaking ties
//!   by distance — the Slim-tree `minDist` policy).
//! * **Splits** use the Slim-tree's signature *MST split*: a minimum
//!   spanning tree over the overflowing entries is cut at its longest edge
//!   that leaves at least an eighth of the entries on each side, and each
//!   side is represented by its minimum-covering-radius member.
//! * **Queries** prune with the triangle inequality twice: against the
//!   stored parent distance (avoiding a distance computation entirely) and
//!   against the covering radius. Count queries additionally use the
//!   *covered-subtree shortcut*: when a node's bounding ball lies entirely
//!   inside the query ball, its stored subtree size is added without
//!   descending — this is what makes the paper's count-only joins cheap
//!   ("compact similarity joins", Sec. IV-G).
//! * **Determinism.** No randomness anywhere; ties break on index order.

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

/// Builder for [`SlimTree`]. `node_capacity` is the maximum number of
/// entries per node (minimum 4); 32 is a good default for main memory.
#[derive(Debug, Clone, Copy)]
pub struct SlimTreeBuilder {
    /// Maximum entries per node before a split.
    pub node_capacity: usize,
}

impl Default for SlimTreeBuilder {
    fn default() -> Self {
        Self { node_capacity: 32 }
    }
}

impl SlimTreeBuilder {
    /// Builder with a custom node capacity (clamped to at least 4).
    pub fn with_capacity(node_capacity: usize) -> Self {
        Self {
            node_capacity: node_capacity.max(4),
        }
    }
}

impl<P: Send + Sync, M: Metric<P>> IndexBuilder<P, M> for SlimTreeBuilder {
    type Index = SlimTree<P, M>;

    fn build(&self, points: Arc<[P]>, ids: Vec<u32>, metric: Arc<M>) -> Self::Index {
        SlimTree::build(points, ids, metric, self.node_capacity)
    }

    fn backend_name(&self) -> &'static str {
        "slim"
    }
}

#[derive(Debug, Clone, Copy)]
struct RoutingEntry {
    /// Id of the routing (representative) point.
    rep: u32,
    /// Covering radius: every point in the subtree is within `radius` of `rep`.
    radius: f64,
    /// Distance from `rep` to the routing point of the parent entry
    /// (0 for entries of the root node).
    dist_to_parent: f64,
    /// Index of the child node in the arena.
    child: u32,
    /// Number of points stored in the subtree.
    subtree: u32,
}

#[derive(Debug, Clone, Copy)]
struct LeafEntry {
    /// Dataset id of the stored point.
    id: u32,
    /// Distance to the routing point of the parent entry (0 if root is a leaf).
    dist_to_parent: f64,
}

#[derive(Debug)]
enum Node {
    Leaf(Vec<LeafEntry>),
    Internal(Vec<RoutingEntry>),
}

/// A Slim-tree over `points[ids]` using `metric`; owns `Arc` handles to
/// the dataset and metric, so it has no lifetime. See the module docs.
#[derive(Debug)]
pub struct SlimTree<P, M: Metric<P>> {
    points: Arc<[P]>,
    metric: Arc<M>,
    nodes: Vec<Node>,
    root: u32,
    len: usize,
    capacity: usize,
    /// Distance evaluations (construction + queries). Relaxed ordering:
    /// read only after joins complete; queries batch their updates.
    evals: AtomicU64,
}

impl<P, M: Metric<P>> SlimTree<P, M> {
    /// Builds a tree by successive insertion of `ids` in the given order.
    pub fn build(
        points: impl Into<Arc<[P]>>,
        ids: Vec<u32>,
        metric: impl Into<Arc<M>>,
        node_capacity: usize,
    ) -> Self {
        let capacity = node_capacity.max(4);
        let mut tree = Self {
            points: points.into(),
            metric: metric.into(),
            nodes: vec![Node::Leaf(Vec::new())],
            root: 0,
            len: 0,
            capacity,
            evals: AtomicU64::new(0),
        };
        for id in ids {
            tree.insert(id);
        }
        tree
    }

    #[inline]
    fn point(&self, id: u32) -> &P {
        &self.points[id as usize]
    }

    #[inline]
    fn dist(&self, a: u32, b: u32) -> f64 {
        self.metric.distance(self.point(a), self.point(b))
    }

    fn insert(&mut self, id: u32) {
        self.len += 1;
        // Descend to a leaf, tracking the path of (node, entry) choices and
        // the distance from the inserted point to the chosen routing point.
        let mut path: Vec<(u32, usize)> = Vec::new();
        let mut node = self.root;
        let mut dist_to_rep = 0.0; // distance to current parent rep (root: none)
        let mut build_evals = 0u64;
        loop {
            match &mut self.nodes[node as usize] {
                Node::Leaf(entries) => {
                    entries.push(LeafEntry {
                        id,
                        dist_to_parent: dist_to_rep,
                    });
                    break;
                }
                Node::Internal(entries) => {
                    build_evals += entries.len() as u64;
                    // Choose the entry needing the least radius growth;
                    // among already-covering entries, the closest one.
                    let mut best = 0usize;
                    let mut best_key = (OrdF64(f64::INFINITY), OrdF64(f64::INFINITY));
                    let mut best_d = 0.0;
                    for (k, e) in entries.iter().enumerate() {
                        let d = self
                            .metric
                            .distance(&self.points[id as usize], &self.points[e.rep as usize]);
                        let growth = (d - e.radius).max(0.0);
                        let key = (OrdF64(growth), OrdF64(d));
                        if key < best_key {
                            best_key = key;
                            best = k;
                            best_d = d;
                        }
                    }
                    let e = &mut entries[best];
                    e.radius = e.radius.max(best_d);
                    e.subtree += 1;
                    let child = e.child;
                    path.push((node, best));
                    dist_to_rep = best_d;
                    node = child;
                }
            }
        }
        *self.evals.get_mut() += build_evals;
        // Split up the path while nodes overflow.
        let mut overflowing = node;
        while self.node_len(overflowing) > self.capacity {
            let parent = path.pop();
            let grand = path.last().copied();
            self.split(overflowing, parent, grand);
            match parent {
                Some((p, _)) => overflowing = p,
                None => break,
            }
        }
    }

    fn node_len(&self, node: u32) -> usize {
        match &self.nodes[node as usize] {
            Node::Leaf(v) => v.len(),
            Node::Internal(v) => v.len(),
        }
    }

    /// Splits `node`. `parent`: the (node, entry) routing slot pointing at
    /// `node`, or `None` if `node` is the root. `grand`: the slot pointing
    /// at the parent node (its rep is the parent's routing point), needed
    /// to recompute `dist_to_parent` for the two replacement entries.
    fn split(&mut self, node: u32, parent: Option<(u32, usize)>, grand: Option<(u32, usize)>) {
        // Representative point of each member entry.
        let reps: Vec<u32> = match &self.nodes[node as usize] {
            Node::Leaf(v) => v.iter().map(|e| e.id).collect(),
            Node::Internal(v) => v.iter().map(|e| e.rep).collect(),
        };
        let m = reps.len();
        debug_assert!(m >= 2);
        // Pairwise distances among representatives (m <= capacity + 1).
        let mut dm = vec![0.0f64; m * m];
        for i in 0..m {
            for j in (i + 1)..m {
                let d = self.dist(reps[i], reps[j]);
                dm[i * m + j] = d;
                dm[j * m + i] = d;
            }
        }
        *self.evals.get_mut() += (m * (m - 1) / 2) as u64;
        let side = mst_split(&dm, m);
        // New representative per side: the member minimizing its covering
        // radius over that side (accounting for child radii when internal).
        let child_radius = |k: usize| -> f64 {
            match &self.nodes[node as usize] {
                Node::Leaf(_) => 0.0,
                Node::Internal(v) => v[k].radius,
            }
        };
        let mut side_members: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for (k, &s) in side.iter().enumerate() {
            side_members[s as usize].push(k);
        }
        debug_assert!(!side_members[0].is_empty() && !side_members[1].is_empty());
        let pick_rep = |members: &[usize]| -> (usize, f64) {
            let mut best = members[0];
            let mut best_r = f64::INFINITY;
            for &cand in members {
                let mut r = 0.0f64;
                for &other in members {
                    r = r.max(dm[cand * m + other] + child_radius(other));
                }
                if r < best_r {
                    best_r = r;
                    best = cand;
                }
            }
            (best, best_r)
        };
        let (rep0, rad0) = pick_rep(&side_members[0]);
        let (rep1, rad1) = pick_rep(&side_members[1]);

        // Materialize the two sides as new nodes.
        let old = std::mem::replace(&mut self.nodes[node as usize], Node::Leaf(Vec::new()));
        let (n0, n1, sz0, sz1) = match old {
            Node::Leaf(entries) => {
                let mk = |members: &[usize], rep: usize| -> Vec<LeafEntry> {
                    members
                        .iter()
                        .map(|&k| LeafEntry {
                            id: entries[k].id,
                            dist_to_parent: dm[rep * m + k],
                        })
                        .collect()
                };
                let v0 = mk(&side_members[0], rep0);
                let v1 = mk(&side_members[1], rep1);
                let (s0, s1) = (v0.len() as u32, v1.len() as u32);
                (Node::Leaf(v0), Node::Leaf(v1), s0, s1)
            }
            Node::Internal(entries) => {
                let mk = |members: &[usize], rep: usize| -> Vec<RoutingEntry> {
                    members
                        .iter()
                        .map(|&k| RoutingEntry {
                            dist_to_parent: dm[rep * m + k],
                            ..entries[k]
                        })
                        .collect()
                };
                let v0 = mk(&side_members[0], rep0);
                let v1 = mk(&side_members[1], rep1);
                let (s0, s1) = (
                    v0.iter().map(|e| e.subtree).sum(),
                    v1.iter().map(|e| e.subtree).sum(),
                );
                (Node::Internal(v0), Node::Internal(v1), s0, s1)
            }
        };
        // Reuse the old slot for side 0; allocate side 1.
        self.nodes[node as usize] = n0;
        let node1 = self.nodes.len() as u32;
        self.nodes.push(n1);

        let (rep0_id, rep1_id) = (reps[rep0], reps[rep1]);
        match parent {
            Some((pnode, pentry)) => {
                // Distance from new reps to the parent's own routing point
                // (the rep of the grandparent entry covering `pnode`).
                // Entries in the root have no routing point; their
                // dist_to_parent is never consulted.
                let parent_rep = grand.map(|(gn, ge)| match &self.nodes[gn as usize] {
                    Node::Internal(es) => es[ge].rep,
                    Node::Leaf(_) => unreachable!("grandparent is internal"),
                });
                let dtp0 = parent_rep.map_or(0.0, |g| self.dist(g, rep0_id));
                let dtp1 = parent_rep.map_or(0.0, |g| self.dist(g, rep1_id));
                if parent_rep.is_some() {
                    *self.evals.get_mut() += 2;
                }
                let Node::Internal(pentries) = &mut self.nodes[pnode as usize] else {
                    unreachable!("parent of a split node is internal");
                };
                pentries[pentry] = RoutingEntry {
                    rep: rep0_id,
                    radius: rad0,
                    dist_to_parent: dtp0,
                    child: node,
                    subtree: sz0,
                };
                pentries.push(RoutingEntry {
                    rep: rep1_id,
                    radius: rad1,
                    dist_to_parent: dtp1,
                    child: node1,
                    subtree: sz1,
                });
            }
            None => {
                // Root split: grow the tree by one level.
                let new_root = self.nodes.len() as u32;
                self.nodes.push(Node::Internal(vec![
                    RoutingEntry {
                        rep: rep0_id,
                        radius: rad0,
                        dist_to_parent: 0.0,
                        child: node,
                        subtree: sz0,
                    },
                    RoutingEntry {
                        rep: rep1_id,
                        radius: rad1,
                        dist_to_parent: 0.0,
                        child: node1,
                        subtree: sz1,
                    },
                ]));
                self.root = new_root;
            }
        }
    }

    /// Walks the tree checking every structural invariant; used by tests.
    /// Returns the total number of points found.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> usize {
        fn walk<P, M: Metric<P>>(
            t: &SlimTree<P, M>,
            node: u32,
            parent_rep: Option<u32>,
            ancestors: &mut Vec<(u32, f64)>,
        ) -> usize {
            match &t.nodes[node as usize] {
                Node::Leaf(entries) => {
                    for e in entries {
                        for &(rep, radius) in ancestors.iter() {
                            let d = t.dist(rep, e.id);
                            assert!(
                                d <= radius + 1e-9,
                                "point {} outside covering ball of rep {rep}",
                                e.id
                            );
                        }
                        if let Some(pr) = parent_rep {
                            let d = t.dist(pr, e.id);
                            assert!(
                                (d - e.dist_to_parent).abs() <= 1e-9,
                                "stale leaf dist_to_parent for point {}",
                                e.id
                            );
                        }
                    }
                    entries.len()
                }
                Node::Internal(entries) => {
                    let mut total = 0;
                    for e in entries {
                        if let Some(pr) = parent_rep {
                            let d = t.dist(pr, e.rep);
                            assert!(
                                (d - e.dist_to_parent).abs() <= 1e-9,
                                "stale routing dist_to_parent for rep {}",
                                e.rep
                            );
                        }
                        ancestors.push((e.rep, e.radius));
                        let sub = walk(t, e.child, Some(e.rep), ancestors);
                        ancestors.pop();
                        assert_eq!(sub, e.subtree as usize, "subtree size mismatch");
                        total += sub;
                    }
                    total
                }
            }
        }
        let mut anc = Vec::new();
        let total = walk(self, self.root, None, &mut anc);
        assert_eq!(total, self.len);
        total
    }

    fn count_rec(
        &self,
        node: u32,
        q: &P,
        r: f64,
        d_q_parent: Option<f64>,
        evals: &mut u64,
    ) -> usize {
        match &self.nodes[node as usize] {
            Node::Leaf(entries) => {
                let mut c = 0;
                for e in entries {
                    if let Some(dqp) = d_q_parent {
                        // Triangle: |d(q,parent) - d(p,parent)| <= d(q,p).
                        if (dqp - e.dist_to_parent).abs() > r {
                            continue;
                        }
                    }
                    *evals += 1;
                    if self.metric.distance(q, self.point(e.id)) <= r {
                        c += 1;
                    }
                }
                c
            }
            Node::Internal(entries) => {
                let mut c = 0;
                for e in entries {
                    if let Some(dqp) = d_q_parent {
                        if (dqp - e.dist_to_parent).abs() > r + e.radius {
                            continue;
                        }
                    }
                    *evals += 1;
                    let d = self.metric.distance(q, self.point(e.rep));
                    if d + e.radius <= r {
                        // Covered-subtree shortcut: whole ball inside query.
                        c += e.subtree as usize;
                    } else if d <= r + e.radius {
                        c += self.count_rec(e.child, q, r, Some(d), evals);
                    }
                }
                c
            }
        }
    }

    /// Single-traversal multi-radius count over the window `[lo, hi)` of
    /// `radii` (ascending): one routing distance per entry serves every
    /// column at once. Entries wholly inside a suffix of the grid are
    /// bulk-added via their stored subtree size (the covered-subtree
    /// shortcut applied per column), entries out of reach of every active
    /// radius are skipped without a distance evaluation (the stored
    /// parent-distance triangle bound), and columns at or past the counter
    /// watermark are decided (OVER or a settled crossing) and are no
    /// longer refined. All
    /// predicates are textually those of [`Self::count_rec`] — including
    /// the triangle-bound skip, folded in via `max(d, bound)` — so counts
    /// match the per-radius path bit for bit.
    #[allow(clippy::too_many_arguments)] // recursion state, not an API
    fn multi_rec(
        &self,
        node: u32,
        q: &P,
        radii: &[f64],
        lo: usize,
        hi: usize,
        d_q_parent: Option<f64>,
        counter: &mut MultiCounter,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf(entries) => {
                let hi = hi.min(counter.hi_cap());
                if lo >= hi {
                    return;
                }
                let mut evals = 0;
                let scratch = counter.scratch_mut();
                for e in entries {
                    let bound = d_q_parent.map(|dqp| (dqp - e.dist_to_parent).abs());
                    if bound.is_some_and(|b| b > radii[hi - 1]) {
                        // Beyond every active radius: the per-radius path
                        // skips this point at each of them.
                        continue;
                    }
                    evals += 1;
                    let d = self.metric.distance(q, self.point(e.id));
                    // The per-radius path also skips columns the triangle
                    // bound excludes, so bucket on the larger of the two.
                    scratch.push(bound.map_or(d, |b| d.max(b)));
                }
                counter.evals += evals;
                counter.add_leaf(&radii[lo..hi], lo, hi);
            }
            Node::Internal(entries) => {
                let ehi0 = hi.min(counter.hi_cap());
                if lo >= ehi0 {
                    return;
                }
                // One routing distance per entry, then process entries
                // nearest-ball-first: the query's dense neighborhood is
                // what pushes the running counts past the cap, so visiting
                // it early collapses the window to the small radii before
                // the expensive far subtrees are descended. The entries
                // go on the counter's order stack, above those of the
                // visits this one is nested in.
                let base = counter.order.len();
                for (idx, e) in entries.iter().enumerate() {
                    let bound = d_q_parent.map(|dqp| (dqp - e.dist_to_parent).abs());
                    if bound.is_some_and(|b| b > radii[ehi0 - 1] + e.radius) {
                        continue;
                    }
                    counter.evals += 1;
                    let d = self.metric.distance(q, self.point(e.rep));
                    counter.order.push(((d - e.radius).max(0.0), d, idx as u32));
                }
                let top = counter.order.len();
                counter.order[base..]
                    .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
                for at in base..top {
                    let (_, d, idx) = counter.order[at];
                    let e = &entries[idx as usize];
                    let ehi = hi.min(counter.hi_cap());
                    if lo >= ehi {
                        break;
                    }
                    let bound = d_q_parent.map(|dqp| (dqp - e.dist_to_parent).abs());
                    // Covered columns: the whole ball is inside the query.
                    // The per-radius path checks the triangle-bound skip
                    // *before* the covered shortcut, so a column the bound
                    // excludes must contribute 0 even if it looks covered
                    // (only reachable through floating-point rounding when
                    // `e.radius` is ~0, but bit-equality is the contract).
                    let mut nh = ehi;
                    while nh > lo
                        && d + e.radius <= radii[nh - 1]
                        && bound.is_none_or(|b| b <= radii[nh - 1] + e.radius)
                    {
                        nh -= 1;
                    }
                    let mut chi = ehi;
                    if nh < ehi {
                        counter.add_subtree(nh, ehi, e.subtree);
                        counter.bump();
                        chi = nh.min(counter.hi_cap());
                    }
                    // Descend columns: those whose radius can reach the
                    // ball (and that the triangle bound does not exclude).
                    let key = bound.map_or(d, |b| d.max(b));
                    let mut clo = lo;
                    while clo < chi && key > radii[clo] + e.radius {
                        clo += 1;
                    }
                    if clo < chi {
                        self.multi_rec(e.child, q, radii, clo, chi, Some(d), counter);
                    }
                }
                counter.order.truncate(base);
            }
        }
    }

    fn ids_rec(
        &self,
        node: u32,
        q: &P,
        r: f64,
        d_q_parent: Option<f64>,
        out: &mut Vec<u32>,
        evals: &mut u64,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf(entries) => {
                for e in entries {
                    if let Some(dqp) = d_q_parent {
                        if (dqp - e.dist_to_parent).abs() > r {
                            continue;
                        }
                    }
                    *evals += 1;
                    if self.metric.distance(q, self.point(e.id)) <= r {
                        out.push(e.id);
                    }
                }
            }
            Node::Internal(entries) => {
                for e in entries {
                    if let Some(dqp) = d_q_parent {
                        if (dqp - e.dist_to_parent).abs() > r + e.radius {
                            continue;
                        }
                    }
                    *evals += 1;
                    let d = self.metric.distance(q, self.point(e.rep));
                    if d + e.radius <= r {
                        self.collect_subtree(e.child, out);
                    } else if d <= r + e.radius {
                        self.ids_rec(e.child, q, r, Some(d), out, evals);
                    }
                }
            }
        }
    }

    fn collect_subtree(&self, node: u32, out: &mut Vec<u32>) {
        match &self.nodes[node as usize] {
            Node::Leaf(entries) => out.extend(entries.iter().map(|e| e.id)),
            Node::Internal(entries) => {
                for e in entries {
                    self.collect_subtree(e.child, out);
                }
            }
        }
    }
}

impl<P: Send + Sync, M: Metric<P>> RangeIndex<P> for SlimTree<P, M> {
    fn len(&self) -> usize {
        self.len
    }

    fn range_count(&self, q: &P, radius: f64) -> usize {
        if self.len == 0 {
            return 0;
        }
        let mut evals = 0;
        let count = self.count_rec(self.root, q, radius, None, &mut evals);
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
        if self.len > 0 && !radii.is_empty() {
            self.multi_rec(self.root, q, radii, 0, radii.len(), None, &mut counter);
            self.evals.fetch_add(counter.evals, Ordering::Relaxed);
        }
        counter.finish()
    }

    fn range_ids(&self, q: &P, radius: f64, out: &mut Vec<u32>) {
        if self.len == 0 {
            return;
        }
        let start = out.len();
        let mut evals = 0;
        self.ids_rec(self.root, q, radius, None, out, &mut evals);
        self.evals.fetch_add(evals, Ordering::Relaxed);
        out[start..].sort_unstable();
    }

    fn distance_stats(&self) -> DistanceStats {
        DistanceStats {
            evals: self.evals.load(Ordering::Relaxed),
        }
    }

    fn knn(&self, q: &P, k: usize) -> Vec<Neighbor> {
        if self.len == 0 || k == 0 {
            return Vec::new();
        }
        // Best-first search. `frontier` orders nodes by optimistic distance;
        // `best` keeps the current k nearest in `(distance, id)` order, and
        // its last slot is the distance to beat.
        let mut evals = 0u64;
        let mut frontier: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
        let mut best = vec![EMPTY_SLOT; k.min(self.len)];
        frontier.push(Reverse((OrdF64(0.0), self.root)));
        let tau = |best: &[(f64, u32)]| best[best.len() - 1].0;
        while let Some(Reverse((OrdF64(lb), node))) = frontier.pop() {
            if lb > tau(&best) {
                break;
            }
            match &self.nodes[node as usize] {
                Node::Leaf(entries) => {
                    evals += entries.len() as u64;
                    for e in entries {
                        let d = self.metric.distance(q, self.point(e.id));
                        offer(&mut best, d, e.id);
                    }
                }
                Node::Internal(entries) => {
                    evals += entries.len() as u64;
                    for e in entries {
                        let d = self.metric.distance(q, self.point(e.rep));
                        let lb_child = (d - e.radius).max(0.0);
                        if lb_child <= tau(&best) {
                            frontier.push(Reverse((OrdF64(lb_child), e.child)));
                        }
                    }
                }
            }
        }
        self.evals.fetch_add(evals, Ordering::Relaxed);
        found(&best)
            .iter()
            .map(|&(dist, id)| Neighbor { id, dist })
            .collect()
    }

    /// The metric's [`Metric::diameter_bound`] over the indexed ids.
    fn diameter_estimate(&self) -> f64 {
        let mut ids = Vec::with_capacity(self.len);
        self.collect_subtree(self.root, &mut ids);
        let (bound, evals) = self.metric.diameter_bound(&self.points, &ids);
        self.evals.fetch_add(evals, Ordering::Relaxed);
        bound
    }
}

/// Splits `m` items with distance matrix `dm` (row-major `m × m`) in two
/// by cutting one edge of their minimum spanning tree, returning a 0/1
/// side label per item. The cut is the longest edge that leaves at least
/// `max(1, m / 8)` items on each side, so a split does not peel one far
/// item off a full node and grow a chain of near-empty nodes; when no edge
/// does, it is the most balanced edge, the longest among equally balanced
/// ones. Prim's algorithm, O(m²); ties break on index order, so the split
/// is deterministic.
fn mst_split(dm: &[f64], m: usize) -> Vec<u8> {
    debug_assert!(m >= 2);
    // Prim from item 0. `edges[k]` joins the `k + 1`-th item to its parent,
    // `(parent, child, length)`, so every child follows its parent.
    let mut in_tree = vec![false; m];
    let mut best_dist = vec![f64::INFINITY; m];
    let mut best_from = vec![0usize; m];
    let mut edges: Vec<(usize, usize, f64)> = Vec::with_capacity(m - 1);
    in_tree[0] = true;
    for v in 1..m {
        best_dist[v] = dm[v];
        best_from[v] = 0;
    }
    for _ in 1..m {
        let mut next = usize::MAX;
        let mut nd = f64::INFINITY;
        for v in 0..m {
            if !in_tree[v] && best_dist[v] < nd {
                nd = best_dist[v];
                next = v;
            }
        }
        debug_assert_ne!(next, usize::MAX);
        in_tree[next] = true;
        edges.push((best_from[next], next, nd));
        for v in 0..m {
            if !in_tree[v] && dm[next * m + v] < best_dist[v] {
                best_dist[v] = dm[next * m + v];
                best_from[v] = next;
            }
        }
    }
    // Items in the subtree below each child, children before parents.
    let mut below = vec![1usize; m];
    for &(u, v, _) in edges.iter().rev() {
        below[u] += below[v];
    }
    // Every edge leaving `min_side` items on its smaller side ranks above
    // every edge that does not; then the longer edge, then the first.
    let min_side = (m / 8).max(1);
    let rank = |&(_, v, len): &(usize, usize, f64)| {
        (below[v].min(m - below[v]).min(min_side), OrdF64(len))
    };
    let cut = edges
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| rank(a).cmp(&rank(b)).then(ib.cmp(ia)))
        .map(|(i, _)| i)
        .expect("at least one edge");
    // Side 1 is the subtree below the cut edge's child.
    let mut side = vec![0u8; m];
    side[edges[cut].1] = 1;
    for &(u, v, _) in &edges[cut + 1..] {
        side[v] = side[u];
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_metric::{Euclidean, Levenshtein};

    fn line_points(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64, 0.0]).collect()
    }

    fn tree(pts: &[Vec<f64>], cap: usize) -> SlimTree<Vec<f64>, Euclidean> {
        SlimTree::build(
            pts.to_vec(),
            (0..pts.len() as u32).collect(),
            Euclidean,
            cap,
        )
    }

    #[test]
    fn invariants_hold_after_many_splits() {
        let pts = line_points(500);
        let t = tree(&pts, 4);
        assert_eq!(t.check_invariants(), 500);
    }

    #[test]
    fn range_count_matches_brute_force_on_line() {
        let pts = line_points(200);
        let t = tree(&pts, 8);
        for q in [0usize, 37, 99, 199] {
            for r in [0.0, 0.5, 1.0, 5.0, 50.0, 500.0] {
                let want = pts
                    .iter()
                    .filter(|p| Euclidean.distance(*p, &pts[q]) <= r)
                    .count();
                assert_eq!(t.range_count(&pts[q], r), want, "q={q} r={r}");
            }
        }
    }

    #[test]
    fn range_ids_sorted_and_complete() {
        let pts = line_points(50);
        let t = tree(&pts, 4);
        let mut out = Vec::new();
        t.range_ids(&pts[10], 2.5, &mut out);
        assert_eq!(out, vec![8, 9, 10, 11, 12]);
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = line_points(100);
        let t = tree(&pts, 4);
        let nn = t.knn(&pts[30], 5);
        let ids: Vec<u32> = nn.iter().map(|n| n.id).collect();
        // distance ties (29,31) and (28,32) resolve by id.
        assert_eq!(ids, vec![30, 29, 31, 28, 32]);
        assert_eq!(nn[0].dist, 0.0);
        assert_eq!(nn[4].dist, 2.0);
    }

    #[test]
    fn knn_with_external_query_point() {
        let pts = line_points(10);
        let t = tree(&pts, 4);
        let q = vec![3.4, 0.0];
        let nn = t.knn(&q, 2);
        assert_eq!(nn[0].id, 3);
        assert_eq!(nn[1].id, 4);
    }

    #[test]
    fn duplicate_points_are_all_counted() {
        let pts = vec![vec![1.0, 1.0]; 20];
        let t = tree(&pts, 4);
        assert_eq!(t.range_count(&vec![1.0, 1.0], 0.0), 20);
        assert_eq!(t.check_invariants(), 20);
        assert_eq!(t.diameter_estimate(), 0.0);
    }

    #[test]
    fn empty_tree_queries() {
        let pts: Vec<Vec<f64>> = vec![];
        let t = SlimTree::build(pts.clone(), vec![], Euclidean, 8);
        assert_eq!(t.range_count(&vec![0.0, 0.0], 1.0), 0);
        assert!(t.knn(&vec![0.0, 0.0], 3).is_empty());
        assert_eq!(t.diameter_estimate(), 0.0);
    }

    #[test]
    fn diameter_estimate_bounds() {
        let pts = line_points(300);
        let t = tree(&pts, 8);
        let exact = 299.0;
        let est = t.diameter_estimate();
        // An upper bound, and not absurdly above.
        assert!(est >= exact, "est={est}");
        assert!(est <= exact * 3.0, "est={est}");
    }

    #[test]
    fn works_with_string_metric() {
        let words: Vec<String> = ["cat", "car", "cart", "dog", "dot", "zebra"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let t = SlimTree::build(words.clone(), (0..6).collect(), Levenshtein, 4);
        // Within distance 1 of "cat": cat, car, cart.
        assert_eq!(t.range_count(&"cat".to_string(), 1.0), 3);
        let nn = t.knn(&"dig".to_string(), 2);
        assert_eq!(nn[0].id, 3); // dog (distance 1)
    }

    #[test]
    fn subset_build_reports_original_ids() {
        let pts = line_points(10);
        let t = SlimTree::build(pts.clone(), vec![2, 4, 6, 8], Euclidean, 4);
        let mut out = Vec::new();
        t.range_ids(&pts[4], 2.0, &mut out);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(t.len(), 4);
    }

    /// The row-major distance matrix of points on a line.
    fn line_matrix(pos: &[f64]) -> Vec<f64> {
        pos.iter()
            .flat_map(|a| pos.iter().map(move |b| (a - b).abs()))
            .collect()
    }

    #[test]
    fn mst_split_keeps_an_eighth_on_each_side() {
        // 32 entries one apart and one far away: the longest edge would
        // peel the far entry off alone, leaving a chain of one-entry nodes.
        let mut pos: Vec<f64> = (0..32).map(f64::from).collect();
        pos.push(1000.0);
        let m = pos.len();
        let side = mst_split(&line_matrix(&pos), m);
        let ones = side.iter().filter(|&&s| s == 1).count();
        assert!(ones.min(m - ones) >= m / 8, "sides {ones} and {}", m - ones);
        // Every kept edge is one apart, so the cut is the first that
        // qualifies, and the far entry stays with its neighbor.
        assert_eq!(side[31], side[32]);
        // Small nodes split at the longest edge, as before.
        let pos = [0.0, 1.0, 2.0, 3.0, 100.0];
        assert_eq!(mst_split(&line_matrix(&pos), 5), [0, 0, 0, 0, 1]);
    }

    #[test]
    fn mst_split_with_equal_edges_is_deterministic() {
        // Every pair equally far apart: Prim grows a star from entry 0,
        // every edge cuts one entry off, and no edge leaves m / 8 on both
        // sides; the most balanced, longest, first edge is cut.
        let m = 33;
        let dm: Vec<f64> = (0..m * m)
            .map(|k| if k / m == k % m { 0.0 } else { 1.0 })
            .collect();
        let side = mst_split(&dm, m);
        assert_eq!(side, mst_split(&dm, m));
        assert!(side.contains(&0) && side.contains(&1));
        assert_eq!(side.iter().filter(|&&s| s == 1).count(), 1);
        assert_eq!(side[1], 1);
        // A line of equal steps: the first edge with four entries behind it.
        let pos: Vec<f64> = (0..m).map(|i| i as f64).collect();
        let side = mst_split(&line_matrix(&pos), m);
        let want: Vec<u8> = (0..m).map(|i| u8::from(i >= 4)).collect();
        assert_eq!(side, want);
    }

    #[test]
    fn full_nodes_do_not_grow_chains() {
        // Default capacity over a line with a far point every 50: the
        // tree stays valid, and few leaves hold a single point.
        let pts: Vec<Vec<f64>> = (0..2000)
            .map(|i| {
                vec![
                    if i % 50 == 0 {
                        1e4 + i as f64
                    } else {
                        i as f64
                    },
                    0.0,
                ]
            })
            .collect();
        let t = tree(&pts, 32);
        assert_eq!(t.check_invariants(), 2000);
        let leaves: Vec<usize> = t
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Leaf(v) => Some(v.len()),
                Node::Internal(_) => None,
            })
            .collect();
        let singles = leaves.iter().filter(|&&l| l == 1).count();
        assert!(
            singles * 10 < leaves.len(),
            "{singles} of {} leaves",
            leaves.len()
        );
    }

    #[test]
    fn mst_split_separates_two_blobs() {
        // 4 items: {0,1} close, {2,3} close, far apart.
        let pos = [0.0f64, 0.5, 10.0, 10.5];
        let m = 4;
        let mut dm = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                dm[i * m + j] = (pos[i] - pos[j]).abs();
            }
        }
        let side = mst_split(&dm, m);
        assert_eq!(side[0], side[1]);
        assert_eq!(side[2], side[3]);
        assert_ne!(side[0], side[2]);
    }
}
