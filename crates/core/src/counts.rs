//! Sparse-focused neighbor counting (Alg. 2 lines 1–3 plus the
//! implementation principles of Sec. IV-G).
//!
//! For each point and each radius of the grid we need the count of
//! neighbors *including self*, but only while the count is still at most
//! the maximum microcluster cardinality `c`:
//!
//! * **Sparse-focused principle** — radius `r_1` is counted for everyone;
//!   each subsequent radius is counted only for points whose previous count
//!   was `≤ c`. A point's first count above `c` is recorded (it is needed
//!   to locate the end of its last unexcused plateau), after which the
//!   point leaves the active set and its remaining cells hold [`OVER`].
//!   [`count_neighbors`] records that crossing count exactly;
//!   [`count_neighbors_within`] records `min(count, T_k)` for a crossing
//!   at radius `k`, where `T_k` is the least count that already decides
//!   the plateau test reading it
//!   ([`crossing_ceilings`](crate::plateau::crossing_ceilings)), and so
//!   stops counting that radius there. The two tables give the same
//!   plateaus.
//! * **Small-radii-only principle** — no join runs for `r_a = l`: every
//!   point is a neighbor of every other at the diameter, so the last column
//!   is filled with `n` directly.
//! * **Count-only principle** — the underlying joins return counts, never
//!   pairs (see `mccatch_index::batch_multi_range_count`).
//!
//! Since the radius grid is known up front, [`count_neighbors_within`]
//! runs **one single-traversal join** over all `a - 1` joined radii:
//! every point descends the tree once and fills all of its columns
//! simultaneously (`RangeIndex::multi_range_count_within`), instead of
//! re-descending once per radius. The historical per-radius formulation is kept as
//! [`count_neighbors_per_radius`] — it is the executable specification the
//! single-traversal path is tested (and benchmarked) against, and it
//! produces a [`CountTable`] bit-identical to the one of
//! [`count_neighbors`].

use mccatch_index::{batch_multi_range_count_into, batch_range_count, RangeIndex};

pub use mccatch_index::OVER;

/// Dense `n × a` table of neighbor counts, row per point, column per radius.
#[derive(Debug, Clone)]
pub struct CountTable {
    counts: Vec<u32>,
    n: usize,
    a: usize,
    /// Size of the active set before each radius' join — diagnostic for the
    /// sparse-focused principle (and for benchmarks).
    pub active_per_radius: Vec<usize>,
}

impl CountTable {
    /// The count row for point `i` (length `a`, entries may be [`OVER`]).
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.counts[i * self.a..(i + 1) * self.a]
    }

    /// Number of points.
    pub fn num_points(&self) -> usize {
        self.n
    }

    /// Number of radii.
    pub fn num_radii(&self) -> usize {
        self.a
    }
}

/// Runs the counting stage for every radius except the last, applying the
/// sparse-focused cutoff `c`. `index` must contain all `n` points of
/// `points`; counts include the query point itself. Each row's first
/// count above `c` is exact.
///
/// This is [`count_neighbors_within`] with no ceilings, and its output is
/// bit-identical to [`count_neighbors_per_radius`]: the exact oracle of
/// the clamped table.
pub fn count_neighbors<P, I>(
    index: &I,
    points: &[P],
    radii: &[f64],
    c: usize,
    threads: usize,
) -> CountTable
where
    P: Sync,
    I: RangeIndex<P>,
{
    count_neighbors_within(index, points, radii, c, &[], threads)
}

/// [`count_neighbors`] with a crossing ceiling per joined radius: `ceil`
/// holds one ceiling for each of `radii[..a - 1]`, each above `c` or
/// [`OVER`] (none), or is empty. A row whose first count above `c` falls
/// at radius `k` stores `min(count, ceil[k])` there; every other cell is
/// as in [`count_neighbors`]. With the ceilings of
/// [`crossing_ceilings`](crate::plateau::crossing_ceilings) the two
/// tables give the same Oracle plot, and this one costs at most as many
/// distance evaluations.
///
/// This is the **single-traversal** path (the hot loop of the whole
/// system): the active set is partitioned across threads once, and each
/// point fills all of its `a - 1` joined columns in one tree descent via
/// `RangeIndex::multi_range_count_within` — subtrees wholly inside a
/// suffix of the grid are bulk-added through their stored cardinality,
/// subtrees out of reach of every radius are skipped, columns that can
/// only end [`OVER`] stop being refined as soon as a running count
/// crosses `c`, and the crossing column stops once it reaches its
/// ceiling.
pub fn count_neighbors_within<P, I>(
    index: &I,
    points: &[P],
    radii: &[f64],
    c: usize,
    ceil: &[u32],
    threads: usize,
) -> CountTable
where
    P: Sync,
    I: RangeIndex<P>,
{
    let n = points.len();
    let a = radii.len();
    debug_assert!(a >= 2);
    let m = a - 1; // joined radii; r_a is filled directly
    let cap = c as u32;
    let queries: Vec<u32> = (0..n as u32).collect();
    // The join writes each point's m joined columns straight into its
    // a-wide row of the final table — no intermediate n × m buffer.
    let mut counts = vec![OVER; n * a];
    batch_multi_range_count_into(
        index,
        points,
        &queries,
        &radii[..m],
        cap,
        ceil,
        threads,
        &mut counts,
        a,
    );

    let mut active_per_radius = vec![0usize; m];
    for row in counts.chunks_mut(a) {
        // A point is active at radius k iff every earlier count stayed
        // <= c, i.e. its column k was computed at all (row semantics of
        // multi_range_count). Radius 0 is counted for everyone.
        active_per_radius[0] += 1;
        for (k, &q) in row[..m - 1].iter().enumerate() {
            if q == OVER || q > cap {
                break;
            }
            active_per_radius[k + 1] += 1;
        }
        // Small-radii-only principle: q_a = n without a join, for points
        // whose counts were still being tracked (the rest stay OVER, which
        // is equally informative: their count exceeded c earlier).
        let last = row[m - 1];
        if last != OVER && last <= cap {
            row[m] = n as u32;
        }
    }
    CountTable {
        counts,
        n,
        a,
        active_per_radius,
    }
}

/// The historical per-radius formulation of the counting stage: one
/// count-only join per radius, each re-descending the tree for every
/// still-active point. Kept as the executable specification of
/// [`count_neighbors`] (property tests assert bit-identical
/// [`CountTable`]s) and as the baseline perfbench's `--trace 1` sweep
/// times the single-traversal path against
/// (`core.{ds}.count_per_radius_ms`). Its crossing counts are exact.
/// Prefer [`count_neighbors_within`] everywhere else.
pub fn count_neighbors_per_radius<P, I>(
    index: &I,
    points: &[P],
    radii: &[f64],
    c: usize,
    threads: usize,
) -> CountTable
where
    P: Sync,
    I: RangeIndex<P>,
{
    let n = points.len();
    let a = radii.len();
    debug_assert!(a >= 2);
    let mut counts = vec![OVER; n * a];
    let mut active: Vec<u32> = (0..n as u32).collect();
    let mut active_per_radius = Vec::with_capacity(a);
    let cap = c as u32;
    for (k, &r) in radii.iter().enumerate().take(a - 1) {
        active_per_radius.push(active.len());
        if active.is_empty() {
            break;
        }
        let batch = batch_range_count(index, points, &active, r, threads);
        let mut next_active = Vec::with_capacity(active.len());
        for (&i, &q) in active.iter().zip(&batch) {
            counts[i as usize * a + k] = q as u32;
            if q as u32 <= cap {
                next_active.push(i);
            }
        }
        active = next_active;
    }
    for &i in &active {
        counts[i as usize * a + (a - 1)] = n as u32;
    }
    while active_per_radius.len() < a - 1 {
        active_per_radius.push(0);
    }
    CountTable {
        counts,
        n,
        a,
        active_per_radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_index::BruteForce;
    use mccatch_metric::Euclidean;

    /// 1-d layout: a tight pair {0, 0.001}, a mid point at 1, far point at 100.
    fn pts() -> Vec<Vec<f64>> {
        vec![vec![0.0], vec![0.001], vec![1.0], vec![100.0]]
    }

    fn table(c: usize) -> CountTable {
        let p = pts();
        let idx = BruteForce::new(p.clone(), (0..4).collect(), Euclidean);
        // Radii: 12.5, 25, 50, 100 won't see the structure; use a denser grid.
        let radii = vec![0.01, 0.1, 1.0, 10.0, 100.0];
        count_neighbors(&idx, &p, &radii, c, 1)
    }

    #[test]
    fn counts_match_manual_computation() {
        let t = table(100);
        // Point 0 (at 0.0): r=0.01 -> {0,1}; r=0.1 -> {0,1}; r=1 -> {0,1,2};
        // r=10 -> {0,1,2}; r=100 -> all (filled as n).
        assert_eq!(t.row(0), &[2, 2, 3, 3, 4]);
        // Point 2 (at 1.0): r=0.01 -> self; r=0.1 -> self; r=1 -> {0,1,2}.
        assert_eq!(t.row(2), &[1, 1, 3, 3, 4]);
        // Point 3 (at 100): alone until the final radius.
        assert_eq!(t.row(3), &[1, 1, 1, 1, 4]);
    }

    #[test]
    fn sparse_focus_drops_points_above_c() {
        let t = table(2);
        // Point 0 crosses c=2 at radius index 2 (count 3): that value is
        // recorded exactly, later cells are OVER.
        assert_eq!(t.row(0), &[2, 2, 3, OVER, OVER]);
        // Point 3 never crosses, so its last column is n.
        assert_eq!(t.row(3), &[1, 1, 1, 1, 4]);
    }

    #[test]
    fn active_set_shrinks() {
        let t = table(2);
        // Radii joins: all 4 active at first three radii (counts <= 2 until
        // index 2), then points 0,1,2 (counts 3) drop out, leaving 1 active.
        assert_eq!(t.active_per_radius, vec![4, 4, 4, 1]);
    }

    #[test]
    fn last_radius_never_joined() {
        // With c = n the last column must be n for every point even though
        // no join ran at r_a.
        let t = table(4);
        for i in 0..4 {
            assert_eq!(t.row(i)[4], 4);
        }
    }

    #[test]
    fn counts_are_non_decreasing_until_over() {
        let t = table(3);
        for i in 0..4 {
            let row = t.row(i);
            let mut prev = 0;
            for &q in row.iter().take_while(|&&q| q != OVER) {
                assert!(q >= prev);
                prev = q;
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let p: Vec<Vec<f64>> = (0..500).map(|i| vec![(i % 71) as f64]).collect();
        let idx = BruteForce::new(p.clone(), (0..500).collect(), Euclidean);
        let radii = vec![0.5, 2.0, 8.0, 32.0, 128.0];
        let a = count_neighbors(&idx, &p, &radii, 50, 1);
        let b = count_neighbors(&idx, &p, &radii, 50, 8);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn single_traversal_matches_per_radius_reference() {
        let p: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![((i * 37) % 101) as f64, ((i * 53) % 89) as f64])
            .collect();
        let idx = BruteForce::new(p.clone(), (0..300).collect(), Euclidean);
        let radii = vec![0.5, 2.0, 8.0, 32.0, 128.0, 512.0];
        for c in [1usize, 5, 30, 300] {
            for threads in [1usize, 4] {
                let new = count_neighbors(&idx, &p, &radii, c, threads);
                let old = count_neighbors_per_radius(&idx, &p, &radii, c, 1);
                assert_eq!(new.counts, old.counts, "c={c} threads={threads}");
                assert_eq!(
                    new.active_per_radius, old.active_per_radius,
                    "c={c} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn both_paths_handle_empty_input() {
        let p: Vec<Vec<f64>> = vec![];
        let idx = BruteForce::new(p.clone(), vec![], Euclidean);
        let radii = vec![1.0, 2.0];
        let new = count_neighbors(&idx, &p, &radii, 3, 1);
        let old = count_neighbors_per_radius(&idx, &p, &radii, 3, 1);
        assert_eq!(new.counts, old.counts);
        assert_eq!(new.active_per_radius, old.active_per_radius);
        assert_eq!(new.num_points(), 0);
    }
}
