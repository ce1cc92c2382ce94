//! Count-only spatial joins (Sec. IV-G of the paper).
//!
//! MCCATCH's hot loop is "for each point, how many neighbors within `r`?" —
//! a *self-join adapted to return only counts of neighbors, not pairs of
//! neighboring points* (Alg. 2). These helpers run such joins through any
//! [`RangeIndex`], optionally in parallel: queries are independent, so each
//! worker thread fills a disjoint slice of the output and the result is
//! bit-identical regardless of thread count.

use crate::{RangeIndex, OVER};

/// Upper bound on worker threads for batch joins. Chosen once per process.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Counts, for every query id in `queries`, the number of indexed elements
/// within `radius` (the count-only join `SELFJOINC`/`JOINC` of Alg. 2/4).
///
/// `queries` are ids into `points`; the output is aligned with `queries`.
/// With `threads <= 1` the join runs serially.
pub fn batch_range_count<P, I>(
    index: &I,
    points: &[P],
    queries: &[u32],
    radius: f64,
    threads: usize,
) -> Vec<usize>
where
    P: Sync,
    I: RangeIndex<P>,
{
    let mut out = vec![0usize; queries.len()];
    let threads = threads.clamp(1, queries.len().max(1));
    if threads == 1 || queries.len() < 256 {
        for (slot, &q) in out.iter_mut().zip(queries) {
            *slot = index.range_count(&points[q as usize], radius);
        }
        return out;
    }
    let chunk = queries.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (qchunk, ochunk) in queries.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (slot, &q) in ochunk.iter_mut().zip(qchunk) {
                    *slot = index.range_count(&points[q as usize], radius);
                }
            });
        }
    });
    out
}

/// Counts, for every query id in `queries` and every radius of `radii`
/// (ascending), the number of indexed elements within that radius — the
/// single-traversal replacement for one [`batch_range_count`] call per
/// radius: the query set is partitioned across threads **once**, and each
/// query descends the index once via
/// [`RangeIndex::multi_range_count`], filling all its radius columns
/// simultaneously.
///
/// Returns a row-major `queries.len() × radii.len()` matrix aligned with
/// `queries`. `cap` is the sparse-focused cutoff: in each row, the first
/// count exceeding `cap` is exact and every later column holds
/// [`OVER`] (see `multi_range_count`). Workers fill disjoint
/// row chunks, so the result is bit-identical regardless of `threads`.
/// [`batch_multi_range_count_into`] is the ceiling-aware form.
pub fn batch_multi_range_count<P, I>(
    index: &I,
    points: &[P],
    queries: &[u32],
    radii: &[f64],
    cap: u32,
    threads: usize,
) -> Vec<u32>
where
    P: Sync,
    I: RangeIndex<P>,
{
    let m = radii.len();
    let mut out = vec![OVER; queries.len() * m];
    batch_multi_range_count_into(
        index,
        points,
        queries,
        radii,
        cap,
        &[],
        threads,
        &mut out,
        m,
    );
    out
}

/// [`batch_multi_range_count`] with crossing ceilings, writing into a
/// caller-provided buffer: query `i`'s counts land in
/// `out[i * stride .. i * stride + radii.len()]` (cells between
/// `radii.len()` and `stride` are left untouched). This lets callers with
/// wider rows — like `count_neighbors`' `n × a` table, whose last column
/// is filled without a join — receive the counts in place instead of
/// copying an `n × (a-1)` intermediate.
///
/// Each row is [`RangeIndex::multi_range_count_within`]`(q, radii, cap,
/// ceil)`: its first count exceeding `cap`, at column `k`, is stored as
/// `min(count, ceil[k])`. Empty `ceil` keeps it exact.
///
/// # Panics
/// Panics if `stride < radii.len()` or `out.len() != queries.len() * stride`.
#[allow(clippy::too_many_arguments)] // the destination pair is the point
pub fn batch_multi_range_count_into<P, I>(
    index: &I,
    points: &[P],
    queries: &[u32],
    radii: &[f64],
    cap: u32,
    ceil: &[u32],
    threads: usize,
    out: &mut [u32],
    stride: usize,
) where
    P: Sync,
    I: RangeIndex<P>,
{
    let m = radii.len();
    assert!(stride >= m, "stride {stride} narrower than {m} radii");
    assert_eq!(out.len(), queries.len() * stride, "output size mismatch");
    if m == 0 || queries.is_empty() {
        return;
    }
    let threads = threads.clamp(1, queries.len().max(1));
    let fill = |rows: &mut [u32], qchunk: &[u32]| {
        for (row, &q) in rows.chunks_mut(stride).zip(qchunk) {
            let counts = index.multi_range_count_within(&points[q as usize], radii, cap, ceil);
            row[..m].copy_from_slice(&counts);
        }
    };
    if threads == 1 || queries.len() < 256 {
        fill(out, queries);
        return;
    }
    let chunk = queries.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (qchunk, ochunk) in queries.chunks(chunk).zip(out.chunks_mut(chunk * stride)) {
            scope.spawn(|| fill(ochunk, qchunk));
        }
    });
}

/// Pair-returning self-join used only for microcluster gelling (Alg. 3
/// line 12): all pairs `(a, b)` with `a < b`, both in the index, within
/// `radius` of each other. The candidate set is tiny (`|M|` outliers), so
/// this runs serially; pairs come out sorted and deduplicated.
pub fn pair_join<P, I>(index: &I, points: &[P], members: &[u32], radius: f64) -> Vec<(u32, u32)>
where
    P: Sync,
    I: RangeIndex<P>,
{
    let mut pairs = Vec::new();
    let mut hits = Vec::new();
    for &a in members {
        hits.clear();
        index.range_ids(&points[a as usize], radius, &mut hits);
        for &b in &hits {
            if b > a {
                pairs.push((a, b));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BruteForce;
    use mccatch_metric::Euclidean;

    fn line(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64]).collect()
    }

    #[test]
    fn batch_count_serial_matches_manual() {
        let pts = line(20);
        let idx = BruteForce::new(pts.clone(), (0..20).collect(), Euclidean);
        let queries: Vec<u32> = (0..20).collect();
        let counts = batch_range_count(&idx, &pts, &queries, 1.0, 1);
        // Interior points see 3 neighbors (self + 2), endpoints see 2.
        assert_eq!(counts[0], 2);
        assert_eq!(counts[10], 3);
        assert_eq!(counts[19], 2);
    }

    #[test]
    fn batch_count_parallel_equals_serial() {
        let pts = line(1000);
        let idx = BruteForce::new(pts.clone(), (0..1000).collect(), Euclidean);
        let queries: Vec<u32> = (0..1000).collect();
        let serial = batch_range_count(&idx, &pts, &queries, 3.0, 1);
        let parallel = batch_range_count(&idx, &pts, &queries, 3.0, 8);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn batch_count_subset_queries() {
        let pts = line(10);
        let idx = BruteForce::new(pts.clone(), (0..10).collect(), Euclidean);
        let queries = vec![0u32, 9u32];
        let counts = batch_range_count(&idx, &pts, &queries, 100.0, 1);
        assert_eq!(counts, vec![10, 10]);
    }

    #[test]
    fn batch_multi_parallel_equals_serial_and_masks_over() {
        let pts = line(1000);
        let idx = BruteForce::new(pts.clone(), (0..1000).collect(), Euclidean);
        let queries: Vec<u32> = (0..1000).collect();
        let radii = [0.5, 1.5, 4.5, 20.5];
        let serial = batch_multi_range_count(&idx, &pts, &queries, &radii, 5, 1);
        let parallel = batch_multi_range_count(&idx, &pts, &queries, &radii, 5, 8);
        assert_eq!(serial, parallel);
        // Interior point: counts 1, 3, 9 — 9 > 5 is the exact crossing,
        // the last column is OVER.
        assert_eq!(&serial[500 * 4..501 * 4], &[1, 3, 9, crate::OVER]);
    }

    #[test]
    fn batch_multi_into_respects_stride_and_untouched_cells() {
        let pts = line(10);
        let idx = BruteForce::new(pts.clone(), (0..10).collect(), Euclidean);
        let queries = [0u32, 5];
        let radii = [1.0, 2.0];
        let mut out = vec![77u32; queries.len() * 5];
        batch_multi_range_count_into(&idx, &pts, &queries, &radii, 100, &[], 1, &mut out, 5);
        // Endpoint 0: 2 and 3 in range; interior 5: 3 and 5. Cells past
        // the radii stay as the caller initialized them.
        assert_eq!(out, vec![2, 3, 77, 77, 77, 3, 5, 77, 77, 77]);
    }

    #[test]
    fn batch_multi_into_clamps_the_crossing_to_its_ceiling() {
        let pts = line(1000);
        let idx = BruteForce::new(pts.clone(), (0..1000).collect(), Euclidean);
        let queries: Vec<u32> = (0..1000).collect();
        let radii = [0.5, 1.5, 4.5, 20.5];
        let mut out = vec![OVER; queries.len() * radii.len()];
        batch_multi_range_count_into(&idx, &pts, &queries, &radii, 5, &[6; 4], 8, &mut out, 4);
        // The interior crossing 9 > 5 is stored as its ceiling 6.
        assert_eq!(&out[500 * 4..501 * 4], &[1, 3, 6, OVER]);
        let exact = batch_multi_range_count(&idx, &pts, &queries, &radii, 5, 1);
        for (got, want) in out.chunks(4).zip(exact.chunks(4)) {
            let k = want.iter().position(|&q| q > 5).unwrap();
            assert_eq!(got[..k], want[..k]);
            assert_eq!(got[k], want[k].min(6));
            assert_eq!(got[k + 1..], want[k + 1..]);
        }
    }

    #[test]
    fn batch_multi_empty_inputs() {
        let pts = line(4);
        let idx = BruteForce::new(pts.clone(), (0..4).collect(), Euclidean);
        assert!(batch_multi_range_count(&idx, &pts, &[], &[1.0], 3, 4).is_empty());
        assert_eq!(batch_multi_range_count(&idx, &pts, &[0], &[], 3, 4), vec![]);
    }

    #[test]
    fn pair_join_produces_sorted_unique_pairs() {
        let pts = line(6);
        // Index over {0, 1, 4, 5}; radius 1 links 0-1 and 4-5.
        let members = vec![0u32, 1, 4, 5];
        let idx = BruteForce::new(pts.clone(), members.clone(), Euclidean);
        let pairs = pair_join(&idx, &pts, &members, 1.0);
        assert_eq!(pairs, vec![(0, 1), (4, 5)]);
    }

    #[test]
    fn pair_join_empty_members() {
        let pts = line(6);
        let idx = BruteForce::new(pts.clone(), vec![], Euclidean);
        assert!(pair_join(&idx, &pts, &[], 1.0).is_empty());
    }
}
