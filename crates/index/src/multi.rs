//! Shared machinery for the single-traversal multi-radius count
//! ([`RangeIndex::multi_range_count_within`](crate::RangeIndex::multi_range_count_within)).
//!
//! All three backends share the same accounting scheme. The radius grid is
//! ascending, so a point at distance `d` contributes to every column `k`
//! with `d <= radii[k]` — a *suffix* of the grid. Contributions are
//! therefore recorded in a difference array: adding `c` to columns
//! `[k, hi)` is `diff[k] += c; diff[hi] -= c`, and the per-column counts
//! fall out as prefix sums at the end. The upper bound `hi` is the
//! caller's *window*: columns at or beyond it were already bulk-added by
//! an ancestor whose subtree was wholly covered there (or are no longer
//! needed), so a node only ever accounts for the window it was handed —
//! no column is ever double-counted.
//!
//! The sparse-focused cutoff `cap` turns into a shrinking watermark
//! [`MultiCounter::hi_cap`]: once the running count at some column `f`
//! exceeds `cap`, every later column is guaranteed to end
//! [`OVER`](crate::OVER), so traversals stop refining them (the early
//! exit of Sec. IV-G, applied per query instead of per join). Column `f`
//! itself, the *crossing column*, is refined only up to its crossing
//! ceiling `ceil[f]`: the caller reads nothing beyond `min(count,
//! ceil[f])` there. So the watermark is `f` once `running[f] >= ceil[f]`
//! (the crossing column is settled), `f + 1` before that, and `m` while
//! no column exceeds `cap`; the amortized rescans in
//! [`MultiCounter::bump`] keep it so because every contribution also
//! feeds one running total.

use crate::{SmallCounts, OVER};

/// Per-query accumulator for a single-traversal multi-radius count.
///
/// Backends narrow their traversal window with their own geometric
/// predicates (kept textually identical to their `range_count` pruning so
/// results match bit for bit) and report contributions here.
pub(crate) struct MultiCounter<'c> {
    /// Difference array over columns: `diff[k] += c, diff[hi] -= c` adds
    /// `c` to every column in `[k, hi)`. Length `m + 1`.
    diff: Vec<i64>,
    /// The sparse-focused cutoff `c` of the query.
    cap: u32,
    /// Per-column crossing ceilings, each above `cap` or [`OVER`] (none);
    /// empty for none at all.
    ceil: &'c [u32],
    /// Columns `>= hi_cap` need no more refining: the ones after the
    /// crossing column end [`OVER`], and the crossing column itself once
    /// it is settled. Traversals clamp their window to it.
    hi_cap: usize,
    /// Total contribution mass added so far: every point, bulk subtree
    /// and counted leaf entry, once each. An upper bound on every running
    /// column count, used to amortize [`Self::bump`]; every `add_*` must
    /// feed it, or a skipped scan could miss a crossing or a settling.
    total: i64,
    /// Skip watermark scans until `total` reaches this: no column below
    /// the crossing can cross the cap, and an unsettled crossing column
    /// cannot reach its ceiling, before then.
    next_bump_at: i64,
    /// Point-to-point distance evaluations performed for this query.
    pub evals: u64,
    /// Scratch buffer of the current leaf's point distances (squared, for
    /// the kd-tree), so each distance is computed once per leaf visit and
    /// bucketing runs as one tight counting pass per window column
    /// instead of a branchy per-point search (leaves never recurse, so one
    /// buffer per query suffices).
    scratch: Vec<f64>,
    /// The Slim-tree's entry order stack, `(ball gap, distance, entry)`:
    /// an internal-node visit pushes its entries at the end, sorts its own
    /// slice, walks it by index, and truncates back on exit, so nested
    /// visits stack up without an allocation or array per visit.
    pub order: Vec<(f64, f64, u32)>,
}

impl<'c> MultiCounter<'c> {
    /// An accumulator for `m` radii with sparse-focused cutoff `cap` and
    /// crossing ceilings `ceil`: one per radius, each above `cap` or
    /// [`OVER`] for none, or empty for exact crossing counts.
    pub fn new(m: usize, cap: u32, ceil: &'c [u32]) -> Self {
        debug_assert!(ceil.is_empty() || ceil.len() == m);
        debug_assert!(ceil.iter().all(|&t| t > cap || t == OVER));
        Self {
            diff: vec![0; m + 1],
            cap,
            ceil,
            hi_cap: m,
            total: 0,
            next_bump_at: cap as i64 + 1,
            evals: 0,
            scratch: Vec::new(),
            order: Vec::new(),
        }
    }

    /// The (cleared) leaf-scan scratch buffer: fill it with the distances
    /// of one leaf's points, then call [`Self::add_leaf`].
    #[inline]
    pub fn scratch_mut(&mut self) -> &mut Vec<f64> {
        self.scratch.clear();
        &mut self.scratch
    }

    /// Buckets the scratch distances into columns `[lo, hi)`, where
    /// `radii_win` is the window's slice of the (ascending) radius grid:
    /// column `lo + j` receives the number of scratch entries
    /// `<= radii_win[j]` — one branch-free counting pass per column, the
    /// same inner loop shape as a per-radius `range_count` leaf scan.
    /// Distances beyond the window's largest radius contribute nothing
    /// (their columns were bulk-added by an ancestor or are past the
    /// watermark), and the passes stop once every entry is counted. The
    /// counted entries join `total`, so the [`Self::bump`] it ends with
    /// sees them.
    pub fn add_leaf(&mut self, radii_win: &[f64], lo: usize, hi: usize) {
        debug_assert_eq!(radii_win.len(), hi - lo);
        let all = self.scratch.len() as i64;
        let mut prev = 0i64;
        for (j, &r) in radii_win.iter().enumerate() {
            let c = self.scratch.iter().filter(|&&d| d <= r).count() as i64;
            // Cumulative counts: column j gets everything within its
            // radius, so only the increment over column j-1 is new.
            let delta = c - prev;
            if delta != 0 {
                self.diff[lo + j] += delta;
                self.diff[hi] -= delta;
            }
            prev = c;
            if c == all {
                // Every entry counted: later columns add nothing.
                break;
            }
        }
        self.total += prev;
        self.bump();
    }

    /// Current watermark: the window upper bound traversals should clamp to.
    #[inline]
    pub fn hi_cap(&self) -> usize {
        self.hi_cap
    }

    /// Records one point contributing to columns `[k, hi)`.
    #[inline]
    pub fn add_point(&mut self, k: usize, hi: usize) {
        self.diff[k] += 1;
        self.diff[hi] -= 1;
        self.total += 1;
    }

    /// Records a wholly covered subtree of `count` points contributing to
    /// columns `[k, hi)`.
    #[inline]
    pub fn add_subtree(&mut self, k: usize, hi: usize, count: u32) {
        self.diff[k] += count as i64;
        self.diff[hi] -= count as i64;
        self.total += count as i64;
    }

    /// The crossing ceiling of column `k` ([`OVER`] when there are none).
    #[inline]
    fn ceiling(&self, k: usize) -> i64 {
        self.ceil.get(k).map_or(OVER, |&t| t) as i64
    }

    /// Re-derives the watermark from the running counts. Called once per
    /// leaf scan or bulk-add, and amortized to `O(1)`: `total` bounds
    /// every running column count from above, so the scan is skipped
    /// entirely until enough new mass has arrived that some column below
    /// the watermark *could* have crossed the cap, or an unsettled
    /// crossing column *could* have reached its ceiling. The skip is
    /// re-armed after every scan over the columns it still watches.
    #[inline]
    pub fn bump(&mut self) {
        if self.total < self.next_bump_at {
            return;
        }
        let cap = self.cap as i64;
        let mut running = 0i64;
        let mut max_running = 0i64;
        let mut to_settle = i64::MAX;
        for k in 0..self.hi_cap {
            running += self.diff[k];
            if running > cap {
                // Running counts only grow, so the final count at column k
                // also exceeds cap: every column after it ends OVER. Once
                // column k holds its ceiling, the value finish() stores
                // there is fixed too. The columns before k are all at or
                // under the cap, and only they (and an unsettled k) can
                // move the watermark again.
                let t = self.ceiling(k);
                if running >= t {
                    self.hi_cap = k;
                } else {
                    self.hi_cap = k + 1;
                    to_settle = t - running;
                }
                break;
            }
            max_running = max_running.max(running);
        }
        // The best-placed column below the crossing still needs this much
        // more mass before it can cross, and an unsettled crossing column
        // `to_settle` before it reaches its ceiling: skip the scans until
        // the nearer of the two.
        self.next_bump_at = self.total + (cap + 1 - max_running).min(to_settle);
    }

    /// Prefix-sums the difference array into per-column counts and applies
    /// the sparse-focused mask: the first count exceeding `cap` is stored
    /// as `min(count, ceil[k])`, and the entries after it become
    /// [`OVER`]. Columns past the crossing are never read, and the
    /// crossing column is exact below its ceiling: the watermark keeps it
    /// refined until its running count reaches the ceiling.
    pub fn finish(&self) -> SmallCounts {
        let m = self.diff.len() - 1;
        let mut out = SmallCounts::filled(m, OVER);
        let slots = out.as_mut_slice();
        let mut running = 0i64;
        for (k, d) in self.diff[..m].iter().enumerate() {
            running += d;
            debug_assert!((0..=u32::MAX as i64).contains(&running));
            if running > self.cap as i64 {
                slots[k] = running.min(self.ceiling(k)) as u32;
                break;
            }
            slots[k] = running as u32;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn finish_masks_after_first_crossing() {
        let mut c = MultiCounter::new(4, 2, &[]);
        // Counts 1, 3, 5, 7: crossing at column 1.
        c.add_point(0, 4);
        c.add_subtree(1, 4, 2);
        c.add_subtree(2, 4, 2);
        c.add_subtree(3, 4, 2);
        let got = c.finish();
        assert_eq!(got.as_slice(), &[1, 3, OVER, OVER]);
    }

    #[test]
    fn bump_shrinks_watermark_monotonically() {
        let mut c = MultiCounter::new(5, 3, &[]);
        assert_eq!(c.hi_cap(), 5);
        c.add_subtree(2, 5, 4); // columns 2.. run at 4 > 3
        c.bump();
        assert_eq!(c.hi_cap(), 3);
        c.add_subtree(0, 3, 10); // columns 0.. now over too
        c.bump();
        assert_eq!(c.hi_cap(), 1);
        // Column 0's exact value is still tracked (it is the crossing);
        // the earlier bulk-add only covered columns [2, 5).
        assert_eq!(c.finish().as_slice(), &[10, OVER, OVER, OVER, OVER]);
    }

    #[test]
    fn settled_crossing_column_stops_the_watermark_at_it() {
        let ceil = [4, 4, 4, 4];
        let mut c = MultiCounter::new(4, 2, &ceil);
        c.add_subtree(1, 4, 3); // column 1 crosses at 3 < 4: unsettled
        c.bump();
        assert_eq!(c.hi_cap(), 2);
        c.add_subtree(1, 2, 2); // 5 >= 4: settled, the window drops it
        c.bump();
        assert_eq!(c.hi_cap(), 1);
        // The crossing cell holds the ceiling, not the running 5.
        assert_eq!(c.finish().as_slice(), &[0, 4, OVER, OVER]);
        // Below the ceiling it is exact.
        let mut c = MultiCounter::new(4, 2, &ceil);
        c.add_subtree(1, 4, 3);
        c.bump();
        assert_eq!(c.finish().as_slice(), &[0, 3, OVER, OVER]);
    }

    #[test]
    fn uncapped_counts_are_fully_exact() {
        let mut c = MultiCounter::new(3, u32::MAX, &[]);
        c.add_point(0, 3);
        c.add_point(2, 3);
        c.bump();
        assert_eq!(c.hi_cap(), 3);
        assert_eq!(c.finish().as_slice(), &[1, 1, 2]);
    }

    /// One counter operation: `(kind, window start, window length,
    /// subtree size, leaf distances in half units)`.
    fn op() -> impl Strategy<Value = (u8, usize, usize, u32, Vec<u8>)> {
        (
            0u8..3,
            0usize..16,
            0usize..16,
            0u32..8,
            prop::collection::vec(0u8..26, 0..8),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn watermark_matches_an_always_rescan_reference(
            m in 1usize..12,
            cap in 0u32..24,
            ops in prop::collection::vec(op(), 0..40),
            with_ceilings in 0u8..2,
            steps in prop::collection::vec(1u32..12, 12),
        ) {
            // Column k's radius is k and leaf distances step by 0.5, so
            // half of them land exactly on a radius (the `<=` ties).
            let radii: Vec<f64> = (0..m).map(|k| k as f64).collect();
            // No ceilings, or one per column a little above the cap, with
            // an occasional column left without one.
            let ceil: Vec<u32> = if with_ceilings == 0 {
                Vec::new()
            } else {
                steps[..m]
                    .iter()
                    .map(|&d| if d == 11 { OVER } else { cap + d })
                    .collect()
            };
            let ceiling = |k: usize| ceil.get(k).map_or(u64::from(OVER), |&t| u64::from(t));
            let mut c = MultiCounter::new(m, cap, &ceil);
            let mut counts = vec![0u64; m];
            let mut prev = c.hi_cap();
            for (kind, at, width, size, halves) in ops {
                let lo = at % m;
                let hi = lo + 1 + width % (m - lo);
                match kind {
                    0 => {
                        c.add_point(lo, hi);
                        counts[lo..hi].iter_mut().for_each(|n| *n += 1);
                    }
                    1 => {
                        c.add_subtree(lo, hi, size);
                        counts[lo..hi].iter_mut().for_each(|n| *n += size as u64);
                    }
                    _ => {
                        let dists: Vec<f64> = halves.iter().map(|&h| h as f64 * 0.5).collect();
                        c.scratch_mut().extend_from_slice(&dists);
                        c.add_leaf(&radii[lo..hi], lo, hi);
                        for (n, &r) in counts[lo..hi].iter_mut().zip(&radii[lo..hi]) {
                            *n += dists.iter().filter(|&&d| d <= r).count() as u64;
                        }
                    }
                }
                c.bump();
                // Always rescanning: the first column over the cap once it
                // holds its ceiling, one past it before that, else every
                // column.
                let want = counts
                    .iter()
                    .position(|&n| n > cap as u64)
                    .map_or(m, |f| if counts[f] >= ceiling(f) { f } else { f + 1 });
                prop_assert_eq!(c.hi_cap(), want);
                prop_assert!(c.hi_cap() <= prev);
                prev = c.hi_cap();
            }
            let mut want = vec![OVER; m];
            for (k, (w, &n)) in want.iter_mut().zip(&counts).enumerate() {
                if n > cap as u64 {
                    *w = n.min(ceiling(k)) as u32;
                    break;
                }
                *w = n as u32;
            }
            let got = c.finish();
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }
    }
}
