//! Plateau detection (Def. 1–3): turning a point's neighbor-count curve
//! into its 1NN Distance (first plateau) and Group 1NN Distance (middle
//! plateau).
//!
//! A *plateau* is a maximal range of radii where the count stays
//! quasi-unaltered — every log-log slope within the range is at most `b` —
//! spanning at least two radii, whose starting height is at most `c`
//! (taller plateaus are "excused": they describe clusters too big to be
//! microclusters). The *first plateau* is the one of height 1; the *middle
//! plateau* is the longest one with height above 1 that does not run into
//! the final radius.
//!
//! [`crossing_ceilings`] states how much of a point's first count above
//! `c` the sweep can read, so the counting stage can stop refining it
//! there.

use crate::counts::OVER;

/// The plateaus of one point, expressed as radius-grid indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PointPlateaus {
    /// End index of the first plateau (its start is always radius 0).
    /// `None` when the point has a neighbor already at `r_1` (the grid is
    /// too coarse to see the first plateau; Alg. 2 then uses `x_i = 0`),
    /// or when the height-1 run spans a single radius.
    pub first_end: Option<u16>,
    /// `(start, end)` indices of the middle plateau, `None` if absent.
    pub middle: Option<(u16, u16)>,
}

/// Finds the plateaus of one count row (entries after the first [`OVER`]
/// are unknown-but-above-`c` and cannot host plateaus).
///
/// `log_radii[k]` must hold `log2(radii[k])`; precomputing it once per run
/// keeps this function allocation- and log-free per radius step.
pub fn find_plateaus(counts: &[u32], log_radii: &[f64], b: f64, c: usize) -> PointPlateaus {
    let a = counts.len();
    debug_assert_eq!(a, log_radii.len());
    // Exact prefix: plateaus exist only where counts are known.
    let last = match counts.iter().position(|&q| q == OVER) {
        Some(0) => return PointPlateaus::default(),
        Some(k) => k - 1,
        None => a - 1,
    };
    let mut result = PointPlateaus::default();
    let mut best_middle_len = f64::NEG_INFINITY;
    let mut run_start = 0usize;
    // Sweep maximal quasi-flat runs over [0, last].
    for k in 0..=last {
        let run_breaks = k == last
            || slope_breaks(
                counts[k] as f64,
                counts[k + 1] as f64,
                log_radii[k + 1] - log_radii[k],
                b,
            );
        if !run_breaks {
            continue;
        }
        let (s, e) = (run_start, k);
        run_start = k + 1;
        if e == s {
            continue; // Def. 1 requires r_e < r_e' — at least two radii.
        }
        let height = counts[s];
        if height as usize > c {
            continue; // excused: cluster too large to be a microcluster
        }
        if height == 1 {
            // Counts start at >= 1 and never decrease, so a height-1 run
            // must begin at radius 0: it is the first plateau (Def. 2).
            debug_assert_eq!(s, 0);
            result.first_end = Some(e as u16);
        } else if e != a - 1 {
            // Candidate middle plateau (Def. 3): keep the longest; ties go
            // to the earlier start for determinism.
            let len = exp2(log_radii[e]) - exp2(log_radii[s]);
            if len > best_middle_len {
                best_middle_len = len;
                result.middle = Some((s as u16, e as u16));
            }
        }
    }
    result
}

#[inline]
fn exp2(x: f64) -> f64 {
    x.exp2()
}

/// Whether the count step `q0 → q1` across a radius step of `dr` in
/// log2 space breaks a quasi-flat run: SLOPE = Δlog2(count) /
/// Δlog2(radius) exceeds `b` (Def. 1). The one float expression both
/// [`find_plateaus`] and [`crossing_ceilings`] evaluate.
#[inline]
fn slope_breaks(q0: f64, q1: f64, dr: f64, b: f64) -> bool {
    q1.log2() - q0.log2() > b * dr
}

/// The crossing ceiling of every joined column of the radius grid: the
/// least count at which a point's first count above `c` decides
/// everything [`find_plateaus`] reads of it.
///
/// `radii` are the joined (ascending) radii, `r_1 … r_{a-1}`; `n` bounds
/// every count. Entry `k >= 1` is the least integer `t` with
/// `c < t <= n` whose slope test from a count of `c` at `radii[k - 1]`
/// breaks the run, with `log2(radii[j])` computed as
/// [`OraclePlot::from_counts`](crate::oracle::OraclePlot::from_counts)
/// does, or [`OVER`] (no ceiling) when no such `t` exists. Entry 0 is
/// `c + 1`: a crossing at the first radius is never read.
///
/// Storing `min(count, ceilings[k])` for a row's crossing at column `k`
/// leaves its [`PointPlateaus`] unchanged. The sweep reads the crossing
/// cell `q*` in one place only: the slope test from column `k - 1`, whose
/// count `q' <= c`. A run that starts at `k` spans one radius and is
/// skipped, and a run through `k` takes its height from its start. IEEE
/// subtraction is monotone, so if `log2` is non-decreasing on `1..=n`,
/// every `q* >= ceilings[k]` breaks that run for every such `q'`, and a
/// smaller `q*` is stored exactly. That premise is checked here, over
/// `1..=n`; where it fails, no ceilings (an empty vector) are returned.
pub fn crossing_ceilings(radii: &[f64], b: f64, c: usize, n: usize) -> Vec<u32> {
    if !log2_is_monotone(n) {
        return Vec::new();
    }
    let qc = c as f64;
    let first = c.saturating_add(1);
    let log_radii: Vec<f64> = radii.iter().map(|&r| r.log2()).collect();
    let mut ceil = Vec::with_capacity(radii.len());
    if !radii.is_empty() {
        ceil.push(u32::try_from(first).unwrap_or(OVER));
    }
    for w in log_radii.windows(2) {
        let breaks = |t: usize| slope_breaks(qc, t as f64, w[1] - w[0], b);
        // `breaks` is monotone in `t` (log2 is, on 1..=n): the least `t`
        // in `(c, n]` it holds for, by bisection; past `n` means none.
        let (mut lo, mut hi) = (first, n.saturating_add(1).max(first));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if breaks(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        ceil.push(if lo <= n {
            u32::try_from(lo).unwrap_or(OVER)
        } else {
            OVER
        });
    }
    ceil
}

/// Whether `log2` is non-decreasing over the integers `1..=n`, the
/// premise of [`crossing_ceilings`]. A correctly rounded (or merely
/// monotone) `log2` always is; this checks the platform's.
fn log2_is_monotone(n: usize) -> bool {
    let mut prev = f64::NEG_INFINITY;
    (1..=n).all(|t| {
        let l = (t as f64).log2();
        let ok = l >= prev;
        prev = l;
        ok
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Log-radii of the standard doubling grid: log2(r_k) = k + const.
    fn log_radii(a: usize) -> Vec<f64> {
        (0..a).map(|k| k as f64).collect()
    }

    #[test]
    fn isolate_point_has_long_first_plateau_no_middle() {
        // Count 1 for 6 radii, then jumps to n.
        let counts = [1, 1, 1, 1, 1, 1, 100, 100];
        let p = find_plateaus(&counts, &log_radii(8), 0.1, 10);
        assert_eq!(p.first_end, Some(5));
        // The [6,7] run has height 100 > c -> excused.
        assert_eq!(p.middle, None);
    }

    #[test]
    fn mc_point_has_short_first_and_long_middle() {
        // 1 at r0..r1, microcluster of 8 from r2..r6, everything at r7.
        let counts = [1, 1, 8, 8, 8, 8, 8, 100];
        let p = find_plateaus(&counts, &log_radii(8), 0.1, 10);
        assert_eq!(p.first_end, Some(1));
        assert_eq!(p.middle, Some((2, 6)));
    }

    #[test]
    fn inlier_cluster_plateau_is_excused() {
        // Joins a big cluster (height 80 > c=10).
        let counts = [1, 1, 80, 80, 80, 100];
        let p = find_plateaus(&counts, &log_radii(6), 0.1, 10);
        assert_eq!(p.first_end, Some(1));
        assert_eq!(p.middle, None);
    }

    #[test]
    fn no_first_plateau_when_crowded_at_r1() {
        // Already 3 neighbors at the smallest radius: x_i = 0 case.
        let counts = [3, 3, 3, 100];
        let p = find_plateaus(&counts, &log_radii(4), 0.1, 10);
        assert_eq!(p.first_end, None);
        assert_eq!(p.middle, Some((0, 2)));
    }

    #[test]
    fn single_radius_run_is_not_a_plateau() {
        // Height-1 run spans only r0, then the count keeps climbing stepwise.
        let counts = [1, 4, 9, 100];
        let p = find_plateaus(&counts, &log_radii(4), 0.1, 10);
        assert_eq!(p.first_end, None);
        assert_eq!(p.middle, None);
    }

    #[test]
    fn middle_plateau_must_not_touch_last_radius() {
        // Quasi-flat run of height 5 extends to the final radius: that is a
        // *last* plateau (the point's cluster has absorbed everything), not
        // a middle plateau.
        let counts = [1, 1, 5, 5, 5, 5];
        let p = find_plateaus(&counts, &log_radii(6), 0.1, 10);
        assert_eq!(p.first_end, Some(1));
        assert_eq!(p.middle, None);
    }

    #[test]
    fn longest_middle_plateau_wins() {
        // Two middle candidates: [2,4] (len 2^4-2^2=12) and [6,10]
        // (len 2^10-2^6 = 960).
        let counts = [1, 1, 3, 3, 3, 6, 8, 8, 8, 8, 8, 100];
        let p = find_plateaus(&counts, &log_radii(12), 0.1, 10);
        assert_eq!(p.first_end, Some(1));
        assert_eq!(p.middle, Some((6, 10)));
    }

    #[test]
    fn slope_tolerance_b_allows_quasi_flat_growth() {
        // 14 -> 15 over one doubling: slope = log2(15/14) ≈ 0.0995 <= 0.1,
        // so the run does NOT break.
        let counts = [1, 1, 14, 15, 15, 100];
        let p = find_plateaus(&counts, &log_radii(6), 0.1, 20);
        assert_eq!(p.middle, Some((2, 4)));
        // With b = 0: it breaks into two runs; [3,4] is the longer one
        // (2^4-2^3=8 vs 2^3-2^2=4)... [2,2] is not a plateau (one radius),
        // so [3,4] is chosen.
        let p0 = find_plateaus(&counts, &log_radii(6), 0.0, 20);
        assert_eq!(p0.middle, Some((3, 4)));
    }

    #[test]
    fn over_sentinel_truncates_analysis() {
        // Crossing value (12 > c=10) recorded, then OVER: the run ending at
        // the crossing is still considered; nothing beyond.
        let counts = [1, 1, 5, 5, 12, OVER, OVER, OVER];
        let p = find_plateaus(&counts, &log_radii(8), 0.1, 10);
        assert_eq!(p.first_end, Some(1));
        // Run [2,3] has height 5 <= c; run [4,4] single radius.
        assert_eq!(p.middle, Some((2, 3)));
    }

    #[test]
    fn all_over_row_yields_nothing() {
        let counts = [OVER; 5];
        let p = find_plateaus(&counts, &log_radii(5), 0.1, 10);
        assert_eq!(p, PointPlateaus::default());
    }

    #[test]
    fn plateau_crossing_c_mid_run_is_kept() {
        // Run starts at height 9 <= c and drifts above c within the run
        // (9 -> 9 -> 10): Def. 1 only constrains the *height* (start).
        // Slopes: log2(10/9)=0.152 > b=0.2? No: 0.152 <= 0.2 keeps it flat.
        let counts = [1, 1, 9, 9, 10, 100];
        let p = find_plateaus(&counts, &log_radii(6), 0.2, 9);
        assert_eq!(p.middle, Some((2, 4)));
    }

    #[test]
    fn pure_single_point_dataset() {
        // n = 1: count stays 1 to the very end; the first plateau spans the
        // whole grid and there is no middle plateau.
        let counts = [1, 1, 1, 1, 1];
        let p = find_plateaus(&counts, &log_radii(5), 0.1, 1);
        assert_eq!(p.first_end, Some(4));
        assert_eq!(p.middle, None);
    }

    /// Radii `2^log_radii[k]`, so `crossing_ceilings` reads back the same
    /// log-radii `find_plateaus` gets.
    fn radii_of(log_radii: &[f64]) -> Vec<f64> {
        log_radii.iter().map(|&l| l.exp2()).collect()
    }

    #[test]
    fn crossing_ceilings_equal_a_linear_scan() {
        let doubling: Vec<f64> = (0..9).map(|k| 100.0 / (1u64 << (8 - k)) as f64).collect();
        let uneven = vec![0.3, 0.31, 0.5, 2.0, 2.1, 9.0, 40.0, 41.0, 400.0];
        for radii in [doubling, uneven] {
            let lr: Vec<f64> = radii.iter().map(|r| r.log2()).collect();
            for n in 0..48usize {
                for c in 0..=n + 1 {
                    for b in [0.0, 0.05, 0.1, 0.3, 1.0, 4.0] {
                        let got = crossing_ceilings(&radii, b, c, n);
                        let mut want = vec![c as u32 + 1];
                        for k in 1..radii.len() {
                            let dr = lr[k] - lr[k - 1];
                            let t = (c + 1..=n)
                                .find(|&t| (t as f64).log2() - (c as f64).log2() > b * dr);
                            want.push(t.map_or(OVER, |t| t as u32));
                        }
                        assert_eq!(got, want, "n={n} c={c} b={b}");
                    }
                }
            }
        }
        assert!(crossing_ceilings(&[], 0.1, 3, 10).is_empty());
        // An absolute `c` past every count: no ceilings, and no overflow.
        for c in [10, u32::MAX as usize, usize::MAX] {
            assert!(crossing_ceilings(&[1.0, 2.0, 4.0], 0.1, c, 10)[1..]
                .iter()
                .all(|&t| t == OVER));
        }
    }

    #[test]
    fn crossing_ceilings_at_http_scale() {
        // http-20k: c = 2,000 over the doubling grid at b = 0.1 gives
        // 1.072c; b = 4 needs 16c > n, so there is no ceiling.
        let radii: Vec<f64> = (0..14).map(|k| 64.0 / (1u64 << (14 - k)) as f64).collect();
        let t = crossing_ceilings(&radii, 0.1, 2_000, 20_000);
        assert_eq!(t[0], 2_001);
        assert!(t[1..].iter().all(|&t| t == 2_144), "{t:?}");
        let t = crossing_ceilings(&radii, 4.0, 2_000, 20_000);
        assert!(t[1..].iter().all(|&t| t == OVER));
    }

    use proptest::prelude::*;

    /// A count row whose first count above `c` falls at a joined column
    /// `k* >= 1`: non-decreasing counts in `1..=c` before it, a crossing
    /// in `(c, n]`, `OVER` after it — the shape the counting stage emits
    /// — over a doubling or an uneven radius grid.
    fn crossing_row() -> impl Strategy<Value = (Vec<u32>, Vec<f64>, usize, usize, usize, f64)> {
        (
            (3usize..16, 1usize..15, 1usize..400, 1usize..40),
            prop::collection::vec(0.0..1.0f64, 16),
            (0u8..2, prop::collection::vec(0.01..3.0f64, 16)),
            (0.0..4.0f64, 0.0..1.0f64),
        )
            .prop_map(
                |((a, at, c, spread), fill, (doubling, steps), (b, cross))| {
                    let k_star = 1 + at % (a - 2);
                    let n = c * spread + 1;
                    let mut counts = vec![OVER; a];
                    let mut q = 1u32;
                    for (slot, &f) in counts[..k_star].iter_mut().zip(&fill) {
                        q += ((c as u32 - q) as f64 * f) as u32;
                        *slot = q;
                    }
                    counts[k_star] = c as u32 + 1 + ((n - c - 1) as f64 * cross) as u32;
                    let mut log_radii = vec![0.0; a];
                    for k in 1..a {
                        let step = if doubling == 0 { 1.0 } else { steps[k] };
                        log_radii[k] = log_radii[k - 1] + step;
                    }
                    (counts, log_radii, k_star, c, n, b)
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn ceiling_leaves_the_plateaus_unchanged(
            (counts, log_radii, k_star, c, n, b) in crossing_row(),
            pick in 0.0..1.0f64,
        ) {
            let a = counts.len();
            let radii = radii_of(&log_radii);
            let lr: Vec<f64> = radii.iter().map(|r| r.log2()).collect();
            let t = crossing_ceilings(&radii[..a - 1], b, c, n)[k_star];
            let with = |v: u32| {
                let mut row = counts.clone();
                row[k_star] = v;
                find_plateaus(&row, &lr, b, c)
            };
            // The clamp the counting stage applies keeps the plateaus...
            prop_assert_eq!(with(counts[k_star].min(t)), with(counts[k_star]));
            // ...because every value in [T, n] reads the same.
            if t != OVER {
                prop_assert!(t as usize > c && t as usize <= n);
                let span = (n - t as usize) as f64;
                for v in [n as u32, t + (span * pick) as u32, counts[k_star].max(t)] {
                    prop_assert_eq!(with(v), with(t), "v={} T={}", v, t);
                }
            }
        }

        #[test]
        fn no_smaller_ceiling_is_sound(b in 0.0..4.0f64, c in 2usize..500) {
            // [1, c, c, T-1, OVER…] keeps the run from column 1 going
            // through the crossing; [1, c, c, T, OVER…] breaks it there.
            let log_radii: Vec<f64> = (0..8).map(|k| k as f64).collect();
            let radii = radii_of(&log_radii);
            let n = 20 * c;
            let t = crossing_ceilings(&radii[..7], b, c, n)[3];
            prop_assume!(t != OVER && t as usize > c + 1);
            // The step 1 -> c must break, or the run would be the first
            // plateau instead of a middle one.
            prop_assume!((c as f64).log2() > b);
            let row = |q: u32| {
                let mut r = vec![OVER; 8];
                r[..4].copy_from_slice(&[1, c as u32, c as u32, q]);
                r
            };
            let below = find_plateaus(&row(t - 1), &log_radii, b, c);
            let at = find_plateaus(&row(t), &log_radii, b, c);
            prop_assert_eq!(below.middle, Some((1, 3)));
            prop_assert_eq!(at.middle, Some((1, 2)));
        }
    }
}
