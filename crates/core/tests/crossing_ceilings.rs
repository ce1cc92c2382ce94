//! Soundness of the crossing ceilings: a fit that stops counting each
//! point's first count above `c` at its ceiling `T_k` decides exactly
//! what a fit over the exact table decides.
//!
//! For every backend (brute, kd, Slim), on vectors at 2-d, 3-d and
//! 20-d and on strings under Levenshtein, for several seeds, several `c`
//! and every `b` of {0, 0.05, 0.1, 0.3, 1, 4}:
//!
//! * (a) the ceiling table equals the exact table, except that each row's
//!   crossing cell holds `min(exact, T_k)`;
//! * (b) the Oracle plot (points and histogram), the cutoff and the
//!   active set per radius equal the ones built from the exact table;
//! * (c) `detect()`'s point scores and microclusters are bit-identical to
//!   the ones built stage by stage from the exact table;
//! * (d) the ceiling run spends at most the exact run's distance
//!   evaluations, and the fit's counting stage spends exactly the ceiling
//!   run's.

use mccatch_core::counts::{count_neighbors, count_neighbors_within, CountTable};
use mccatch_core::gel::spot_microclusters;
use mccatch_core::plateau::crossing_ceilings;
use mccatch_core::score::score_microclusters;
use mccatch_core::{compute_cutoff, McCatch, OraclePlot, Params};
use mccatch_index::{BruteForceBuilder, IndexBuilder, KdTreeBuilder, RangeIndex, SlimTreeBuilder};
use mccatch_metric::{Euclidean, Levenshtein, Metric};
use std::sync::Arc;

const SLOPES: [f64; 6] = [0.0, 0.05, 0.1, 0.3, 1.0, 4.0];

/// SplitMix64: a tiny seeded generator, so the data need no RNG crate.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Three blobs of different spreads and sizes, an 8-point and a 3-point
/// microcluster, scattered outliers and a few exact duplicates, in `dim`
/// dimensions: crossings land at many radii, and plateaus of every kind
/// appear.
fn vectors(dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut g = Mix(seed);
    let mut pts = Vec::new();
    let blob = |g: &mut Mix, pts: &mut Vec<Vec<f64>>, count: usize, at: f64, spread: f64| {
        for _ in 0..count {
            // A sum of three uniforms: a bell with bounded tails.
            pts.push(
                (0..dim)
                    .map(|_| at + spread * (g.unit() + g.unit() + g.unit() - 1.5))
                    .collect(),
            );
        }
    };
    blob(&mut g, &mut pts, 60, 0.0, 4.0);
    blob(&mut g, &mut pts, 30, 30.0, 1.5);
    blob(&mut g, &mut pts, 15, -25.0, 8.0);
    blob(&mut g, &mut pts, 8, 90.0, 0.2);
    blob(&mut g, &mut pts, 3, -80.0, 0.05);
    for _ in 0..8 {
        pts.push((0..dim).map(|_| 300.0 * g.unit() - 150.0).collect());
    }
    for _ in 0..3 {
        let i = g.below(pts.len());
        pts.push(pts[i].clone());
    }
    pts
}

/// Variants of a few stems (up to two substitutions each), a 6-word
/// microcluster of one odd word's variants, and scattered odd words.
fn words(seed: u64) -> Vec<String> {
    let mut g = Mix(seed);
    let letters: Vec<char> = "abcdefghijklmnopqrstuvwxyz".chars().collect();
    let vary = |g: &mut Mix, stem: &str, edits: usize| {
        let mut w: Vec<char> = stem.chars().collect();
        for _ in 0..g.below(edits + 1) {
            let at = g.below(w.len());
            w[at] = letters[g.below(letters.len())];
        }
        w.into_iter().collect::<String>()
    };
    let mut out = Vec::new();
    for (stem, count) in [
        ("johnson", 30),
        ("garcia", 20),
        ("lee", 12),
        ("nakamura", 15),
    ] {
        for _ in 0..count {
            out.push(vary(&mut g, stem, 2));
        }
    }
    for _ in 0..6 {
        out.push(vary(&mut g, "qxzvwkj", 1));
    }
    for _ in 0..6 {
        let len = 3 + g.below(12);
        out.push((0..len).map(|_| letters[g.below(letters.len())]).collect());
    }
    out
}

/// How many rows of all ceiling tables held a clamped crossing: the
/// suite must exercise the clamp, not only pass around it.
#[derive(Default)]
struct Tally {
    rows: usize,
    clamped: usize,
}

/// (a): `got` is `exact` with each row's crossing cell clamped.
fn assert_clamped_copy(
    exact: &CountTable,
    got: &CountTable,
    ceil: &[u32],
    c: usize,
    t: &mut Tally,
) {
    let a = exact.num_radii();
    for i in 0..exact.num_points() {
        let (want, row) = (exact.row(i), got.row(i));
        t.rows += 1;
        match want[..a - 1].iter().position(|&q| q as usize > c) {
            Some(k) => {
                assert_eq!(row[..k], want[..k], "row {i}");
                assert_eq!(row[k], want[k].min(ceil[k]), "row {i} crossing {k}");
                assert_eq!(row[k + 1..], want[k + 1..], "row {i}");
                t.clamped += usize::from(row[k] != want[k]);
            }
            None => assert_eq!(row, want, "row {i}"),
        }
    }
}

fn check_backend<P, M, B>(label: &str, points: &Arc<[P]>, metric: M, builder: B, t: &mut Tally)
where
    P: Sync,
    M: Metric<P> + Clone,
    B: IndexBuilder<P, M> + Clone,
{
    let n = points.len();
    let metric_arc = Arc::new(metric.clone());
    // The counting tree is the fit's: builds are deterministic.
    let tree = builder.build_all(Arc::clone(points), Arc::clone(&metric_arc));
    for c in [None, Some(4)] {
        let mut exact = None;
        for b in SLOPES {
            let params = Params {
                max_plateau_slope: b,
                max_mc_cardinality: c,
                threads: 1,
                ..Params::default()
            };
            let r = params.try_resolve(n).expect("valid params");
            let fitted = McCatch::new(params)
                .expect("valid params")
                .fit(Arc::clone(points), metric.clone(), builder.clone())
                .expect("fit");
            let radii = fitted.radii().to_vec();
            let what = format!("{label} c={} b={b}", r.c);
            let (exact, exact_evals) = exact.get_or_insert_with(|| {
                let e0 = tree.distance_stats().evals;
                let table = count_neighbors(&tree, points, &radii, r.c, 1);
                (table, tree.distance_stats().evals - e0)
            });

            // (a) and (d).
            let ceil = crossing_ceilings(&radii[..radii.len() - 1], b, r.c, n);
            let e0 = tree.distance_stats().evals;
            let clamped = count_neighbors_within(&tree, points, &radii, r.c, &ceil, 1);
            let evals = tree.distance_stats().evals - e0;
            assert_clamped_copy(exact, &clamped, &ceil, r.c, t);
            assert!(
                evals <= *exact_evals,
                "{what}: {evals} > {exact_evals} evals"
            );
            let out = fitted.detect();
            assert_eq!(out.stats.dist_count, evals, "{what}: fit counting evals");

            // (b): the fit's Oracle plot, cutoff and active set equal the
            // ones from the exact table.
            let plot = OraclePlot::from_counts(exact, &radii, b, r.c);
            let bits = |p: &OraclePlot| -> Vec<_> {
                p.points()
                    .iter()
                    .map(|o| (o.x.to_bits(), o.y.to_bits(), o.plateaus))
                    .collect()
            };
            assert_eq!(bits(fitted.oracle()), bits(&plot), "{what}: oracle points");
            assert_eq!(fitted.oracle().histogram(), plot.histogram(), "{what}");
            let cutoff = compute_cutoff(plot.histogram(), &radii);
            assert_eq!(fitted.cutoff(), &cutoff, "{what}: cutoff");
            assert_eq!(
                fitted.active_per_radius(),
                exact.active_per_radius.as_slice(),
                "{what}: active set"
            );

            // (c): detect() equals the stages run over the exact table.
            let spotted = spot_microclusters(points, &metric_arc, &builder, &plot, &cutoff, &radii);
            let scores = score_microclusters(
                points,
                &metric_arc,
                &builder,
                &spotted.clusters,
                &spotted.outliers,
                &plot,
                &radii,
                1,
            );
            let f64_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                f64_bits(&out.point_scores),
                f64_bits(&scores.point_scores),
                "{what}: point scores"
            );
            assert_eq!(out.outliers, spotted.outliers, "{what}: outliers");
            let mut want: Vec<_> = (0..spotted.clusters.len())
                .map(|j| {
                    (
                        spotted.clusters[j].clone(),
                        scores.mc_scores[j].to_bits(),
                        scores.bridges[j].to_bits(),
                        scores.mean_1nn[j].to_bits(),
                    )
                })
                .collect();
            let mut got: Vec<_> = out
                .microclusters
                .iter()
                .map(|mc| {
                    (
                        mc.members.clone(),
                        mc.score.to_bits(),
                        mc.bridge_length.to_bits(),
                        mc.mean_1nn.to_bits(),
                    )
                })
                .collect();
            want.sort();
            got.sort();
            assert_eq!(got, want, "{what}: microclusters");
        }
    }
}

#[test]
fn ceiling_fits_equal_exact_fits_on_vectors() {
    let mut t = Tally::default();
    for dim in [2, 3, 20] {
        for seed in 1..=2u64 {
            let pts: Arc<[Vec<f64>]> = vectors(dim, seed * 1000 + dim as u64).into();
            let label = |backend: &str| format!("{backend} {dim}-d seed {seed}");
            check_backend(&label("brute"), &pts, Euclidean, BruteForceBuilder, &mut t);
            check_backend(
                &label("kd"),
                &pts,
                Euclidean,
                KdTreeBuilder::default(),
                &mut t,
            );
            check_backend(
                &label("slim"),
                &pts,
                Euclidean,
                SlimTreeBuilder::default(),
                &mut t,
            );
        }
    }
    assert!(
        t.clamped * 20 > t.rows,
        "{} of {} rows clamped",
        t.clamped,
        t.rows
    );
}

#[test]
fn ceiling_fits_equal_exact_fits_on_strings() {
    let mut t = Tally::default();
    for seed in 1..=2u64 {
        let ws: Arc<[String]> = words(seed).into();
        let label = |backend: &str| format!("{backend} words seed {seed}");
        check_backend(&label("brute"), &ws, Levenshtein, BruteForceBuilder, &mut t);
        check_backend(
            &label("slim"),
            &ws,
            Levenshtein,
            SlimTreeBuilder::default(),
            &mut t,
        );
    }
    assert!(t.clamped > 0, "no crossing was clamped in {} rows", t.rows);
}
