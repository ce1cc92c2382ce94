//! Property-based tests of the full MCCATCH pipeline.
//!
//! MCCATCH only consumes distances, so its *decisions* must be invariant
//! under similarity transforms of the input (uniform scaling, translation,
//! rotation of vector data), must be deterministic, and must produce a
//! well-formed partition of the outlier set regardless of input geometry.

use mccatch_core::{McCatch, McCatchOutput, Params};
use mccatch_index::{BruteForceBuilder, IndexBuilder, KdTreeBuilder};
use mccatch_metric::Euclidean;
use proptest::prelude::*;

/// The staged API, one-shot: the property suite runs through the same
/// builder/fit/detect path the production callers use.
fn run<B: IndexBuilder<Vec<f64>, Euclidean> + Clone>(
    pts: &[Vec<f64>],
    builder: &B,
    params: &Params,
) -> McCatchOutput {
    McCatch::new(params.clone())
        .expect("valid params")
        .fit_ref(pts, &Euclidean, builder)
        .expect("fit")
        .detect()
}

/// Random small dataset: a few dense blobs plus a few free points, so
/// interesting structure appears with high probability.
fn dataset() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 2..5),
        prop::collection::vec((-200.0..200.0f64, -200.0..200.0f64), 0..6),
        20usize..60,
    )
        .prop_map(|(centers, frees, per_blob)| {
            let mut pts = Vec::new();
            for (k, &(cx, cy)) in centers.iter().enumerate() {
                for i in 0..per_blob {
                    // Deterministic quasi-random offsets within the blob.
                    let a = (i * 37 + k * 101) % 17;
                    let b = (i * 61 + k * 13) % 19;
                    pts.push(vec![
                        cx + a as f64 * 0.11 - 0.9,
                        cy + b as f64 * 0.09 - 0.85,
                    ]);
                }
            }
            for &(x, y) in &frees {
                pts.push(vec![x, y]);
            }
            pts
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn deterministic_across_runs(pts in dataset()) {
        let p = Params::default();
        let a = run(&pts, &BruteForceBuilder, &p);
        let b = run(&pts, &BruteForceBuilder, &p);
        prop_assert_eq!(a.outliers, b.outliers);
        prop_assert_eq!(a.point_scores, b.point_scores);
    }

    #[test]
    fn scale_invariant_decisions(pts in dataset(), scale in 0.01..100.0f64) {
        let p = Params::default();
        let a = run(&pts, &BruteForceBuilder, &p);
        let scaled: Vec<Vec<f64>> = pts
            .iter()
            .map(|q| q.iter().map(|x| x * scale).collect())
            .collect();
        let b = run(&scaled, &BruteForceBuilder, &p);
        // The radius grid scales with the diameter, so every decision —
        // histogram bins, cutoff index, outlier flags — is scale-free.
        prop_assert_eq!(&a.outliers, &b.outliers);
        prop_assert_eq!(a.cutoff.cut_index, b.cutoff.cut_index);
    }

    #[test]
    fn translation_invariant_decisions(pts in dataset(), dx in -1e4..1e4f64, dy in -1e4..1e4f64) {
        let p = Params::default();
        let a = run(&pts, &BruteForceBuilder, &p);
        let moved: Vec<Vec<f64>> = pts
            .iter()
            .map(|q| vec![q[0] + dx, q[1] + dy])
            .collect();
        let b = run(&moved, &BruteForceBuilder, &p);
        prop_assert_eq!(&a.outliers, &b.outliers);
    }

    #[test]
    fn microclusters_partition_the_outlier_set(pts in dataset()) {
        let out = run(&pts, &BruteForceBuilder, &Params::default());
        let mut seen = std::collections::BTreeSet::new();
        for mc in &out.microclusters {
            prop_assert!(!mc.members.is_empty());
            prop_assert!(mc.score.is_finite());
            for &m in &mc.members {
                prop_assert!(seen.insert(m), "duplicate member {m}");
            }
        }
        let union: Vec<u32> = seen.into_iter().collect();
        prop_assert_eq!(union, out.outliers.clone());
        // Scores sorted most-strange-first.
        for w in out.microclusters.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn point_scores_finite_and_nonnegative(pts in dataset()) {
        let out = run(&pts, &BruteForceBuilder, &Params::default());
        prop_assert_eq!(out.point_scores.len(), pts.len());
        for &s in &out.point_scores {
            prop_assert!(s.is_finite() && s >= 0.0);
        }
    }

    #[test]
    fn index_choice_does_not_change_flags(pts in dataset()) {
        // The diameter estimate comes from the points and the metric, not
        // the tree, so kd-tree and brute force fit the same radius grid
        // and flag the same points.
        let p = Params::default();
        let kd = run(&pts, &KdTreeBuilder::default(), &p);
        let brute = run(&pts, &BruteForceBuilder, &p);
        prop_assert_eq!(kd.diameter.to_bits(), brute.diameter.to_bits());
        prop_assert_eq!(kd.outliers, brute.outliers);
    }

    #[test]
    fn far_singleton_gets_the_top_point_score(pts in dataset()) {
        // Plant a point 100x the current diameter away: it must receive the
        // highest point score. (It is *usually* also flagged, but Def. 6's
        // MDL cut can absorb a lone extreme bin into the inlier partition
        // when the rest of the histogram tail is empty — a documented edge
        // case of the paper's cutoff; the ranking is unaffected.)
        let brute = run(&pts, &BruteForceBuilder, &Params::default());
        prop_assume!(brute.diameter > 1.0);
        let mut with_far = pts.clone();
        let far = vec![brute.diameter * 100.0, brute.diameter * 100.0];
        with_far.push(far);
        let out = run(&with_far, &BruteForceBuilder, &Params::default());
        let far_id = (with_far.len() - 1) as u32;
        let far_score = out.point_scores[far_id as usize];
        let max_other = out.point_scores[..pts.len()]
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        prop_assert!(far_score >= max_other);
        // If a cut exists at all and flags anyone, the far point is among
        // the flagged.
        if out.num_outliers() > 0 {
            prop_assert!(out.is_outlier(far_id));
        }
    }
}
