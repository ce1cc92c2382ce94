//! One-shot configure-fit-detect scenarios, formerly the test suite of
//! the (removed in 0.4.0) `pipeline::mccatch` free-function shim. The
//! scenarios — edge cases and cross-backend agreement on the Fig. 3 toy
//! scene — outlived the shim; they now drive the staged API the way the
//! shim used to drive it, via the borrowed-slice `fit_ref` convenience.

use mccatch_core::{McCatch, McCatchOutput, Params};
use mccatch_index::{BruteForceBuilder, IndexBuilder, KdTreeBuilder, SlimTreeBuilder};
use mccatch_metric::{Euclidean, Levenshtein, Metric};

/// One-shot detection: configure + fit + detect, the lifecycle the
/// legacy shim packaged.
fn one_shot<P, M, B>(points: &[P], metric: &M, builder: &B, params: &Params) -> McCatchOutput
where
    P: Send + Sync + Clone,
    M: Metric<P> + Clone,
    B: IndexBuilder<P, M> + Clone,
{
    McCatch::new(params.clone())
        .expect("valid params")
        .fit_ref(points, metric, builder)
        .expect("fit")
        .detect()
}

/// Fig. 3-style toy scenario in 2-d: a dense inlier blob ('A' points),
/// a halo point 'B', an 8-point microcluster ('C' core, 'D' halo) and a
/// far isolate 'E'.
fn fig3_points() -> (Vec<Vec<f64>>, Vec<u32>, u32, u32) {
    let mut pts = Vec::new();
    // Blob: 20x10 grid with 0.1 spacing, 200 points around origin.
    for i in 0..20 {
        for j in 0..10 {
            pts.push(vec![i as f64 * 0.1, j as f64 * 0.1]);
        }
    }
    // Halo point 'B' a bit off the blob.
    let b = pts.len() as u32;
    pts.push(vec![4.0, 2.0]);
    // Microcluster: 8 points near (30, 30), spacing 0.08.
    let mc_start = pts.len() as u32;
    for k in 0..8 {
        pts.push(vec![
            30.0 + 0.08 * (k % 4) as f64,
            30.0 + 0.08 * (k / 4) as f64,
        ]);
    }
    let mc: Vec<u32> = (mc_start..mc_start + 8).collect();
    // Halo of the microcluster 'D'.
    pts.push(vec![31.3, 30.0]);
    // Isolate 'E'.
    let e = pts.len() as u32;
    pts.push(vec![70.0, -40.0]);
    (pts, mc, b, e)
}

#[test]
fn toy_scenario_end_to_end() {
    let (pts, mc, b, e) = fig3_points();
    let out = one_shot(
        &pts,
        &Euclidean,
        &SlimTreeBuilder::default(),
        &Params::default(),
    );
    assert!(out.cutoff.d.is_finite());
    // The isolate and the halo point must be flagged.
    assert!(out.is_outlier(e), "isolate missed");
    assert!(out.is_outlier(b), "halo missed");
    // The microcluster members must be flagged and gelled together.
    for &i in &mc {
        assert!(out.is_outlier(i), "mc member {i} missed");
    }
    let cluster = out.cluster_of(mc[0]).expect("mc found");
    assert!(cluster.cardinality() >= 8, "mc fragmented: {:?}", cluster);
    // No blob point may be flagged.
    assert!(out.outliers.iter().all(|&i| i >= 200), "{:?}", out.outliers);
}

#[test]
fn ranking_is_most_strange_first() {
    let (pts, ..) = fig3_points();
    let out = one_shot(
        &pts,
        &Euclidean,
        &SlimTreeBuilder::default(),
        &Params::default(),
    );
    for w in out.microclusters.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
}

#[test]
fn outlier_points_score_higher_than_inliers() {
    let (pts, mc, _, e) = fig3_points();
    let out = one_shot(
        &pts,
        &Euclidean,
        &SlimTreeBuilder::default(),
        &Params::default(),
    );
    let max_inlier = (0..200u32)
        .map(|i| out.point_scores[i as usize])
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(out.point_scores[e as usize] > max_inlier);
    assert!(out.point_scores[mc[0] as usize] > max_inlier);
}

#[test]
fn kd_and_slim_and_brute_agree_on_flags() {
    let (pts, ..) = fig3_points();
    let p = Params::default();
    let slim = one_shot(&pts, &Euclidean, &SlimTreeBuilder::default(), &p);
    let brute = one_shot(&pts, &Euclidean, &BruteForceBuilder, &p);
    let kd = one_shot(&pts, &Euclidean, &KdTreeBuilder::default(), &p);
    // The diameter estimate comes from the points and the metric, so all
    // three fit the same grid and give the same answer, bit for bit.
    for other in [&kd, &slim] {
        assert_eq!(brute.diameter.to_bits(), other.diameter.to_bits());
        assert_eq!(brute.outliers, other.outliers);
        assert_eq!(brute.point_scores, other.point_scores);
    }
}

#[test]
fn deterministic_across_runs_and_threads() {
    let (pts, ..) = fig3_points();
    let p1 = Params {
        threads: 1,
        ..Params::default()
    };
    let p8 = Params {
        threads: 8,
        ..Params::default()
    };
    let a = one_shot(&pts, &Euclidean, &SlimTreeBuilder::default(), &p1);
    let b = one_shot(&pts, &Euclidean, &SlimTreeBuilder::default(), &p8);
    assert_eq!(a.outliers, b.outliers);
    assert_eq!(a.point_scores, b.point_scores);
    let scores_a: Vec<f64> = a.microclusters.iter().map(|m| m.score).collect();
    let scores_b: Vec<f64> = b.microclusters.iter().map(|m| m.score).collect();
    assert_eq!(scores_a, scores_b);
}

#[test]
fn empty_dataset() {
    let pts: Vec<Vec<f64>> = vec![];
    let out = one_shot(
        &pts,
        &Euclidean,
        &SlimTreeBuilder::default(),
        &Params::default(),
    );
    assert!(out.microclusters.is_empty());
    assert!(out.point_scores.is_empty());
    assert_eq!(out.num_outliers(), 0);
}

#[test]
fn single_point_dataset() {
    let pts = vec![vec![1.0, 2.0]];
    let out = one_shot(
        &pts,
        &Euclidean,
        &SlimTreeBuilder::default(),
        &Params::default(),
    );
    assert!(out.microclusters.is_empty());
    assert_eq!(out.point_scores, vec![0.0]);
}

#[test]
fn identical_points_dataset() {
    let pts = vec![vec![5.0, 5.0]; 50];
    let out = one_shot(
        &pts,
        &Euclidean,
        &SlimTreeBuilder::default(),
        &Params::default(),
    );
    assert!(out.microclusters.is_empty());
    assert!(out.point_scores.iter().all(|&s| s == 0.0));
    assert_eq!(out.diameter, 0.0);
}

#[test]
fn two_point_dataset() {
    let pts = vec![vec![0.0], vec![10.0]];
    let out = one_shot(
        &pts,
        &Euclidean,
        &SlimTreeBuilder::default(),
        &Params::default(),
    );
    // With n = 2 everything is ambiguous; just require no panic and a
    // well-formed output.
    assert_eq!(out.point_scores.len(), 2);
}

#[test]
fn string_dataset_end_to_end() {
    // Many similar English-ish words + 2 far outliers sharing a shape.
    let mut words: Vec<String> = Vec::new();
    for a in ["sm", "br", "cl", "tr", "gr"] {
        for b in ["ith", "own", "ark", "een", "ant"] {
            for c in ["", "s", "er", "ing"] {
                words.push(format!("{a}{b}{c}"));
            }
        }
    }
    words.push("xxxxxxxxxxxxxxxxxxxxxx".to_string());
    words.push("xxxxxxxxxxxxxxxxxxxxxy".to_string());
    let n = words.len() as u32;
    let out = one_shot(
        &words,
        &Levenshtein,
        &SlimTreeBuilder::default(),
        &Params::default(),
    );
    assert!(out.is_outlier(n - 2), "outlier word missed");
    assert!(out.is_outlier(n - 1), "outlier word missed");
    // The two x-words are close to each other: they should gel.
    let mc = out.cluster_of(n - 1).expect("cluster");
    assert_eq!(mc.members, vec![n - 2, n - 1]);
}
