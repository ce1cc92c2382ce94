//! Integration tests for the staged fit-once/detect-many API: equivalence
//! with independent one-shot runs, typed configuration errors, and the
//! serving path (`score_points`).

use mccatch::index::{KdTreeBuilder, SlimTreeBuilder};
use mccatch::metrics::{Euclidean, Levenshtein};
use mccatch::{McCatch, McCatchError, Params};

mod common;

/// Fig. 3-flavored scene: dense blob, one 8-point microcluster with halo,
/// one isolate.
fn scene() -> Vec<Vec<f64>> {
    let mut pts = Vec::new();
    for i in 0..20 {
        for j in 0..10 {
            pts.push(vec![i as f64 * 0.1, j as f64 * 0.1]);
        }
    }
    pts.push(vec![4.0, 2.0]);
    for k in 0..8 {
        pts.push(vec![
            30.0 + 0.08 * (k % 4) as f64,
            30.0 + 0.08 * (k / 4) as f64,
        ]);
    }
    pts.push(vec![31.3, 30.0]);
    pts.push(vec![70.0, -40.0]);
    pts
}

#[test]
fn fit_once_detect_twice_equals_two_one_shot_runs() {
    let pts = scene();

    // Two fully independent one-shot runs (fresh fit each time, exactly
    // the lifecycle the removed 0.2.0 shims packaged)…
    let legacy_a = common::detect_vectors(&pts, &Params::default());
    let legacy_b = common::detect_vectors(&pts, &Params::default());

    // …vs one fit and two detect() calls on the same handle.
    let detector = McCatch::builder().build().expect("valid");
    let fitted = detector
        .fit(pts.clone(), Euclidean, KdTreeBuilder::default())
        .expect("fit");
    let staged_a = fitted.detect();
    let staged_b = fitted.detect();

    for out in [&staged_a, &staged_b] {
        assert_eq!(legacy_a.outliers, out.outliers);
        assert_eq!(legacy_a.point_scores, out.point_scores);
        let legacy_scores: Vec<f64> = legacy_a.microclusters.iter().map(|m| m.score).collect();
        let staged_scores: Vec<f64> = out.microclusters.iter().map(|m| m.score).collect();
        assert_eq!(legacy_scores, staged_scores);
        let legacy_members: Vec<&Vec<u32>> =
            legacy_a.microclusters.iter().map(|m| &m.members).collect();
        let staged_members: Vec<&Vec<u32>> = out.microclusters.iter().map(|m| &m.members).collect();
        assert_eq!(legacy_members, staged_members);
        assert_eq!(legacy_a.cutoff, out.cutoff);
        assert_eq!(legacy_a.radii, out.radii);
        assert_eq!(legacy_a.diameter, out.diameter);
    }
    // The two legacy runs agree with each other too (determinism).
    assert_eq!(legacy_a.outliers, legacy_b.outliers);
    assert_eq!(legacy_a.point_scores, legacy_b.point_scores);
}

#[test]
fn fit_once_detect_twice_matches_one_shot_on_string_data() {
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

    let legacy = common::detect_metric(&words, &Levenshtein, &Params::default());

    let fitted = McCatch::builder()
        .build()
        .expect("valid")
        .fit(words, Levenshtein, SlimTreeBuilder::default())
        .expect("fit");
    let a = fitted.detect();
    let b = fitted.detect();
    assert_eq!(legacy.outliers, a.outliers);
    assert_eq!(legacy.point_scores, a.point_scores);
    assert_eq!(a.outliers, b.outliers);
    assert_eq!(a.point_scores, b.point_scores);
}

#[test]
fn invalid_num_radii_is_an_error_value_not_a_panic() {
    let err = McCatch::builder().num_radii(1).build().unwrap_err();
    assert_eq!(err, McCatchError::InvalidNumRadii { got: 1 });
    let err = McCatch::builder().num_radii(0).build().unwrap_err();
    assert_eq!(err, McCatchError::InvalidNumRadii { got: 0 });
    // Same through Params-based construction.
    let bad = Params {
        num_radii: 1,
        ..Params::default()
    };
    assert!(matches!(
        McCatch::new(bad),
        Err(McCatchError::InvalidNumRadii { got: 1 })
    ));
}

#[test]
fn num_radii_is_bounded_by_the_grid_shift() {
    // 64 radii: the smallest radius, l/2^63, still has a u64 divisor.
    let fitted = McCatch::builder()
        .num_radii(64)
        .build()
        .expect("64 radii are valid")
        .fit_ref(&scene(), &Euclidean, &KdTreeBuilder::default())
        .expect("fit");
    let radii = fitted.radii();
    assert_eq!(radii.len(), 64);
    assert!(radii.windows(2).all(|w| w[0] < w[1]), "{radii:?}");
    let scores = fitted.detect().point_scores;
    assert_eq!(scores.len(), scene().len());
    assert!(scores.iter().all(|s| s.is_finite()));
    // 65 would shift 1u64 by 64: a typed error, not a wrapped grid.
    let err = McCatch::builder().num_radii(65).build().unwrap_err();
    assert_eq!(err, McCatchError::InvalidNumRadii { got: 65 });
    assert!(err.to_string().contains("2..=64"), "{err}");
}

#[test]
fn negative_slope_is_an_error_value_not_a_panic() {
    let err = McCatch::builder()
        .max_plateau_slope(-0.1)
        .build()
        .unwrap_err();
    assert!(matches!(err, McCatchError::InvalidSlope { got } if got == -0.1));
    assert!(matches!(
        McCatch::builder().max_plateau_slope(f64::NAN).build(),
        Err(McCatchError::InvalidSlope { .. })
    ));
    // Errors render a useful message for CLI/service surfaces.
    assert!(err.to_string().contains("max_plateau_slope"));
}

#[test]
fn score_points_ranks_held_out_outlier_above_all_inliers() {
    let pts = scene();
    let fitted = McCatch::builder()
        .build()
        .expect("valid")
        .fit(pts, Euclidean, KdTreeBuilder::default())
        .expect("fit");

    // Held-out queries: every blob vicinity point is inlier-like; the far
    // point is an outlier the reference set has never seen.
    let mut queries: Vec<Vec<f64>> = (0..50)
        .map(|i| vec![(i % 10) as f64 * 0.19 + 0.03, (i / 10) as f64 * 0.17 + 0.05])
        .collect();
    let outlier_query = vec![-55.0, 62.0];
    queries.push(outlier_query);

    let scores = fitted.score_points(&queries);
    let outlier_score = *scores.last().unwrap();
    let max_inlier = scores[..scores.len() - 1]
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        outlier_score > max_inlier,
        "outlier {outlier_score} vs best inlier {max_inlier}"
    );
}

#[test]
fn score_points_does_not_mutate_the_fit() {
    let pts = scene();
    let fitted = McCatch::builder()
        .build()
        .expect("valid")
        .fit(pts, Euclidean, KdTreeBuilder::default())
        .expect("fit");
    let before = fitted.detect();
    let _ = fitted.score_points(&[vec![1000.0, 1000.0], vec![0.5, 0.5]]);
    let after = fitted.detect();
    assert_eq!(before.outliers, after.outliers);
    assert_eq!(before.point_scores, after.point_scores);
}

#[test]
fn builder_knobs_flow_through_to_detection() {
    let pts = scene();
    let kd = KdTreeBuilder::default();
    // threads must not change results (determinism guarantee).
    let one = McCatch::builder()
        .threads(1)
        .build()
        .expect("valid")
        .fit(pts.clone(), Euclidean, kd)
        .expect("fit")
        .detect();
    let many = McCatch::builder()
        .threads(8)
        .build()
        .expect("valid")
        .fit(pts.clone(), Euclidean, kd)
        .expect("fit")
        .detect();
    assert_eq!(one.outliers, many.outliers);
    assert_eq!(one.point_scores, many.point_scores);

    // A custom radius count shows up in the fitted grid.
    let fitted = McCatch::builder()
        .num_radii(9)
        .build()
        .expect("valid")
        .fit(pts, Euclidean, kd)
        .expect("fit");
    assert_eq!(fitted.radii().len(), 9);
}

#[test]
fn erased_model_and_borrowed_shim_match_the_owned_path() {
    let pts = scene();

    // An independent one-shot run over the borrowed slice…
    let legacy = common::detect_vectors(&pts, &Params::default());

    // …and both the borrowed fit_ref convenience and the erased model
    // must be bit-identical to it.
    let detector = McCatch::builder().build().expect("valid");
    let via_ref = detector
        .fit_ref(&pts, &Euclidean, &KdTreeBuilder::default())
        .expect("fit")
        .detect();
    let model = detector
        .fit(pts, Euclidean, KdTreeBuilder::default())
        .expect("fit")
        .into_model();
    let via_model = model.detect_output();

    for out in [&via_ref, &via_model] {
        assert_eq!(legacy.outliers, out.outliers);
        assert_eq!(legacy.point_scores, out.point_scores);
        assert_eq!(legacy.microclusters, out.microclusters);
        assert_eq!(legacy.cutoff, out.cutoff);
        assert_eq!(legacy.radii, out.radii);
    }
    assert_eq!(model.stats().num_outliers, legacy.outliers.len());
}
