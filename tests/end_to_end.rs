//! Cross-crate integration tests: the full MCCATCH pipeline against the
//! dataset generators, compared with ground truth and with the baselines.

use mccatch::data::{benchmark_by_name, http, http_dos_ids, shanghai, volcanoes};
use mccatch::eval::auroc;
use mccatch::Params;

mod common;
use common::detect_vectors;

#[test]
fn finds_dos_microcluster_in_http_analogue() {
    let n = 20_000;
    let data = http(n, 1);
    let out = detect_vectors(&data.points, &Params::default());
    let dos = http_dos_ids(n);
    // Every DoS connection must be flagged and gelled into one cluster.
    let mc = out.cluster_of(dos[0]).expect("DoS cluster found");
    let recovered = dos.iter().filter(|d| mc.members.contains(d)).count();
    assert_eq!(recovered, dos.len(), "DoS cluster fragmented");
    // The ranking must be high quality.
    let score = auroc(&out.point_scores, &data.labels);
    assert!(score > 0.95, "AUROC {score}");
}

#[test]
fn benchmark_analogues_score_well() {
    // Small and mid presets run quickly; MCCATCH should beat chance by a
    // wide margin on all of them.
    for name in ["Wine", "Glass", "Vertebral", "Ecoli", "Pima", "Vowels"] {
        let spec = benchmark_by_name(name).unwrap();
        let data = spec.generate(11);
        let out = detect_vectors(&data.points, &Params::default());
        let score = auroc(&out.point_scores, &data.labels);
        assert!(score > 0.8, "{name}: AUROC {score}");
    }
}

#[test]
fn microclusters_recovered_on_planted_presets() {
    // Vertebral plants 2 microclusters of 5; they must be flagged and the
    // nonsingleton structure recovered.
    let spec = benchmark_by_name("Vertebral").unwrap();
    let data = spec.generate(5);
    let out = detect_vectors(&data.points, &Params::default());
    let nonsingleton = out
        .microclusters
        .iter()
        .filter(|m| m.cardinality() >= 4)
        .count();
    assert!(nonsingleton >= 2, "found {nonsingleton} nonsingleton mcs");
}

#[test]
fn satellite_showcases_recover_planted_structure() {
    let img = shanghai(1);
    let out = detect_vectors(&img.data.points, &Params::default());
    for cluster in &img.planted_clusters {
        let mc = out.cluster_of(cluster[0]).expect("planted pair found");
        assert!(
            cluster.iter().all(|t| mc.members.contains(t)),
            "pair split: {:?} vs {:?}",
            cluster,
            mc.members
        );
    }
    let img = volcanoes(1);
    let out = detect_vectors(&img.data.points, &Params::default());
    let summit = &img.planted_clusters[0];
    let mc = out.cluster_of(summit[0]).expect("snow cluster found");
    assert!(summit.iter().all(|t| mc.members.contains(t)));
}

#[test]
fn ranking_quality_beats_iforest_on_microcluster_data() {
    // Microclustered outliers shield one another from isolation-based
    // detectors — the paper's core motivation. Verify the gap on an
    // mc-heavy analogue.
    let spec = benchmark_by_name("Annthyroid").unwrap();
    let data = spec.generate_scaled(0.5, 9);
    let ours = detect_vectors(&data.points, &Params::default());
    let ours_auroc = auroc(&ours.point_scores, &data.labels);
    let iforest = mccatch::baselines::iforest_scores(&data.points, 100, 256, 1);
    let iforest_auroc = auroc(&iforest, &data.labels);
    assert!(
        ours_auroc >= iforest_auroc - 0.02,
        "MCCATCH {ours_auroc} vs iForest {iforest_auroc}"
    );
    assert!(ours_auroc > 0.9, "MCCATCH {ours_auroc}");
}

#[test]
fn scores_and_flags_deterministic_across_threads() {
    let data = http(5_000, 3);
    let a = detect_vectors(
        &data.points,
        &Params {
            threads: 1,
            ..Params::default()
        },
    );
    let b = detect_vectors(
        &data.points,
        &Params {
            threads: 4,
            ..Params::default()
        },
    );
    assert_eq!(a.outliers, b.outliers);
    assert_eq!(a.point_scores, b.point_scores);
}

#[test]
fn full_output_is_well_formed() {
    let data = http(3_000, 5);
    let out = detect_vectors(&data.points, &Params::default());
    // Microclusters are disjoint and their union equals the outlier set.
    let mut seen = std::collections::BTreeSet::new();
    for mc in &out.microclusters {
        assert!(!mc.members.is_empty());
        assert!(mc.score.is_finite() && mc.score > 0.0);
        for &m in &mc.members {
            assert!(seen.insert(m), "point {m} in two microclusters");
        }
    }
    let union: Vec<u32> = seen.into_iter().collect();
    assert_eq!(union, out.outliers);
    // Point scores: finite, non-negative, aligned.
    assert_eq!(out.point_scores.len(), data.len());
    assert!(out.point_scores.iter().all(|s| s.is_finite() && *s >= 0.0));
    // Ranking is sorted.
    for w in out.microclusters.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
}

/// The diameter estimate bounds every distance from above on Fig. 7's
/// Uniform-20d at 4,000 points, through the Euclidean bound and through
/// the metric-agnostic sweep alike. A lower bound (272.1 against the exact
/// 296.3 at seed 1, as a sweep that kept only the largest distance it saw
/// once gave) leaves the grid's last column, which the fit fills with `n`
/// without a join, claiming neighbors that some rows do not have.
#[test]
fn diameter_estimate_is_an_upper_bound_on_u20d() {
    use mccatch::index::{BruteForce, RangeIndex};
    use mccatch::metrics::{Euclidean, Metric};

    /// Euclidean without its bounding-box override: the default sweep.
    struct SweepOnly;
    impl Metric<Vec<f64>> for SweepOnly {
        fn distance(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
            Euclidean.distance(a, b)
        }
    }

    let pts = mccatch::data::uniform(4_000, 20, 1);
    let ids: Vec<u32> = (0..pts.len() as u32).collect();
    // All pairs, on a flat copy: 8M distances, kept cheap for debug builds.
    let flat = pts.concat();
    let mut exact = 0.0f64;
    for (i, a) in flat.chunks_exact(20).enumerate() {
        for b in flat[(i + 1) * 20..].chunks_exact(20) {
            let mut d2 = 0.0;
            for k in 0..20 {
                let t = a[k] - b[k];
                d2 += t * t;
            }
            exact = exact.max(d2);
        }
    }
    let exact = exact.sqrt();
    let box_bound = BruteForce::new(pts.clone(), ids.clone(), Euclidean).diameter_estimate();
    let sweep = BruteForce::new(pts, ids, SweepOnly).diameter_estimate();
    assert!(box_bound >= exact, "box {box_bound} < exact {exact}");
    assert!(
        sweep >= exact && sweep <= 2.0 * exact,
        "sweep {sweep} for exact {exact}"
    );
}
