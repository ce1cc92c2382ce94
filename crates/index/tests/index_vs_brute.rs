//! Property tests: the Slim-tree and kd-tree must agree exactly with the
//! brute-force reference on every query type, for random point sets, random
//! subsets, random radii, and both vector and string data.

use mccatch_index::{pair_join, BruteForce, KdTree, RangeIndex, SlimTree};
use mccatch_metric::{Euclidean, Levenshtein};
use proptest::prelude::*;

fn points_2d() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0..100.0f64, 2), 1..120)
}

fn points_5d() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-10.0..10.0f64, 5), 1..60)
}

fn words() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-d]{0,6}", 1..50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slim_range_count_matches_brute(pts in points_2d(), q in 0usize..120, r in 0.0..150.0f64, cap in 4usize..12) {
        let q = q % pts.len();
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let slim = SlimTree::build(pts.clone(), ids.clone(), Euclidean, cap);
        let brute = BruteForce::new(pts.clone(), ids, Euclidean);
        prop_assert_eq!(slim.range_count(&pts[q], r), brute.range_count(&pts[q], r));
    }

    #[test]
    fn slim_range_ids_match_brute(pts in points_5d(), q in 0usize..60, r in 0.0..20.0f64) {
        let q = q % pts.len();
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let slim = SlimTree::build(pts.clone(), ids.clone(), Euclidean, 6);
        let brute = BruteForce::new(pts.clone(), ids, Euclidean);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        slim.range_ids(&pts[q], r, &mut a);
        brute.range_ids(&pts[q], r, &mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn slim_knn_matches_brute(pts in points_2d(), q in 0usize..120, k in 1usize..10) {
        let q = q % pts.len();
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let slim = SlimTree::build(pts.clone(), ids.clone(), Euclidean, 5);
        let brute = BruteForce::new(pts.clone(), ids, Euclidean);
        let a = slim.knn(&pts[q], k);
        let b = brute.knn(&pts[q], k);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            // Ids may differ only among exact distance ties; both sides
            // break ties by id, so they must be identical.
            prop_assert_eq!(x.id, y.id);
            prop_assert!((x.dist - y.dist).abs() < 1e-9);
        }
    }

    #[test]
    fn kd_range_count_matches_brute(pts in points_5d(), q in 0usize..60, r in 0.0..40.0f64, cap in 1usize..8) {
        let q = q % pts.len();
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let kd = KdTree::build(pts.clone(), ids.clone(), cap);
        let brute = BruteForce::new(pts.clone(), ids, Euclidean);
        prop_assert_eq!(kd.range_count(&pts[q], r), brute.range_count(&pts[q], r));
    }

    #[test]
    fn kd_range_ids_match_brute(pts in points_2d(), q in 0usize..120, r in 0.0..80.0f64) {
        let q = q % pts.len();
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let kd = KdTree::build(pts.clone(), ids.clone(), 4);
        let brute = BruteForce::new(pts.clone(), ids, Euclidean);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        kd.range_ids(&pts[q], r, &mut a);
        brute.range_ids(&pts[q], r, &mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn kd_knn_matches_brute(pts in points_5d(), q in 0usize..60, k in 1usize..8) {
        let q = q % pts.len();
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let kd = KdTree::build(pts.clone(), ids.clone(), 3);
        let brute = BruteForce::new(pts.clone(), ids, Euclidean);
        let a = kd.knn(&pts[q], k);
        let b = brute.knn(&pts[q], k);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.id, y.id);
            prop_assert!((x.dist - y.dist).abs() < 1e-9);
        }
    }

    #[test]
    fn slim_on_subset_matches_brute_on_subset(pts in points_2d(), r in 0.0..100.0f64) {
        // Every third point only.
        let ids: Vec<u32> = (0..pts.len() as u32).step_by(3).collect();
        prop_assume!(!ids.is_empty());
        let slim = SlimTree::build(pts.clone(), ids.clone(), Euclidean, 4);
        let brute = BruteForce::new(pts.clone(), ids, Euclidean);
        let q = &pts[0];
        prop_assert_eq!(slim.range_count(q, r), brute.range_count(q, r));
    }

    #[test]
    fn slim_strings_match_brute(ws in words(), q in 0usize..50, r in 0.0..5.0f64) {
        let q = q % ws.len();
        let ids: Vec<u32> = (0..ws.len() as u32).collect();
        let slim = SlimTree::build(ws.clone(), ids.clone(), Levenshtein, 4);
        let brute = BruteForce::new(ws.clone(), ids, Levenshtein);
        prop_assert_eq!(slim.range_count(&ws[q], r), brute.range_count(&ws[q], r));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        slim.range_ids(&ws[q], r, &mut a);
        brute.range_ids(&ws[q], r, &mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn slim_invariants_hold_for_random_data(pts in points_2d(), cap in 4usize..10) {
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let slim = SlimTree::build(pts.clone(), ids, Euclidean, cap);
        prop_assert_eq!(slim.check_invariants(), pts.len());
    }

    #[test]
    fn pair_join_symmetric_closure(pts in points_2d(), r in 0.0..50.0f64) {
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let slim = SlimTree::build(pts.clone(), ids.clone(), Euclidean, 4);
        let pairs = pair_join(&slim, &pts, &ids, r);
        for &(a, b) in &pairs {
            prop_assert!(a < b);
            let d = {
                let (x, y) = (&pts[a as usize], &pts[b as usize]);
                ((x[0] - y[0]).powi(2) + (x[1] - y[1]).powi(2)).sqrt()
            };
            prop_assert!(d <= r + 1e-9);
        }
        // Count check: number of pairs == sum of per-point in-range others / 2.
        let brute = BruteForce::new(pts.clone(), ids.clone(), Euclidean);
        let total: usize = ids
            .iter()
            .map(|&i| brute.range_count(&pts[i as usize], r) - 1)
            .sum();
        prop_assert_eq!(pairs.len() * 2, total);
    }
}

/// A negative radius reaches nothing, and `-0.0` is `0.0`: every backend
/// agrees with brute force on `range_count`, `range_ids` and the
/// multi-radius count, on a line whose query point has a duplicate.
#[test]
fn negative_and_signed_zero_radii_match_brute() {
    let mut pts: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
    pts.push(vec![10.0]);
    let ids: Vec<u32> = (0..pts.len() as u32).collect();
    let brute = BruteForce::new(pts.clone(), ids.clone(), Euclidean);
    let kd = KdTree::build(pts.clone(), ids.clone(), 4);
    let slim = SlimTree::build(pts.clone(), ids, Euclidean, 4);
    let backends: [(&str, &dyn RangeIndex<Vec<f64>>); 2] = [("kd", &kd), ("slim", &slim)];
    let radii = [-2.5, -0.0, 0.0, 1.0];
    let q = vec![10.0];
    for &r in &radii {
        let want = brute.range_count(&q, r);
        let mut want_ids = Vec::new();
        brute.range_ids(&q, r, &mut want_ids);
        for (name, index) in backends {
            assert_eq!(index.range_count(&q, r), want, "{name} r={r}");
            let mut got = Vec::new();
            index.range_ids(&q, r, &mut got);
            assert_eq!(got, want_ids, "{name} r={r}");
        }
    }
    // No distance meets -2.5; the duplicate pair meets -0.0 and 0.0.
    for cap in [0, 2, u32::MAX] {
        let want = brute.multi_range_count(&q, &radii, cap);
        assert_eq!(want.as_slice()[..2], [0, 2]);
        for (name, index) in backends {
            let got = index.multi_range_count(&q, &radii, cap);
            assert_eq!(got.as_slice(), want.as_slice(), "{name} cap={cap}");
        }
    }
}

/// Every backend counts a point at exactly the radius, even where `r²`
/// rounds below the point's squared distance: `(√3)²` is
/// `2.9999999999999996`, and the Euclidean distance from `[0, 0, 0]` to
/// `[1, 1, 1]` is `fl(√3)`, so the radius `√3` reaches both points.
#[test]
fn radius_whose_square_rounds_down_matches_brute() {
    let pts = vec![vec![0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0]];
    let ids = vec![0, 1];
    let r = 3f64.sqrt();
    assert!(r * r < 3.0);
    let brute = BruteForce::new(pts.clone(), ids.clone(), Euclidean);
    let kd = KdTree::build(pts.clone(), ids.clone(), 1);
    let slim = SlimTree::build(pts.clone(), ids, Euclidean, 4);
    let backends: [(&str, &dyn RangeIndex<Vec<f64>>); 3] =
        [("brute", &brute), ("kd", &kd), ("slim", &slim)];
    let radii = [r.next_down(), r, r.next_up()];
    for (name, index) in backends {
        assert_eq!(index.range_count(&pts[0], r), 2, "{name}");
        assert_eq!(index.range_count(&pts[0], r.next_down()), 1, "{name}");
        let mut got = Vec::new();
        index.range_ids(&pts[0], r, &mut got);
        assert_eq!(got, [0, 1], "{name}");
        let counts = index.multi_range_count(&pts[0], &radii, u32::MAX);
        assert_eq!(counts.as_slice(), [1, 2, 2], "{name}");
    }
}
