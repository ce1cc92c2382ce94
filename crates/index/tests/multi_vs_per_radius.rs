//! Property tests for the single-traversal multi-radius count: for every
//! backend, [`RangeIndex::multi_range_count`] must equal an `a`-fold
//! sequence of [`RangeIndex::range_count`] calls — exact counts up to and
//! including the first one that crosses the sparse-focused cap, `OVER`
//! afterwards — on random point sets, random (ascending) radius grids,
//! random caps, and both vector and string data. The kd-tree also runs
//! at 1, 3, 5 and 20 dimensions, on lattice and duplicate points.

use mccatch_index::{BruteForce, KdTree, RangeIndex, SlimTree, VpTree, OVER};
use mccatch_metric::{Euclidean, Levenshtein};
use proptest::prelude::*;

/// The contract `multi_range_count` must honor, spelled out with
/// per-radius `range_count` calls (the default-method fallback).
fn per_radius_reference<P, I: RangeIndex<P>>(
    index: &I,
    q: &P,
    radii: &[f64],
    cap: u32,
) -> Vec<u32> {
    let mut out = vec![OVER; radii.len()];
    for (k, &r) in radii.iter().enumerate() {
        let c = index.range_count(q, r) as u32;
        out[k] = c;
        if c > cap {
            break;
        }
    }
    out
}

fn points_2d() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0..100.0f64, 2), 1..120)
}

fn points_20d() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-10.0..10.0f64, 20), 1..60)
}

/// The first `dim` coordinates of each raw point: as drawn (`shape` 0),
/// rounded onto the integer lattice (1), or on the lattice with every
/// other point a copy of the one before it (2).
fn kd_points(raw: &[Vec<f64>], dim: usize, shape: u8) -> Vec<Vec<f64>> {
    let mut pts: Vec<Vec<f64>> = raw
        .iter()
        .map(|p| {
            p[..dim]
                .iter()
                .map(|&x| if shape == 0 { x } else { x.round() })
                .collect()
        })
        .collect();
    if shape == 2 {
        for i in (1..pts.len()).step_by(2) {
            pts[i] = pts[i - 1].clone();
        }
    }
    pts
}

/// Ascending radius grids of 1..=12 radii, geometric-ish with a random
/// base so boundaries land both on and off point distances.
fn grid() -> impl Strategy<Value = Vec<f64>> {
    (0.01..40.0f64, 1.2..2.5f64, 1usize..12).prop_map(|(base, ratio, m)| {
        (0..m)
            .map(|k| base * ratio.powi(k as i32))
            .collect::<Vec<f64>>()
    })
}

fn words() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-d]{0,6}", 1..50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn brute_multi_matches_per_radius(pts in points_2d(), q in 0usize..120, radii in grid(), cap in 0u32..20) {
        let q = q % pts.len();
        let idx = BruteForce::new(pts.clone(), (0..pts.len() as u32).collect(), Euclidean);
        let got = idx.multi_range_count(&pts[q], &radii, cap);
        let want = per_radius_reference(&idx, &pts[q], &radii, cap);
        prop_assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn kd_multi_matches_per_radius(
        raw in points_20d(),
        dim in 0usize..4,
        shape in 0u8..3,
        q in 0usize..60,
        radii in grid(),
        cap in 0u32..20,
        leaf in 1usize..41,
    ) {
        let pts = kd_points(&raw, [1, 3, 5, 20][dim], shape);
        // Lattice points get integer radii: squared distances and squared
        // radii are then exact integers, and many land on a radius.
        let radii: Vec<f64> = if shape == 0 {
            radii
        } else {
            radii.iter().map(|r| r.round()).collect()
        };
        let q = q % pts.len();
        let idx = KdTree::build(pts.clone(), (0..pts.len() as u32).collect(), leaf);
        let got = idx.multi_range_count(&pts[q], &radii, cap);
        let want = per_radius_reference(&idx, &pts[q], &radii, cap);
        prop_assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn vp_multi_matches_per_radius(pts in points_2d(), q in 0usize..120, radii in grid(), cap in 0u32..20, leaf in 2usize..10) {
        let q = q % pts.len();
        let idx = VpTree::build(pts.clone(), (0..pts.len() as u32).collect(), Euclidean, leaf);
        let got = idx.multi_range_count(&pts[q], &radii, cap);
        let want = per_radius_reference(&idx, &pts[q], &radii, cap);
        prop_assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn slim_multi_matches_per_radius(pts in points_2d(), q in 0usize..120, radii in grid(), cap in 0u32..20, node_cap in 4usize..10) {
        let q = q % pts.len();
        let idx = SlimTree::build(pts.clone(), (0..pts.len() as u32).collect(), Euclidean, node_cap);
        let got = idx.multi_range_count(&pts[q], &radii, cap);
        let want = per_radius_reference(&idx, &pts[q], &radii, cap);
        prop_assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn all_backends_agree_uncapped(pts in points_2d(), q in 0usize..120, radii in grid()) {
        // cap = MAX: fully exact counts at every radius, across backends.
        let q = q % pts.len();
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let brute = BruteForce::new(pts.clone(), ids.clone(), Euclidean);
        let kd = KdTree::build(pts.clone(), ids.clone(), 4);
        let vp = VpTree::build(pts.clone(), ids.clone(), Euclidean, 4);
        let slim = SlimTree::build(pts.clone(), ids, Euclidean, 6);
        let want = brute.multi_range_count(&pts[q], &radii, u32::MAX);
        prop_assert_eq!(&kd.multi_range_count(&pts[q], &radii, u32::MAX), &want);
        prop_assert_eq!(&vp.multi_range_count(&pts[q], &radii, u32::MAX), &want);
        prop_assert_eq!(&slim.multi_range_count(&pts[q], &radii, u32::MAX), &want);
        // And every column equals a plain range_count.
        for (k, &r) in radii.iter().enumerate() {
            prop_assert_eq!(want[k] as usize, brute.range_count(&pts[q], r));
        }
    }

    #[test]
    fn slim_multi_on_strings(ws in words(), q in 0usize..50, cap in 0u32..10) {
        let q = q % ws.len();
        let ids: Vec<u32> = (0..ws.len() as u32).collect();
        let slim = SlimTree::build(ws.clone(), ids.clone(), Levenshtein, 4);
        let vp = VpTree::build(ws.clone(), ids, Levenshtein, 3);
        let radii = [0.0, 1.0, 2.0, 3.0, 5.0, 8.0];
        let got = slim.multi_range_count(&ws[q], &radii, cap);
        let want = per_radius_reference(&slim, &ws[q], &radii, cap);
        prop_assert_eq!(got.as_slice(), want.as_slice());
        let got = vp.multi_range_count(&ws[q], &radii, cap);
        let want = per_radius_reference(&vp, &ws[q], &radii, cap);
        prop_assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn subset_indexes_count_subset_only(pts in points_2d(), radii in grid(), cap in 0u32..20) {
        // Every third point only: multi counts must see just the subset.
        let ids: Vec<u32> = (0..pts.len() as u32).step_by(3).collect();
        prop_assume!(!ids.is_empty());
        let slim = SlimTree::build(pts.clone(), ids.clone(), Euclidean, 4);
        // kd leaf blocks are laid out from `ids`, not from the dataset.
        let kd = KdTree::build(pts.clone(), ids.clone(), 3);
        let brute = BruteForce::new(pts.clone(), ids, Euclidean);
        let q = &pts[0];
        let a = slim.multi_range_count(q, &radii, cap);
        let b = brute.multi_range_count(q, &radii, cap);
        prop_assert_eq!(a.as_slice(), b.as_slice());
        let c = kd.multi_range_count(q, &radii, cap);
        prop_assert_eq!(c.as_slice(), b.as_slice());
    }
}

#[test]
fn multi_on_empty_index_is_all_zero_then_over() {
    let pts: Vec<Vec<f64>> = vec![];
    let kd = KdTree::build(pts.clone(), vec![], 4);
    let radii = [1.0, 2.0, 4.0];
    // Counts are 0 everywhere; 0 never exceeds any cap, so no OVER.
    assert_eq!(
        kd.multi_range_count(&vec![0.0], &radii, 5).as_slice(),
        &[0, 0, 0]
    );
}

#[test]
fn multi_with_empty_grid_is_empty() {
    let pts = vec![vec![0.0], vec![1.0]];
    let slim = SlimTree::build(pts.clone(), vec![0, 1], Euclidean, 4);
    assert!(slim
        .multi_range_count(&pts[0], &[], 5)
        .as_slice()
        .is_empty());
}

#[test]
fn cap_zero_records_the_crossing_exactly() {
    // Every count is >= 1 > 0, so only the first column is exact.
    let pts: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
    let vp = VpTree::build(pts.clone(), (0..10).collect(), Euclidean, 2);
    let got = vp.multi_range_count(&pts[5], &[1.0, 2.0, 3.0], 0);
    assert_eq!(got.as_slice(), &[3, OVER, OVER]);
}

#[test]
fn kd_window_over_every_leaf_costs_one_eval_per_point() {
    // 64 points on a circle of radius 10 around the query, 4 per leaf:
    // every node's box reaches inside radius 9.85 and out past 10, so
    // both radii reach every leaf and cover none. Each point's distance
    // is computed once, not once per radius.
    let pts: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            let a = i as f64 * std::f64::consts::TAU / 64.0;
            vec![10.0 * a.cos(), 10.0 * a.sin()]
        })
        .collect();
    let kd = KdTree::build(pts, (0..64).collect(), 4);
    let before = kd.distance_stats().evals;
    let got = kd.multi_range_count(&vec![0.0, 0.0], &[9.85, 9.9], u32::MAX);
    assert_eq!(got.as_slice(), &[0, 0]);
    assert_eq!(kd.distance_stats().evals - before, kd.len() as u64);
}
