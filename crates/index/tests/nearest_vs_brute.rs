//! Property tests for the nearest-neighbor queries: on every backend,
//! `knn(q, k)` for `k = 1..=8` and `nearest(q)` must equal the
//! `BruteForce` answer, the same ids in `(distance, id)` order with the
//! same distance bits. The data makes distances tie: points on a small
//! integer lattice at 1, 3 and 20 dimensions, with duplicates, and short
//! strings under the edit distance. Trees index all points or a subset,
//! as the serving path's inlier tree does, and the kd-tree runs every
//! leaf capacity from 1 to `n + 1`.

use mccatch_index::{BruteForce, KdTree, Neighbor, RangeIndex, SlimTree};
use mccatch_metric::{Euclidean, Levenshtein, Metric};
use proptest::prelude::*;

/// Up to 80 raw points of 20 lattice coordinates in `-3..=3`.
fn lattice() -> impl Strategy<Value = Vec<Vec<i8>>> {
    prop::collection::vec(prop::collection::vec(-3i8..4, 20), 1..80)
}

/// The first `dim` coordinates of each raw point, where every point whose
/// index `i` has bit `i % 8` of `dups` set is a copy of point `i - 1`.
fn points(raw: &[Vec<i8>], dim: usize, dups: u8) -> Vec<Vec<f64>> {
    let mut pts: Vec<Vec<f64>> = raw
        .iter()
        .map(|p| p[..dim].iter().map(|&x| f64::from(x)).collect())
        .collect();
    for i in 1..pts.len() {
        if dups >> (i % 8) & 1 == 1 {
            pts[i] = pts[i - 1].clone();
        }
    }
    pts
}

/// The ids a tree indexes: every `step`-th id from `offset % step`, so a
/// step of 1 indexes every point and a larger one a subset, like the
/// inlier tree. Never empty.
fn subset(n: usize, step: usize, offset: usize) -> Vec<u32> {
    let ids: Vec<u32> = (0..n as u32).skip(offset % step).step_by(step).collect();
    if ids.is_empty() {
        vec![0]
    } else {
        ids
    }
}

/// Each neighbor as `(id, distance bits)`.
fn key(nn: &[Neighbor]) -> Vec<(u32, u64)> {
    nn.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// `index` answers `knn(q, 1..=8)` and `nearest(q)` exactly as `brute`.
fn check<P: Send + Sync, M: Metric<P>>(
    name: &str,
    index: &dyn RangeIndex<P>,
    brute: &BruteForce<P, M>,
    q: &P,
) -> Result<(), TestCaseError> {
    for k in 1..=8 {
        let want = key(&brute.knn(q, k));
        prop_assert_eq!(key(&index.knn(q, k)), want, "{} knn k={}", name, k);
    }
    let want = key(&brute.knn(q, 1));
    prop_assert_eq!(key(index.nearest(q).as_slice()), want, "{} nearest", name);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vector_neighbors_match_brute_on_ties(
        raw in lattice(),
        dim in 0usize..3,
        dups in 0u8..255,
        (step, offset) in (1usize..4, 0usize..4),
        leaf in 1usize..82,
        cap in 2usize..9,
        query in prop::collection::vec(-4i8..5, 20),
    ) {
        let dim = [1, 3, 20][dim];
        let pts = points(&raw, dim, dups);
        let ids = subset(pts.len(), step, offset);
        let brute = BruteForce::new(pts.clone(), ids.clone(), Euclidean);
        // Leaf capacities 1..=n + 1 (the larger draws wrap into range).
        let leaf = 1 + (leaf - 1) % (ids.len() + 1);
        let kd = KdTree::build(pts.clone(), ids.clone(), leaf);
        let slim = SlimTree::build(pts.clone(), ids.clone(), Euclidean, cap + 2);
        let backends: [(&str, &dyn RangeIndex<Vec<f64>>); 3] =
            [("kd", &kd), ("slim", &slim), ("brute", &brute)];
        // Indexed points, points left out of a subset tree, and a lattice
        // point that may be indexed or not.
        let lattice_q: Vec<f64> = query[..dim].iter().map(|&x| f64::from(x)).collect();
        let queries = [&pts[0], &pts[pts.len() / 2], &pts[pts.len() - 1], &lattice_q];
        for (name, index) in backends {
            for q in queries {
                check(name, index, &brute, q)?;
            }
        }
    }

    #[test]
    fn string_neighbors_match_brute_on_ties(
        words in prop::collection::vec("[ab]{0,3}", 1..60),
        (step, offset) in (1usize..4, 0usize..4),
        cap in 2usize..9,
        query in "[abc]{0,4}",
    ) {
        let ids = subset(words.len(), step, offset);
        let brute = BruteForce::new(words.clone(), ids.clone(), Levenshtein);
        let slim = SlimTree::build(words.clone(), ids.clone(), Levenshtein, cap + 2);
        let backends: [(&str, &dyn RangeIndex<String>); 2] = [("slim", &slim), ("brute", &brute)];
        for (name, index) in backends {
            for q in [&words[0], &words[words.len() - 1], &query] {
                check(name, index, &brute, q)?;
            }
        }
    }
}

/// A tie that breaking by visit order gets wrong on the Slim-tree: "ab"
/// (id 0) and "ba" (id 1) are both at distance 2 from "zz", as are most
/// of the words, and brute force keeps the two smallest ids.
#[test]
fn slim_keeps_the_smallest_ids_among_ties() {
    let words: Vec<String> = ["ab", "ba", "aa", "bb", "ab", "ba", "a", "b", "abc", "bca"]
        .iter()
        .map(|w| w.to_string())
        .collect();
    let ids: Vec<u32> = (0..words.len() as u32).collect();
    let slim = SlimTree::build(words.clone(), ids.clone(), Levenshtein, 4);
    let brute = BruteForce::new(words, ids, Levenshtein);
    let q = "zz".to_string();
    let got: Vec<u32> = slim.knn(&q, 2).iter().map(|n| n.id).collect();
    let want: Vec<u32> = brute.knn(&q, 2).iter().map(|n| n.id).collect();
    assert_eq!(want, [0, 1]);
    assert_eq!(got, want);
}

/// An empty index has no nearest neighbor, on every backend.
#[test]
fn nearest_on_an_empty_index_is_none() {
    let pts = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
    let q = vec![0.0, 0.0];
    let kd = KdTree::build(pts.clone(), vec![], 4);
    let slim = SlimTree::build(pts.clone(), vec![], Euclidean, 4);
    let brute = BruteForce::new(pts, vec![], Euclidean);
    let backends: [(&str, &dyn RangeIndex<Vec<f64>>); 3] =
        [("kd", &kd), ("slim", &slim), ("brute", &brute)];
    for (name, index) in backends {
        assert!(index.nearest(&q).is_none(), "{name}");
        assert!(index.knn(&q, 3).is_empty(), "{name}");
    }
}
