//! Property tests for the sparse-focused counting table: it must agree
//! with a naive recount wherever it stores exact values, satisfy the
//! paper's structural invariants (prefix-exactness, monotonicity, the
//! forced last column), and be insensitive to the index implementation.

use mccatch_core::counts::{count_neighbors, count_neighbors_per_radius, OVER};
use mccatch_core::params::RadiusGrid;
use mccatch_index::{BruteForce, IndexBuilder, KdTreeBuilder, RangeIndex, SlimTreeBuilder};
use mccatch_metric::{Euclidean, Metric};
use proptest::prelude::*;

fn dataset() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-40.0..40.0f64, 2), 3..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exact_cells_match_naive_counts(pts in dataset(), c_frac in 0.05..0.9f64) {
        let brute = BruteForce::new(pts.clone(), (0..pts.len() as u32).collect(), Euclidean);
        let grid = RadiusGrid::new(brute.diameter_estimate(), 8);
        prop_assume!(!grid.is_degenerate());
        let c = ((pts.len() as f64 * c_frac).ceil() as usize).max(1);
        let table = count_neighbors(&brute, &pts, grid.radii(), c, 1);
        for i in 0..pts.len() {
            let row = table.row(i);
            for (k, &q) in row.iter().enumerate() {
                if q == OVER {
                    continue;
                }
                if k == grid.len() - 1 && q as usize == pts.len() {
                    continue; // forced q_a = n (never joined)
                }
                let naive = pts
                    .iter()
                    .filter(|p| Euclidean.distance(*p, &pts[i]) <= grid.radii()[k])
                    .count();
                prop_assert_eq!(q as usize, naive, "point {} radius {}", i, k);
            }
        }
    }

    #[test]
    fn rows_are_exact_prefix_then_over(pts in dataset()) {
        let brute = BruteForce::new(pts.clone(), (0..pts.len() as u32).collect(), Euclidean);
        let grid = RadiusGrid::new(brute.diameter_estimate(), 8);
        prop_assume!(!grid.is_degenerate());
        let c = (pts.len() / 5).max(1);
        let table = count_neighbors(&brute, &pts, grid.radii(), c, 1);
        for i in 0..pts.len() {
            let row = table.row(i);
            // Once OVER appears, it persists (except the structure of the
            // row never "recovers" to an exact value).
            let first_over = row.iter().position(|&q| q == OVER);
            if let Some(k0) = first_over {
                prop_assert!(row[k0..].iter().all(|&q| q == OVER));
                prop_assert!(k0 >= 1, "first radius is always counted");
                // The crossing value (last exact) must exceed c.
                prop_assert!(row[k0 - 1] as usize > c);
            }
            // Exact prefix is non-decreasing and starts >= 1 (self).
            let mut prev = 0;
            for &q in row.iter().take_while(|&&q| q != OVER) {
                prop_assert!(q >= 1);
                prop_assert!(q >= prev);
                prev = q;
            }
        }
    }

    #[test]
    fn single_traversal_table_is_bit_identical_to_per_radius(pts in dataset(), c_frac in 0.02..0.9f64, threads in 1usize..6) {
        // The correctness contract of the multi-radius rewrite: the new
        // single-traversal `count_neighbors` must reproduce the historical
        // per-radius CountTable bit for bit — counts, OVER cells, forced
        // last column, and the active-set diagnostics — on every backend
        // and regardless of thread count.
        let n = pts.len() as u32;
        let c = ((pts.len() as f64 * c_frac).ceil() as usize).max(1);
        let brute = BruteForce::new(pts.clone(), (0..n).collect(), Euclidean);
        let grid = RadiusGrid::new(brute.diameter_estimate(), 8);
        prop_assume!(!grid.is_degenerate());
        let slim = SlimTreeBuilder::default().build_all_ref(&pts, &Euclidean);
        let kd = KdTreeBuilder::default().build_all_ref(&pts, &Euclidean);
        let reference = count_neighbors_per_radius(&brute, &pts, grid.radii(), c, 1);
        for (name, new) in [
            ("brute", count_neighbors(&brute, &pts, grid.radii(), c, threads)),
            ("slim", count_neighbors(&slim, &pts, grid.radii(), c, threads)),
            ("kd", count_neighbors(&kd, &pts, grid.radii(), c, threads)),
        ] {
            prop_assert_eq!(new.active_per_radius.as_slice(), reference.active_per_radius.as_slice(), "{} active sets", name);
            for i in 0..pts.len() {
                prop_assert_eq!(new.row(i), reference.row(i), "{} row {}", name, i);
            }
        }
    }

    #[test]
    fn index_implementation_is_irrelevant(pts in dataset()) {
        let n = pts.len() as u32;
        let c = (pts.len() / 4).max(1);
        let brute = BruteForce::new(pts.clone(), (0..n).collect(), Euclidean);
        let grid = RadiusGrid::new(brute.diameter_estimate(), 8);
        prop_assume!(!grid.is_degenerate());
        let slim = SlimTreeBuilder::default().build_all_ref(&pts, &Euclidean);
        let kd = KdTreeBuilder::default().build_all_ref(&pts, &Euclidean);
        let a = count_neighbors(&brute, &pts, grid.radii(), c, 1);
        let b = count_neighbors(&slim, &pts, grid.radii(), c, 1);
        let k = count_neighbors(&kd, &pts, grid.radii(), c, 1);
        for i in 0..pts.len() {
            prop_assert_eq!(a.row(i), b.row(i), "slim row {} differs", i);
            prop_assert_eq!(a.row(i), k.row(i), "kd row {} differs", i);
        }
    }
}
