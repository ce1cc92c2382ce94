//! DB-Out — distance-based outliers (Knorr & Ng, VLDB'98).
//!
//! A point is a DB(π, r)-outlier when fewer than a π-fraction of the data
//! lies within distance `r`. We return the continuous version (fraction of
//! points *not* within `r`) so the detector yields a ranking like the
//! others; thresholding it at `1 − π` recovers the boolean definition.

use mccatch_index::{batch_range_count, IndexBuilder};
use mccatch_metric::Metric;

/// DB-Out scores for neighborhood radius `r` (the paper tunes
/// `r ∈ {0.05, 0.1, 0.25, 0.5} × diameter`, Tab. II).
pub fn db_out_scores<P, M, B>(points: &[P], metric: &M, builder: &B, radius: f64) -> Vec<f64>
where
    P: Sync + Clone,
    M: Metric<P> + Clone,
    B: IndexBuilder<P, M>,
{
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let index = builder.build_all_ref(points, metric);
    let queries: Vec<u32> = (0..n as u32).collect();
    let counts = batch_range_count(&index, points, &queries, radius, 1);
    counts
        .into_iter()
        .map(|c| 1.0 - c as f64 / n as f64)
        .collect()
}

/// The paper's radius grid for DB-Out/LOCI, relative to the dataset
/// diameter `l` (Tab. II).
pub fn radius_grid(diameter: f64) -> [f64; 4] {
    [
        diameter * 0.05,
        diameter * 0.1,
        diameter * 0.25,
        diameter * 0.5,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_index::SlimTreeBuilder;
    use mccatch_metric::Euclidean;

    #[test]
    fn isolate_gets_top_score() {
        let mut pts: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.01]).collect();
        pts.push(vec![10.0]);
        let scores = db_out_scores(&pts, &Euclidean, &SlimTreeBuilder::default(), 1.0);
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 60);
        // The isolate has only itself within r=1: score = 1 - 1/61.
        assert!((scores[60] - (1.0 - 1.0 / 61.0)).abs() < 1e-12);
    }

    #[test]
    fn dense_points_score_low() {
        let pts: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 * 0.01]).collect();
        let scores = db_out_scores(&pts, &Euclidean, &SlimTreeBuilder::default(), 1.0);
        // Everyone sees everyone: scores all 0.
        assert!(scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn radius_grid_fractions() {
        let g = radius_grid(100.0);
        assert_eq!(g, [5.0, 10.0, 25.0, 50.0]);
    }
}
