//! Linear-scan reference index.
//!
//! Quadratic and simple on purpose: it is the ground truth that the
//! Slim-tree and kd-tree are property-tested against, and the "no index"
//! baseline in the benchmark harness.

use crate::multi::MultiCounter;
use crate::{DistanceStats, IndexBuilder, Neighbor, OrdF64, RangeIndex, SmallCounts};
use mccatch_metric::Metric;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Builder for [`BruteForce`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForceBuilder;

impl<P: Send + Sync, M: Metric<P>> IndexBuilder<P, M> for BruteForceBuilder {
    type Index = BruteForce<P, M>;

    fn build(&self, points: Arc<[P]>, ids: Vec<u32>, metric: Arc<M>) -> Self::Index {
        BruteForce::new(points, ids, metric)
    }

    fn backend_name(&self) -> &'static str {
        "brute"
    }
}

/// Exhaustive-scan index: every query touches every indexed element.
/// Owns `Arc` handles to the dataset and metric, so it has no lifetime.
#[derive(Debug)]
pub struct BruteForce<P, M: Metric<P>> {
    points: Arc<[P]>,
    ids: Vec<u32>,
    metric: Arc<M>,
    /// Distance evaluations performed so far (queries; construction does
    /// none). Relaxed ordering: read only after joins complete.
    evals: AtomicU64,
}

impl<P, M: Metric<P>> BruteForce<P, M> {
    /// Creates an index over `points[ids]`. Ids are kept sorted so query
    /// output order is deterministic.
    pub fn new(points: impl Into<Arc<[P]>>, mut ids: Vec<u32>, metric: impl Into<Arc<M>>) -> Self {
        let points = points.into();
        debug_assert!(ids.iter().all(|&i| (i as usize) < points.len()));
        ids.sort_unstable();
        Self {
            points,
            ids,
            metric: metric.into(),
            evals: AtomicU64::new(0),
        }
    }

    /// Batches a query's distance evaluations into one counter update so
    /// parallel joins do not contend per evaluation.
    #[inline]
    fn record_evals(&self, n: u64) {
        self.evals.fetch_add(n, Ordering::Relaxed);
    }
}

impl<P: Send + Sync, M: Metric<P>> RangeIndex<P> for BruteForce<P, M> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn range_count(&self, q: &P, radius: f64) -> usize {
        self.record_evals(self.ids.len() as u64);
        self.ids
            .iter()
            .filter(|&&i| self.metric.distance(q, &self.points[i as usize]) <= radius)
            .count()
    }

    /// One scan over the indexed elements fills every column: each element
    /// lands in the bucket of the smallest radius reaching it, and prefix
    /// sums produce the per-radius counts. Neither the `cap` nor the
    /// ceilings can shorten the scan here (there is no structure to skip),
    /// but the OVER masking and the crossing clamp still match the tree
    /// backends bit for bit.
    fn multi_range_count_within(
        &self,
        q: &P,
        radii: &[f64],
        cap: u32,
        ceil: &[u32],
    ) -> SmallCounts {
        debug_assert!(radii.windows(2).all(|w| w[0] <= w[1]));
        let m = radii.len();
        let mut counter = MultiCounter::new(m, cap, ceil);
        for &i in &self.ids {
            let d = self.metric.distance(q, &self.points[i as usize]);
            let k = radii.partition_point(|&r| r < d);
            if k < m {
                counter.add_point(k, m);
            }
        }
        self.record_evals(self.ids.len() as u64);
        counter.finish()
    }

    fn range_ids(&self, q: &P, radius: f64, out: &mut Vec<u32>) {
        self.record_evals(self.ids.len() as u64);
        out.extend(
            self.ids
                .iter()
                .copied()
                .filter(|&i| self.metric.distance(q, &self.points[i as usize]) <= radius),
        );
    }

    fn distance_stats(&self) -> DistanceStats {
        DistanceStats {
            evals: self.evals.load(Ordering::Relaxed),
        }
    }

    fn knn(&self, q: &P, k: usize) -> Vec<Neighbor> {
        self.record_evals(self.ids.len() as u64);
        let mut all: Vec<Neighbor> = self
            .ids
            .iter()
            .map(|&i| Neighbor {
                id: i,
                dist: self.metric.distance(q, &self.points[i as usize]),
            })
            .collect();
        all.sort_by(|a, b| OrdF64(a.dist).cmp(&OrdF64(b.dist)).then(a.id.cmp(&b.id)));
        all.truncate(k);
        all
    }

    /// The metric's [`Metric::diameter_bound`] over the indexed ids.
    fn diameter_estimate(&self) -> f64 {
        let (bound, evals) = self.metric.diameter_bound(&self.points, &self.ids);
        self.record_evals(evals);
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_metric::Euclidean;

    fn grid() -> Vec<Vec<f64>> {
        // 3x3 unit grid.
        (0..3)
            .flat_map(|x| (0..3).map(move |y| vec![x as f64, y as f64]))
            .collect()
    }

    #[test]
    fn range_count_includes_self_and_boundary() {
        let pts = grid();
        let idx = BruteForce::new(pts.clone(), (0..9).collect(), Euclidean);
        // Center point (1,1): distance 1 reaches itself + 4 axis neighbors.
        assert_eq!(idx.range_count(&vec![1.0, 1.0], 1.0), 5);
        // Radius 0 counts only exact matches.
        assert_eq!(idx.range_count(&vec![1.0, 1.0], 0.0), 1);
    }

    #[test]
    fn range_ids_sorted_and_exact() {
        let pts = grid();
        let idx = BruteForce::new(pts.clone(), (0..9).collect(), Euclidean);
        let mut out = Vec::new();
        idx.range_ids(&vec![0.0, 0.0], 1.0, &mut out);
        assert_eq!(out, vec![0, 1, 3]); // (0,0), (0,1), (1,0)
    }

    #[test]
    fn knn_orders_by_distance_then_id() {
        let pts = grid();
        let idx = BruteForce::new(pts.clone(), (0..9).collect(), Euclidean);
        let nn = idx.knn(&vec![0.0, 0.0], 3);
        assert_eq!(nn[0].id, 0);
        assert_eq!(nn[0].dist, 0.0);
        // Two ties at distance 1: ids 1 and 3 in order.
        assert_eq!((nn[1].id, nn[2].id), (1, 3));
    }

    #[test]
    fn knn_truncates_to_index_size() {
        let pts = grid();
        let idx = BruteForce::new(pts.clone(), vec![0, 1], Euclidean);
        assert_eq!(idx.knn(&vec![0.0, 0.0], 10).len(), 2);
    }

    #[test]
    fn subset_index_reports_dataset_ids() {
        let pts = grid();
        let idx = BruteForce::new(pts.clone(), vec![8, 4], Euclidean);
        let mut out = Vec::new();
        idx.range_ids(&vec![2.0, 2.0], 0.5, &mut out);
        assert_eq!(out, vec![8]);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn diameter_exact_small() {
        let pts = grid();
        let idx = BruteForce::new(pts.clone(), (0..9).collect(), Euclidean);
        let want = (8.0f64).sqrt(); // corner to corner
        assert!((idx.diameter_estimate() - want).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        let pts = grid();
        let empty = BruteForce::new(pts.clone(), vec![], Euclidean);
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.range_count(&vec![0.0, 0.0], 10.0), 0);
        assert_eq!(empty.diameter_estimate(), 0.0);
        assert!(empty.knn(&vec![0.0, 0.0], 3).is_empty());

        let single = BruteForce::new(pts.clone(), vec![4], Euclidean);
        assert_eq!(single.diameter_estimate(), 0.0);
        assert_eq!(single.range_count(&vec![1.0, 1.0], 0.0), 1);
    }
}
