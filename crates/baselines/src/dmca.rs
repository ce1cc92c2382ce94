//! D.MCA (Jiang, Cordeiro & Akoglu, ICDM 2022), simplified
//! reimplementation: outlier detection *with explicit micro-cluster
//! assignment*.
//!
//! D.MCA's key trick is an ensemble of isolation forests over *small*
//! subsamples: with tiny ψ, members of a microcluster stop shielding one
//! another (few of them make it into any subsample), so clumped anomalies
//! get isolated early — the "anomaly hourglass" effect. Point scores are
//! averaged over the ensemble, and high scorers are then explicitly
//! assigned to microclusters by proximity. We keep exactly that recipe and
//! simplify the hourglass-based seeding and masking refinements. D.MCA
//! assigns clusters but does not score them — it misses the paper's goal
//! G2 — so, like the original, the API exposes point scores plus raw
//! assignments.

use crate::iforest::IsolationForest;
use crate::unionfind_small::UnionFind;
use mccatch_index::{pair_join, IndexBuilder, Neighbor, RangeIndex};
use mccatch_metric::Euclidean;

/// D.MCA output: per-point scores and per-point microcluster assignment
/// (`None` = inlier).
#[derive(Debug, Clone)]
pub struct DmcaResult {
    /// Per-point anomaly scores (ensemble average).
    pub point_scores: Vec<f64>,
    /// Microcluster id per point, `None` for unflagged points.
    pub assignment: Vec<Option<u32>>,
    /// The microclusters as member lists, ascending ids.
    pub microclusters: Vec<Vec<u32>>,
}

/// Runs simplified D.MCA: an ensemble of forests with geometrically grown
/// subsample sizes `ψ ∈ {2, 4, 8, …, psi_max}` (Tab. II), then proximity
/// assignment of the top `p`-fraction of scorers.
pub fn dmca<B>(
    points: &[Vec<f64>],
    builder: &B,
    trees_per_forest: usize,
    psi_max: usize,
    flag_fraction: f64,
    seed: u64,
) -> DmcaResult
where
    B: IndexBuilder<Vec<f64>, Euclidean>,
{
    let n = points.len();
    if n == 0 {
        return DmcaResult {
            point_scores: Vec::new(),
            assignment: Vec::new(),
            microclusters: Vec::new(),
        };
    }
    // Ensemble over growing subsample sizes: small ψ exposes clumped
    // anomalies, large ψ refines scattered ones.
    let mut point_scores = vec![0.0f64; n];
    let mut n_forests = 0;
    let mut psi = 2usize;
    let mut forest_seed = seed;
    while psi <= psi_max.min(n) {
        let forest = IsolationForest::fit(points, trees_per_forest, psi, forest_seed);
        for (s, p) in point_scores.iter_mut().zip(points) {
            *s += forest.score(p);
        }
        n_forests += 1;
        psi *= 2;
        forest_seed = forest_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    if n_forests > 0 {
        for s in point_scores.iter_mut() {
            *s /= n_forests as f64;
        }
    }
    // Flag the top fraction and assign explicit microclusters by linking
    // flagged points within the flagged set's median 1NN distance.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        point_scores[b as usize]
            .total_cmp(&point_scores[a as usize])
            .then(a.cmp(&b))
    });
    let flagged_len = ((n as f64 * flag_fraction).ceil() as usize).clamp(1, n);
    let mut flagged: Vec<u32> = order[..flagged_len].to_vec();
    flagged.sort_unstable();
    let index = builder.build_ref(points, flagged.clone(), &Euclidean);
    let mut nn1: Vec<f64> = flagged
        .iter()
        .map(|&i| {
            let nn: Vec<Neighbor> = index.knn(&points[i as usize], 2);
            nn.iter()
                .find(|x| x.id != i)
                .map_or(f64::INFINITY, |x| x.dist)
        })
        .collect();
    nn1.sort_by(f64::total_cmp);
    let median = nn1.get(nn1.len() / 2).copied().unwrap_or(0.0);
    let mut assignment: Vec<Option<u32>> = vec![None; n];
    let mut microclusters = Vec::new();
    if median.is_finite() && median > 0.0 && flagged.len() >= 2 {
        let pairs = pair_join(&index, points, &flagged, median * 2.0);
        let mut uf = UnionFind::new(flagged.len());
        for (u, v) in pairs {
            let pu = flagged.binary_search(&u).expect("flagged") as u32;
            let pv = flagged.binary_search(&v).expect("flagged") as u32;
            uf.union(pu, pv);
        }
        for comp in uf.components() {
            let members: Vec<u32> = comp.into_iter().map(|p| flagged[p as usize]).collect();
            let mc_id = microclusters.len() as u32;
            for &m in &members {
                assignment[m as usize] = Some(mc_id);
            }
            microclusters.push(members);
        }
    } else {
        for &i in &flagged {
            assignment[i as usize] = Some(microclusters.len() as u32);
            microclusters.push(vec![i]);
        }
    }
    DmcaResult {
        point_scores,
        assignment,
        microclusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_index::KdTreeBuilder;

    fn scenario() -> Vec<Vec<f64>> {
        let mut pts: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![(i % 20) as f64 * 0.1, (i / 20) as f64 * 0.1])
            .collect();
        for k in 0..8 {
            pts.push(vec![
                25.0 + 0.05 * (k % 4) as f64,
                25.0 + 0.05 * (k / 4) as f64,
            ]);
        }
        pts.push(vec![-30.0, 10.0]);
        pts
    }

    #[test]
    fn microcluster_points_score_high_with_small_psi_ensemble() {
        let pts = scenario();
        let r = dmca(&pts, &KdTreeBuilder::default(), 32, 64, 0.03, 11);
        let max_inlier = r.point_scores[..400]
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        let min_mc = r.point_scores[400..408]
            .iter()
            .cloned()
            .fold(f64::MAX, f64::min);
        assert!(min_mc > max_inlier, "mc {min_mc} vs inlier {max_inlier}");
    }

    #[test]
    fn assigns_explicit_microclusters() {
        let pts = scenario();
        let r = dmca(&pts, &KdTreeBuilder::default(), 32, 64, 0.03, 11);
        // The 8 planted points should land in one assigned microcluster.
        let mc_of_first = r.assignment[400];
        assert!(mc_of_first.is_some());
        let members = &r.microclusters[mc_of_first.unwrap() as usize];
        assert!(members.len() >= 6, "fragmented: {members:?}");
        assert!(members.iter().all(|&m| (400..408).contains(&m)));
    }

    #[test]
    fn deterministic() {
        let pts = scenario();
        let a = dmca(&pts, &KdTreeBuilder::default(), 16, 32, 0.05, 5);
        let b = dmca(&pts, &KdTreeBuilder::default(), 16, 32, 0.05, 5);
        assert_eq!(a.point_scores, b.point_scores);
        assert_eq!(a.microclusters, b.microclusters);
    }

    #[test]
    fn empty_input() {
        let r = dmca(&[], &KdTreeBuilder::default(), 8, 8, 0.1, 1);
        assert!(r.point_scores.is_empty());
    }
}
