//! Gen2Out (Lee, Shekhar, Faloutsos et al., IEEE BigData 2021), simplified
//! reimplementation.
//!
//! Gen2Out is the one competitor that, like MCCATCH, scores *group*
//! anomalies: it derives point scores from isolation-forest depths and then
//! detects group anomalies among the high-scoring fringe. This
//! reimplementation keeps that architecture — iForest point scores; fringe
//! extraction; grouping of fringe points by proximity; a group score that
//! grows with the group's isolation — while simplifying the X-ray-plot
//! apex-extraction machinery of the original. Tab. V's qualitative
//! finding is preserved: the depth-based scores track isolation but are
//! blind to cluster shape, so non-convex inlier shapes degrade it.

use crate::iforest::IsolationForest;
use mccatch_index::{pair_join, IndexBuilder, Neighbor, RangeIndex};
use mccatch_metric::Euclidean;

/// A detected group anomaly with its score.
#[derive(Debug, Clone, PartialEq)]
pub struct Gen2OutGroup {
    /// Member ids, ascending.
    pub members: Vec<u32>,
    /// Group anomaly score (higher = more anomalous).
    pub score: f64,
}

/// Full Gen2Out output: point scores plus scored group anomalies.
#[derive(Debug, Clone)]
pub struct Gen2OutResult {
    /// Per-point anomaly scores (iForest depth based).
    pub point_scores: Vec<f64>,
    /// Group anomalies, sorted most anomalous first.
    pub groups: Vec<Gen2OutGroup>,
}

/// Runs simplified Gen2Out. `n_trees`/`psi` parameterize the forest
/// (Tab. II: `t ∈ {2..128}`; the original uses its own defaults),
/// `fringe_fraction` the share of top-scored points considered for
/// grouping (the original's "apex" extraction; 0.05 works well).
pub fn gen2out<B>(
    points: &[Vec<f64>],
    builder: &B,
    n_trees: usize,
    psi: usize,
    fringe_fraction: f64,
    seed: u64,
) -> Gen2OutResult
where
    B: IndexBuilder<Vec<f64>, Euclidean>,
{
    let n = points.len();
    if n == 0 {
        return Gen2OutResult {
            point_scores: Vec::new(),
            groups: Vec::new(),
        };
    }
    let forest = IsolationForest::fit(points, n_trees, psi, seed);
    let point_scores = forest.score_all(points);
    // Fringe: the top fraction by score (at least 1 point).
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        point_scores[b as usize]
            .total_cmp(&point_scores[a as usize])
            .then(a.cmp(&b))
    });
    let fringe_len = ((n as f64 * fringe_fraction).ceil() as usize).clamp(1, n);
    let mut fringe: Vec<u32> = order[..fringe_len].to_vec();
    fringe.sort_unstable();
    // Group fringe points within the characteristic fringe scale: the
    // median 1NN distance within the fringe, times a slack factor.
    let index = builder.build_ref(points, fringe.clone(), &Euclidean);
    let mut nn1: Vec<f64> = fringe
        .iter()
        .map(|&i| {
            let nn: Vec<Neighbor> = index.knn(&points[i as usize], 2);
            nn.iter()
                .find(|x| x.id != i)
                .map_or(f64::INFINITY, |x| x.dist)
        })
        .collect();
    nn1.sort_by(f64::total_cmp);
    let eps = if fringe.len() >= 2 {
        let median = nn1[nn1.len() / 2];
        if median.is_finite() {
            median * 2.0
        } else {
            0.0
        }
    } else {
        0.0
    };
    let mut groups: Vec<Gen2OutGroup> = Vec::new();
    if eps > 0.0 {
        let pairs = pair_join(&index, points, &fringe, eps);
        let mut uf = crate::unionfind_small::UnionFind::new(fringe.len());
        for (u, v) in pairs {
            let pu = fringe.binary_search(&u).expect("fringe member") as u32;
            let pv = fringe.binary_search(&v).expect("fringe member") as u32;
            uf.union(pu, pv);
        }
        for comp in uf.components() {
            let members: Vec<u32> = comp.into_iter().map(|p| fringe[p as usize]).collect();
            // Group score: mean member score, slightly discounting very
            // large groups (echoing the original's size-normalized area).
            let mean = members
                .iter()
                .map(|&i| point_scores[i as usize])
                .sum::<f64>()
                / members.len() as f64;
            let score = mean / (1.0 + (members.len() as f64).ln() / 10.0);
            groups.push(Gen2OutGroup { members, score });
        }
    } else {
        groups.extend(fringe.iter().map(|&i| Gen2OutGroup {
            members: vec![i],
            score: point_scores[i as usize],
        }));
    }
    groups.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.members[0].cmp(&b.members[0]))
    });
    Gen2OutResult {
        point_scores,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_index::KdTreeBuilder;

    fn blob_plus_mc_and_isolate() -> Vec<Vec<f64>> {
        let mut pts: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![(i % 20) as f64 * 0.1, (i / 20) as f64 * 0.1])
            .collect();
        for k in 0..6 {
            pts.push(vec![30.0 + 0.05 * k as f64, 30.0]);
        }
        pts.push(vec![-40.0, 10.0]);
        pts
    }

    #[test]
    fn flags_microcluster_and_isolate_points() {
        let pts = blob_plus_mc_and_isolate();
        let r = gen2out(&pts, &KdTreeBuilder::default(), 64, 128, 0.05, 7);
        let max_inlier = r.point_scores[..400]
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        assert!(r.point_scores[406] > max_inlier, "isolate not top");
        // Some group must contain microcluster members.
        let has_mc_group = r
            .groups
            .iter()
            .any(|g| g.members.len() >= 3 && g.members.iter().all(|&m| (400..406).contains(&m)));
        assert!(has_mc_group, "groups: {:?}", r.groups);
    }

    #[test]
    fn deterministic() {
        let pts = blob_plus_mc_and_isolate();
        let a = gen2out(&pts, &KdTreeBuilder::default(), 32, 64, 0.05, 3);
        let b = gen2out(&pts, &KdTreeBuilder::default(), 32, 64, 0.05, 3);
        assert_eq!(a.point_scores, b.point_scores);
        assert_eq!(a.groups, b.groups);
    }

    #[test]
    fn empty_input() {
        let r = gen2out(&[], &KdTreeBuilder::default(), 8, 8, 0.05, 1);
        assert!(r.point_scores.is_empty());
        assert!(r.groups.is_empty());
    }
}
