//! One answer on every backend. The diameter estimate `l` (Alg. 1 line
//! 2), and with it the radius grid, every count, plateau, cutoff, flag and
//! score, is a function of the points and the metric alone, and every
//! backend counts a point at exactly a radius the same way. So `detect()`
//! is bit-identical on kd, vp, Slim and brute force: outliers,
//! microcluster partition and every point-score bit.

use mccatch_core::{McCatch, McCatchOutput, Params};
use mccatch_index::{
    BruteForceBuilder, IndexBuilder, KdTreeBuilder, SlimTreeBuilder, VpTreeBuilder,
};
use mccatch_metric::{CountingMetric, Euclidean, Levenshtein, Metric};
use proptest::prelude::*;

fn detect<P, M, B>(points: &[P], metric: M, builder: B) -> McCatchOutput
where
    P: Clone + Sync,
    M: Metric<P>,
    B: IndexBuilder<P, M>,
{
    McCatch::new(Params::default())
        .expect("valid params")
        .fit(points, metric, builder)
        .expect("fit")
        .detect()
}

/// `got` equals `want` bit for bit: diameter, outliers, microclusters
/// (members and scores) and point scores.
fn assert_same(name: &str, want: &McCatchOutput, got: &McCatchOutput) -> Result<(), TestCaseError> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let clusters = |o: &McCatchOutput| {
        o.microclusters
            .iter()
            .map(|mc| (mc.members.clone(), mc.score.to_bits()))
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(
        want.diameter.to_bits(),
        got.diameter.to_bits(),
        "{} diameter",
        name
    );
    prop_assert_eq!(&want.outliers, &got.outliers, "{} outliers", name);
    prop_assert_eq!(clusters(want), clusters(got), "{} microclusters", name);
    prop_assert_eq!(
        bits(&want.point_scores),
        bits(&got.point_scores),
        "{} scores",
        name
    );
    Ok(())
}

/// kd, vp and Slim against brute force on vector data.
fn check_vectors(points: &[Vec<f64>]) -> Result<(), TestCaseError> {
    let brute = detect(points, Euclidean, BruteForceBuilder);
    let kd = detect(points, Euclidean, KdTreeBuilder::default());
    let vp = detect(points, Euclidean, VpTreeBuilder::default());
    let slim = detect(points, Euclidean, SlimTreeBuilder::default());
    for (name, got) in [("kd", kd), ("vp", vp), ("slim", slim)] {
        assert_same(name, &brute, &got)?;
    }
    Ok(())
}

/// Keeps the first `dim` coordinates of each point.
fn truncated<T: Copy + Into<f64>>(dim: usize, points: Vec<Vec<T>>) -> Vec<Vec<f64>> {
    points
        .into_iter()
        .map(|p| p[..dim].iter().map(|&x| x.into()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn raw_floats_give_one_answer(
        dim in 1usize..4,
        pts in prop::collection::vec(prop::collection::vec(-50.0..50.0f64, 3), 3..80),
    ) {
        check_vectors(&truncated(dim, pts))?;
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Integer lattices put many pairs at exactly a grid radius (the grid
    /// halves `l`, and lattice distances are square roots of integers:
    /// three dimensions of side 3 put `√3` on the grid), and duplicates put
    /// many at 0.
    #[test]
    fn integer_lattices_give_one_answer(
        dim in 1usize..4,
        side in 2u32..6,
        pts in prop::collection::vec(prop::collection::vec(0u32..6, 3), 3..100),
    ) {
        let pts = pts.into_iter().map(|p| p.into_iter().map(|x| x % side).collect()).collect();
        check_vectors(&truncated(dim, pts))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn short_strings_give_one_answer(words in prop::collection::vec("[a-c]{0,6}", 3..60)) {
        let brute = detect(&words, Levenshtein, BruteForceBuilder);
        let vp = detect(&words, Levenshtein, VpTreeBuilder::default());
        let slim = detect(&words, Levenshtein, SlimTreeBuilder::default());
        assert_same("vp", &brute, &vp)?;
        assert_same("slim", &brute, &slim)?;
    }

    /// A counting wrapper forwards the metric's diameter bound, so it fits
    /// the same grid and gives the same answer.
    #[test]
    fn counting_metric_gives_the_same_answer(
        pts in prop::collection::vec(prop::collection::vec(-50.0..50.0f64, 2), 3..80),
    ) {
        let plain = detect(&pts, Euclidean, BruteForceBuilder);
        let counted = detect(&pts, CountingMetric::new(Euclidean), BruteForceBuilder);
        assert_same("counted", &plain, &counted)?;
    }
}
