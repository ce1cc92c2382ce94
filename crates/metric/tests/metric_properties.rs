//! Property-based tests for the metric axioms.
//!
//! Every metric shipped by `mccatch-metric` must satisfy identity, symmetry
//! and the triangle inequality — the Slim-tree's pruning correctness in
//! `mccatch-index` depends on it.

use mccatch_metric::{
    Chebyshev, Euclidean, Levenshtein, Manhattan, Metric, Minkowski, OrderedTree, SoundexDistance,
    TreeEditDistance, TreeNode,
};
use proptest::prelude::*;

const EPS: f64 = 1e-9;

fn vec3() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, 3)
}

fn word() -> impl Strategy<Value = String> {
    "[a-zéøü]{0,12}".prop_map(|s| s)
}

/// Random small ordered tree, built as a parent-pointer sequence.
fn tree() -> impl Strategy<Value = OrderedTree> {
    (
        prop::collection::vec(0u32..5, 1..10),
        prop::collection::vec(0usize..8, 0..9),
    )
        .prop_map(|(labels, parents)| {
            // Node i>0 attaches under node parents[i-1] % i (a valid earlier node).
            let n = labels.len();
            let mut nodes: Vec<TreeNode> = labels.iter().map(|&l| TreeNode::new(l)).collect();
            // Build children lists.
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
            for i in 1..n {
                let p = parents.get(i - 1).copied().unwrap_or(0) % i;
                children[p].push(i);
            }
            // Assemble bottom-up (higher indices attach first).
            for i in (1..n).rev() {
                let kids: Vec<TreeNode> = children[i]
                    .iter()
                    .map(|&c| std::mem::replace(&mut nodes[c], TreeNode::new(0)))
                    .collect();
                nodes[i].children = kids;
            }
            let kids: Vec<TreeNode> = children[0]
                .iter()
                .map(|&c| std::mem::replace(&mut nodes[c], TreeNode::new(0)))
                .collect();
            nodes[0].children = kids;
            OrderedTree::from_node(&nodes[0])
        })
}

macro_rules! metric_axioms {
    ($name:ident, $metric:expr, $strategy:expr) => {
        mod $name {
            use super::*;

            proptest! {
                #[test]
                fn identity(a in $strategy) {
                    let m = $metric;
                    prop_assert!(m.distance(&a, &a).abs() <= EPS);
                }

                #[test]
                fn symmetry(a in $strategy, b in $strategy) {
                    let m = $metric;
                    prop_assert!((m.distance(&a, &b) - m.distance(&b, &a)).abs() <= EPS);
                }

                #[test]
                fn non_negativity(a in $strategy, b in $strategy) {
                    let m = $metric;
                    prop_assert!(m.distance(&a, &b) >= -EPS);
                }

                #[test]
                fn triangle(a in $strategy, b in $strategy, c in $strategy) {
                    let m = $metric;
                    let ab = m.distance(&a, &b);
                    let bc = m.distance(&b, &c);
                    let ac = m.distance(&a, &c);
                    // Relative tolerance for float accumulation.
                    prop_assert!(ac <= ab + bc + EPS * (1.0 + ab + bc));
                }
            }
        }
    };
}

metric_axioms!(euclidean, Euclidean, vec3());
metric_axioms!(manhattan, Manhattan, vec3());
metric_axioms!(chebyshev, Chebyshev, vec3());
metric_axioms!(minkowski_p3, Minkowski::new(3.0), vec3());
metric_axioms!(levenshtein, Levenshtein, word());
metric_axioms!(soundex_dist, SoundexDistance, word());
metric_axioms!(tree_edit, TreeEditDistance, tree());

proptest! {
    /// Levenshtein distance is bounded by the longer string's length.
    #[test]
    fn levenshtein_upper_bound(a in word(), b in word()) {
        let d = Levenshtein.distance(&a, &b);
        let bound = a.chars().count().max(b.chars().count()) as f64;
        prop_assert!(d <= bound);
    }

    /// Levenshtein distance is at least the length difference.
    #[test]
    fn levenshtein_lower_bound(a in word(), b in word()) {
        let d = Levenshtein.distance(&a, &b);
        let lower = (a.chars().count() as i64 - b.chars().count() as i64).unsigned_abs() as f64;
        prop_assert!(d >= lower);
    }

    /// Tree edit distance is bounded by the sum of sizes (delete all + insert all).
    #[test]
    fn ted_upper_bound(a in tree(), b in tree()) {
        let d = TreeEditDistance.distance(&a, &b);
        prop_assert!(d <= (a.size() + b.size()) as f64);
    }

    /// Tree edit distance at least the size difference.
    #[test]
    fn ted_lower_bound(a in tree(), b in tree()) {
        let d = TreeEditDistance.distance(&a, &b);
        let lower = (a.size() as i64 - b.size() as i64).unsigned_abs() as f64;
        prop_assert!(d >= lower);
    }

    /// Identity of indiscernibles for Levenshtein (a true metric).
    #[test]
    fn levenshtein_zero_iff_equal(a in word(), b in word()) {
        let d = Levenshtein.distance(&a, &b);
        prop_assert_eq!(d == 0.0, a == b);
    }
}

/// A metric with only `distance`: it gets the provided farthest-point
/// sweep of `diameter_bound`, whatever the metric it wraps overrides.
struct SweepOnly<M>(M);

impl<P, M: Metric<P>> Metric<P> for SweepOnly<M> {
    fn distance(&self, a: &P, b: &P) -> f64 {
        self.0.distance(a, b)
    }
}

/// The largest distance between two of `points`.
fn exact_diameter<P, M: Metric<P>>(metric: &M, points: &[P]) -> f64 {
    let mut best = 0.0f64;
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            best = best.max(metric.distance(a, b));
        }
    }
    best
}

/// `0..n` in an order scrambled by `seed` (Fisher–Yates on an LCG).
fn scrambled(n: usize, seed: u64) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ids.swap(i, (s >> 33) as usize % (i + 1));
    }
    ids
}

/// `diameter_bound` covers every pair, and neither the bound nor its
/// evaluations depend on the order of `ids`; the sweep spends `4 (n - 1)`
/// evaluations and stays within twice the diameter.
fn check_bound<P, M: Metric<P>>(metric: &M, points: &[P], seed: u64) -> Result<(), TestCaseError> {
    let n = points.len();
    let ids: Vec<u32> = (0..n as u32).collect();
    let (bound, evals) = metric.diameter_bound(points, &ids);
    let exact = exact_diameter(metric, points);
    prop_assert!(
        bound >= exact,
        "bound {} below the diameter {}",
        bound,
        exact
    );
    let (again, evals_again) = metric.diameter_bound(points, &scrambled(n, seed));
    prop_assert_eq!(bound.to_bits(), again.to_bits());
    prop_assert_eq!(evals, evals_again);
    let (sweep, sweep_evals) = SweepOnly(metric).diameter_bound(points, &scrambled(n, seed));
    prop_assert!(
        sweep >= exact && sweep <= 2.0 * exact,
        "sweep {} for {}",
        sweep,
        exact
    );
    prop_assert_eq!(sweep_evals, 4 * (n as u64).saturating_sub(1));
    Ok(())
}

/// Points of an integer lattice in 1 to 3 dimensions, duplicates likely.
fn lattice() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        1usize..4,
        prop::collection::vec(prop::collection::vec(0u32..4, 3), 1..40),
    )
        .prop_map(|(dim, pts)| {
            pts.into_iter()
                .map(|p| p[..dim].iter().map(|&x| x as f64).collect())
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn diameter_bound_covers_floats(pts in prop::collection::vec(vec3(), 1..40), seed in 0u64..1_000_000) {
        check_bound(&Euclidean, &pts, seed)?;
        check_bound(&Manhattan, &pts, seed)?;
        check_bound(&Chebyshev, &pts, seed)?;
    }

    #[test]
    fn diameter_bound_covers_lattices(pts in lattice(), seed in 0u64..1_000_000) {
        check_bound(&Euclidean, &pts, seed)?;
        check_bound(&Manhattan, &pts, seed)?;
    }

    #[test]
    fn diameter_bound_covers_strings(words in prop::collection::vec("[a-c]{0,5}", 1..40), seed in 0u64..1_000_000) {
        check_bound(&Levenshtein, &words, seed)?;
    }

    #[test]
    fn diameter_bound_covers_trees(trees in prop::collection::vec(tree(), 1..12), seed in 0u64..1_000_000) {
        check_bound(&TreeEditDistance, &trees, seed)?;
    }
}

/// The Euclidean bound is the bounding box's diagonal, for no evaluations,
/// and a `CountingMetric` forwards it and counts what its metric spent.
#[test]
fn euclidean_bound_is_the_box_diagonal_and_wrappers_forward_it() {
    use mccatch_metric::CountingMetric;
    let pts = vec![
        vec![0.0, 0.0],
        vec![3.0, 0.0],
        vec![0.0, 4.0],
        vec![1.0, 1.0],
    ];
    let ids = [3, 1, 0, 2];
    assert_eq!(Euclidean.diameter_bound(&pts, &ids), (5.0, 0));
    assert_eq!(Euclidean.diameter_bound(&pts, &[]), (0.0, 0));
    assert_eq!(Euclidean.diameter_bound(&pts, &[2]), (0.0, 0));
    let counted = CountingMetric::new(Euclidean);
    assert_eq!(counted.diameter_bound(&pts, &ids), (5.0, 0));
    assert_eq!(counted.calls(), 0);
    let counted = CountingMetric::new(SweepOnly(Euclidean));
    let (bound, evals) = counted.diameter_bound(&pts, &ids);
    assert_eq!(
        (bound, evals),
        SweepOnly(Euclidean).diameter_bound(&pts, &ids)
    );
    assert_eq!((evals, counted.calls()), (12, 12));
    assert_eq!(
        std::sync::Arc::new(Euclidean).diameter_bound(&pts, &ids),
        (5.0, 0)
    );
}
