//! The type-erased serving interface: [`Model`].
//!
//! [`crate::Fitted`] is generic over the point type, the metric, and the
//! index builder — three type parameters that every service struct holding
//! a fitted detector would otherwise have to thread through its own
//! signature. [`Model`] erases the metric and index choice behind an
//! object-safe trait: a server stores `Arc<dyn Model<P>>` and can swap in
//! a model fitted with a different metric or index without recompiling.
//!
//! The trait is `Send + Sync`, and [`crate::Fitted::into_model`] requires
//! `'static` components, so an `Arc<dyn Model<P>>` can be cloned into any
//! number of threads (`std::thread::spawn`, an async runtime, a request
//! pool) and every clone answers from the same one-time fit.
//!
//! ```
//! use mccatch_core::{McCatch, Model};
//! use mccatch_index::SlimTreeBuilder;
//! use mccatch_metric::Euclidean;
//! use std::sync::Arc;
//!
//! let mut points: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![(i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1])
//!     .collect();
//! points.push(vec![30.0, 30.0]);
//!
//! let fitted = McCatch::builder()
//!     .build()?
//!     .fit(points, Euclidean, SlimTreeBuilder::default())?;
//! let model: Arc<dyn Model<Vec<f64>>> = fitted.into_model();
//!
//! // The erased handle moves freely across threads.
//! let worker = {
//!     let model = Arc::clone(&model);
//!     std::thread::spawn(move || model.score_batch(&[vec![50.0, -50.0]]))
//! };
//! assert!(worker.join().unwrap()[0] > 0.0);
//! assert_eq!(model.stats().num_points, 101);
//! # Ok::<(), mccatch_core::McCatchError>(())
//! ```

use crate::params::{Params, RadiusGrid, MAX_NUM_RADII};
use crate::result::{McCatchOutput, Microcluster};
use mccatch_index::DistanceStats;
use mccatch_metric::universal_code_length_f64;
use std::sync::Arc;

/// An object-safe, thread-safe view of a fitted MCCATCH detector.
///
/// Obtained from [`crate::Fitted::into_model`]. All methods are `&self`
/// and answer from the one-time fit; expensive stages run on first use
/// and are cached, exactly like on the concrete [`crate::Fitted`] handle.
///
/// ```
/// use mccatch_core::{McCatch, Model};
/// use mccatch_index::KdTreeBuilder;
/// use mccatch_metric::Euclidean;
/// use std::sync::Arc;
///
/// let mut points: Vec<Vec<f64>> = (0..100)
///     .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
///     .collect();
/// points.push(vec![900.0, 900.0]);
///
/// // A service stores `Arc<dyn Model<P>>`: no metric or index generics.
/// let model: Arc<dyn Model<Vec<f64>>> = McCatch::builder()
///     .build()?
///     .fit(points, Euclidean, KdTreeBuilder::default())?
///     .into_model();
/// assert_eq!(model.detect_output().outliers, vec![100]);
/// assert_eq!(model.top_k(1).len(), 1);
/// let stats = model.stats();
/// assert_eq!((stats.num_points, stats.num_outliers), (101, 1));
/// assert!(stats.distance_evals > 0);
/// # Ok::<(), mccatch_core::McCatchError>(())
/// ```
pub trait Model<P>: Send + Sync {
    /// Runs the full pipeline and assembles the complete output — see
    /// [`crate::Fitted::detect`].
    fn detect_output(&self) -> McCatchOutput;

    /// Scores new points against the fitted reference set (the serving
    /// path) — see [`crate::Fitted::score_points`]: a batch is split into
    /// parallel chunks, up to the fit's resolved thread count, only when
    /// the time of its first queries projects enough work to pay for the
    /// threads, so a serving-size batch of cheap queries stays on the
    /// calling thread; results are bit-identical regardless of threading.
    fn score_batch(&self, queries: &[P]) -> Vec<f64>;

    /// Scores a single query against the fitted reference set — the
    /// per-event serving path. Semantically identical to a one-element
    /// [`score_batch`](Self::score_batch); implementors should override
    /// it to skip the batch allocation (the [`crate::Fitted`] impl
    /// answers straight from the inlier tree), which matters when a
    /// streaming caller scores millions of individual events.
    fn score_one(&self, point: &P) -> f64 {
        self.score_batch(std::slice::from_ref(point))[0]
    }

    /// The serving-path score corresponding to the fitted MDL cutoff
    /// distance `d`: queries whose [`score_one`](Self::score_one) is
    /// **strictly above** this value sit farther than `d` from every
    /// reference inlier, i.e. they would have been flagged outliers had
    /// they been part of the reference set. Infinite when the fit is
    /// degenerate or no cut exists (then nothing is flagged).
    ///
    /// The default derives the value from [`stats`](Self::stats) by
    /// reconstructing the radius grid from the diameter and radius
    /// count; [`crate::Fitted`] overrides it with the fitted grid (the
    /// two agree bit for bit, since the grid is a pure function of
    /// those two numbers).
    fn score_cutoff(&self) -> f64 {
        let stats = self.stats();
        // The `num_radii` range also guards RadiusGrid::new's
        // `2..=MAX_NUM_RADII` contract against nonsensical third-party
        // stats: invalid input stays a value, never a panic.
        if stats.degenerate
            || !stats.cutoff_d.is_finite()
            || !(2..=MAX_NUM_RADII).contains(&stats.num_radii)
        {
            return f64::INFINITY;
        }
        let grid = RadiusGrid::new(stats.diameter, stats.num_radii);
        let radii = grid.radii();
        let g = crate::detector::quantize_down(stats.cutoff_d, radii);
        universal_code_length_f64(1.0 + g / radii[0])
    }

    /// Live distance-evaluation totals of the model's reference index:
    /// the fit cost **plus** every serving query answered from the main
    /// tree since — the number a `/metrics` endpoint exposes so serving
    /// load is observable per backend. Unlike
    /// [`ModelStats::distance_evals`] (stable per fit), this value grows
    /// with traffic.
    ///
    /// The default answers from [`stats`](Self::stats) (fit cost only);
    /// [`crate::Fitted`] overrides it with the live index counter.
    fn distance_stats(&self) -> DistanceStats {
        DistanceStats {
            evals: self.stats().distance_evals,
        }
    }

    /// The `k` highest-ranked (most strange) microclusters; `k = 0` means
    /// all of them.
    fn top_k(&self, k: usize) -> Vec<Microcluster>;

    /// Summary of the fit and its detection results, for health endpoints
    /// and logs.
    fn stats(&self) -> ModelStats;

    /// Everything needed to persist this model and re-derive it exactly:
    /// the reference points, the (fully resolved) hyperparameters, and
    /// the index backend's stable name. Because the whole pipeline is
    /// deterministic, refitting the exported points with the same
    /// parameters, metric, and backend reproduces the model bit for bit
    /// — so a snapshot never has to serialize tree internals.
    ///
    /// Returns `None` when the model cannot be exported (the default, so
    /// third-party [`Model`] impls keep compiling); [`crate::Fitted`]
    /// overrides it.
    fn export(&self) -> Option<ModelExport<P>> {
        None
    }
}

/// A persistable view of a fitted model, from [`Model::export`]: the
/// inputs from which a deterministic refit reproduces it exactly.
#[derive(Debug, Clone)]
pub struct ModelExport<P> {
    /// The reference points the model was fitted on, in fit order.
    pub points: Arc<[P]>,
    /// Hyperparameters with every data-dependent default already
    /// resolved (`max_mc_cardinality` is always `Some`, `threads`
    /// nonzero), so re-resolving them against the same `n` is exact.
    /// Thread count never changes results, only wall-clock time.
    pub params: Params,
    /// The index backend's stable name (see
    /// `IndexBuilder::backend_name`): a snapshot must be rebuilt with
    /// the same index family, since the diameter estimate — and hence
    /// the radius grid and every score — depends on the tree structure.
    pub backend: &'static str,
}

/// Summary statistics of a fitted model, as reported by [`Model::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelStats {
    /// Number of reference points `n`.
    pub num_points: usize,
    /// The diameter estimate `l` (Alg. 1 line 2).
    pub diameter: f64,
    /// Number of radii `a` in the grid.
    pub num_radii: usize,
    /// The MDL cutoff `d` (infinite when no cut exists).
    pub cutoff_d: f64,
    /// Number of flagged outliers.
    pub num_outliers: usize,
    /// Number of gelled microclusters.
    pub num_microclusters: usize,
    /// Distance evaluations spent fitting this model: tree construction,
    /// the diameter estimate, and the one-time counting stage. Stable for
    /// the lifetime of the fit (serving queries are not included) and
    /// identical across thread counts, so it is safe to compare between
    /// replicas or log from health endpoints.
    pub distance_evals: u64,
    /// Whether the fit was degenerate (empty, singleton, or zero-diameter
    /// data); degenerate models report no outliers and all-zero scores.
    pub degenerate: bool,
}
