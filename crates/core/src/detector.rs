//! The staged, reusable MCCATCH detector: configure once, fit once,
//! detect (and score new points) many times.
//!
//! A one-shot run rebuilds the metric tree on every call — fine for a
//! single analysis, wasteful for a service answering many detection or
//! scoring requests over the same reference dataset. This module splits
//! the pipeline at its natural seams:
//!
//! 1. **Configure** — [`McCatch::builder`] validates hyperparameters and
//!    returns configuration errors as [`McCatchError`] values instead of
//!    panicking.
//! 2. **Fit** — [`McCatch::fit`] runs Alg. 1 step I exactly once: build
//!    the tree, estimate the diameter, derive the radius grid.
//! 3. **Detect / serve** — the [`Fitted`] handle exposes the full
//!    pipeline ([`Fitted::detect`]), the lazily computed intermediate
//!    artifacts ([`Fitted::oracle`], [`Fitted::cutoff`]) for
//!    observability, and [`Fitted::score_points`] to rank *new* points
//!    against the fitted reference set — the serving path.
//!
//! [`Fitted`] is **owned**: it takes the dataset as (or into) an
//! `Arc<[P]>` and owns its metric and index builder, so it has no borrowed
//! lifetime. A fitted model can outlive the stack frame that loaded the
//! data, sit in a long-lived server, move across threads
//! (`Send + Sync + 'static` whenever its components are), and be erased
//! into an `Arc<dyn Model<P>>` serving handle via [`Fitted::into_model`].
//! One-shot callers with borrowed slices can use [`McCatch::fit_ref`],
//! which clones the data into a fresh `Arc`.
//!
//! Everything downstream of `fit` is deterministic and cached, so calling
//! [`Fitted::detect`] twice is both cheap (the joins run once) and
//! bit-identical to two independent fit-and-detect runs.
//!
//! ```
//! use mccatch_core::McCatch;
//! use mccatch_index::KdTreeBuilder;
//! use mccatch_metric::Euclidean;
//!
//! let mut points: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![(i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1])
//!     .collect();
//! points.push(vec![30.0, 30.0]);
//!
//! let detector = McCatch::builder().build()?;
//! let fitted = detector.fit(points, Euclidean, KdTreeBuilder::default())?;
//!
//! let out = fitted.detect();
//! assert!(out.is_outlier(100));
//!
//! // Serving path: rank held-out points against the fitted reference.
//! let scores = fitted.score_points(&[vec![0.35, 0.35], vec![-20.0, 40.0]]);
//! assert!(scores[1] > scores[0]);
//!
//! // The handle owns its data: return it, store it, move it to a thread.
//! let handle = std::thread::spawn(move || fitted.detect());
//! assert!(handle.join().unwrap().is_outlier(100));
//! # Ok::<(), mccatch_core::McCatchError>(())
//! ```

use crate::counts::{count_neighbors, count_neighbors_within};
use crate::cutoff::{compute_cutoff, Cutoff};
use crate::error::McCatchError;
use crate::gel::{spot_microclusters, SpottedMcs};
use crate::model::{Model, ModelExport, ModelStats};
use crate::oracle::OraclePlot;
use crate::params::{Params, RadiusGrid, Resolved};
use crate::plateau::crossing_ceilings;
use crate::result::{McCatchOutput, Microcluster, RunStats};
use crate::score::{complement_of_sorted, score_microclusters, McScores};
use mccatch_index::{DistanceStats, IndexBuilder, RangeIndex};
use mccatch_metric::{universal_code_length_f64, Metric};
use mccatch_obs::{Span, StageId};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Step-by-step construction of a validated [`McCatch`] detector.
///
/// Unset knobs keep the paper's hands-off defaults (`a = 15`, `b = 0.1`,
/// `c = ⌈n·0.1⌉`, all cores).
#[derive(Debug, Clone, Default)]
pub struct McCatchBuilder {
    params: Params,
}

impl McCatchBuilder {
    /// Number of neighborhood radii `a` (paper default 15; must be ≥ 2).
    pub fn num_radii(mut self, a: usize) -> Self {
        self.params.num_radii = a;
        self
    }

    /// Maximum plateau slope `b` (paper default 0.1; must be ≥ 0).
    pub fn max_plateau_slope(mut self, b: f64) -> Self {
        self.params.max_plateau_slope = b;
        self
    }

    /// Absolute maximum microcluster cardinality `c` (clamped to ≥ 1 at
    /// resolution, matching the paper's derived default). Without this
    /// call, `c` defaults to the paper's `⌈n · 0.1⌉`.
    pub fn max_mc_cardinality(mut self, c: usize) -> Self {
        self.params.max_mc_cardinality = Some(c);
        self
    }

    /// Worker threads for the counting joins; 0 (default) means all
    /// available cores. Thread count never changes results.
    pub fn threads(mut self, threads: usize) -> Self {
        self.params.threads = threads;
        self
    }

    /// Replaces the whole parameter set at once.
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Validates the configuration and builds the detector.
    pub fn build(self) -> Result<McCatch, McCatchError> {
        McCatch::new(self.params)
    }
}

/// A validated MCCATCH configuration, ready to [`fit`](McCatch::fit)
/// datasets. Construction is the only place hyperparameters are checked;
/// everything downstream is infallible on the parameter side.
#[derive(Debug, Clone, PartialEq)]
pub struct McCatch {
    params: Params,
}

impl McCatch {
    /// Starts a builder with the paper's defaults.
    pub fn builder() -> McCatchBuilder {
        McCatchBuilder::default()
    }

    /// Validates `params` and builds the detector.
    pub fn new(params: Params) -> Result<Self, McCatchError> {
        params.validate()?;
        Ok(Self { params })
    }

    /// The validated hyperparameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Runs Alg. 1 step I once: builds the index over `points`, estimates
    /// the diameter, and derives the radius grid. The returned [`Fitted`]
    /// handle **owns** its data (`Arc<[P]>`), metric, and index builder —
    /// it has no borrowed lifetime — and serves any number of
    /// [`detect`](Fitted::detect) / [`score_points`](Fitted::score_points)
    /// calls, from any thread.
    ///
    /// `points` accepts anything convertible into an `Arc<[P]>`: a
    /// `Vec<P>` (moved, no copy), an existing `Arc<[P]>` (shared, no
    /// copy — refits over the same data reuse one allocation), or a
    /// `&[P]` of cloneable points (copied once). For borrowed inputs see
    /// also [`McCatch::fit_ref`].
    pub fn fit<P, M, B>(
        &self,
        points: impl Into<Arc<[P]>>,
        metric: M,
        index_builder: B,
    ) -> Result<Fitted<P, M, B>, McCatchError>
    where
        P: Sync,
        M: Metric<P>,
        B: IndexBuilder<P, M>,
    {
        let points: Arc<[P]> = points.into();
        let metric = Arc::new(metric);
        let resolved = self.params.try_resolve(points.len())?;
        let span = Span::enter(StageId::FitBuild);
        let tree = index_builder.build_all(Arc::clone(&points), Arc::clone(&metric));
        let diameter = tree.diameter_estimate();
        let grid = RadiusGrid::new(diameter, resolved.a);
        let codes = ScoreTable::new(grid.radii());
        let t_build = span.finish();
        let d_build = tree.distance_stats().evals;
        Ok(Fitted {
            points,
            metric,
            index_builder,
            resolved,
            tree,
            grid,
            codes,
            t_build,
            d_build,
            oracle: OnceLock::new(),
            cutoff: OnceLock::new(),
            spotted: OnceLock::new(),
            scored: OnceLock::new(),
            inlier_tree: OnceLock::new(),
        })
    }

    /// Borrowed-slice shim over [`McCatch::fit`] for one-shot callers:
    /// clones `points`, `metric`, and `index_builder` into the owned
    /// handle (an `O(n)` copy, dwarfed by the tree build itself). The
    /// returned [`Fitted`] is just as lifetime-free as one from `fit`.
    pub fn fit_ref<P, M, B>(
        &self,
        points: &[P],
        metric: &M,
        index_builder: &B,
    ) -> Result<Fitted<P, M, B>, McCatchError>
    where
        P: Sync + Clone,
        M: Metric<P> + Clone,
        B: IndexBuilder<P, M> + Clone,
    {
        self.fit(
            Arc::<[P]>::from(points),
            metric.clone(),
            index_builder.clone(),
        )
    }
}

/// Timings and distance-evaluation counts of the lazily computed Oracle
/// plot.
#[derive(Debug, Clone, Copy)]
struct OracleTimings {
    t_count: Duration,
    t_plateaus: Duration,
    /// Distance evaluations the counting stage performed on the tree.
    d_count: u64,
}

/// A detector fitted to a reference dataset: the tree, diameter estimate,
/// and radius grid are built once; the Oracle plot, cutoff, and spotted
/// microclusters are computed lazily on first use and cached.
///
/// Obtained from [`McCatch::fit`]. The handle **owns** its dataset
/// (`Arc<[P]>`), metric, and index builder, so it carries no borrowed
/// lifetime: it can be returned from the function that loaded the data,
/// stored in a long-lived service, and moved or shared across threads —
/// `Fitted` is `Send + Sync + 'static` whenever its components are. All
/// accessors are `&self`, so one fitted detector can serve concurrent
/// readers; [`Fitted::into_model`] erases the metric and index types for
/// callers that don't want the generics.
pub struct Fitted<P, M, B>
where
    P: Sync,
    M: Metric<P>,
    B: IndexBuilder<P, M>,
{
    points: Arc<[P]>,
    metric: Arc<M>,
    index_builder: B,
    resolved: Resolved,
    tree: B::Index,
    grid: RadiusGrid,
    /// Every score the serving path can give, by grid position.
    codes: ScoreTable,
    t_build: Duration,
    /// Distance evaluations Step I spent (build + diameter estimate).
    d_build: u64,
    #[allow(clippy::type_complexity)]
    oracle: OnceLock<(OraclePlot, Vec<usize>, OracleTimings)>,
    cutoff: OnceLock<Cutoff>,
    spotted: OnceLock<(SpottedMcs, Duration)>,
    scored: OnceLock<(Vec<Microcluster>, McScores, Duration)>,
    inlier_tree: OnceLock<Option<B::Index>>,
}

impl<P, M, B> Fitted<P, M, B>
where
    P: Sync,
    M: Metric<P>,
    B: IndexBuilder<P, M>,
{
    /// The reference dataset this detector was fitted to.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// A shared handle to the reference dataset. Refitting over the same
    /// data (e.g. with different hyperparameters) through this handle
    /// reuses the allocation instead of copying the points.
    pub fn points_arc(&self) -> Arc<[P]> {
        Arc::clone(&self.points)
    }

    /// Number of reference points `n`.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// The diameter estimate `l` (Alg. 1 line 2).
    pub fn diameter(&self) -> f64 {
        self.grid.diameter()
    }

    /// The radius grid `R = {l/2^(a-1), …, l}` (Alg. 1 line 3).
    pub fn radii(&self) -> &[f64] {
        self.grid.radii()
    }

    /// The resolved hyperparameters (`c` and `threads` made absolute).
    pub fn resolved(&self) -> Resolved {
        self.resolved
    }

    /// Whether the fitted dataset has no usable geometry: empty, a single
    /// point, or all points identical (zero diameter). Degenerate fits
    /// report no microclusters and all-zero scores.
    pub fn is_degenerate(&self) -> bool {
        self.points.is_empty() || self.grid.is_degenerate()
    }

    /// The Oracle plot (Alg. 2): per point, 1NN Distance `x` vs Group 1NN
    /// Distance `y`. Computed on first call (the expensive counting
    /// joins), cached afterwards.
    pub fn oracle(&self) -> &OraclePlot {
        &self.oracle_entry().0
    }

    /// Active-set sizes before each counting join — the sparse-focused
    /// principle's diagnostic (length `a - 1`).
    pub fn active_per_radius(&self) -> &[usize] {
        &self.oracle_entry().1
    }

    /// The MDL cutoff `d` (Def. 6) over the histogram of 1NN distances.
    /// Lazily computed; `d` is infinite when no cut splits the histogram
    /// (degenerate or structureless data).
    pub fn cutoff(&self) -> &Cutoff {
        self.cutoff.get_or_init(|| {
            if self.is_degenerate() {
                Cutoff {
                    cut_index: None,
                    d: f64::INFINITY,
                    mode_index: None,
                }
            } else {
                compute_cutoff(self.oracle().histogram(), self.grid.radii())
            }
        })
    }

    /// Runs the remaining pipeline (spot, gel, score — Alg. 3 and 4) and
    /// assembles the full [`McCatchOutput`]. Every expensive stage runs
    /// once and is cached: repeat calls only clone the cached artifacts.
    /// Outputs are bit-identical on every call, and equal to a fresh
    /// one-shot configure-fit-detect run over the same data and
    /// parameters.
    pub fn detect(&self) -> McCatchOutput {
        let n = self.points.len();
        if self.is_degenerate() {
            let mut stats = RunStats {
                t_build: self.t_build,
                dist_build: self.d_build,
                ..RunStats::default()
            };
            stats.t_total = self.t_build;
            return McCatchOutput {
                microclusters: Vec::new(),
                point_scores: vec![0.0; n],
                outliers: Vec::new(),
                oracle: self.oracle().clone(),
                cutoff: self.cutoff().clone(),
                radii: self.grid.radii().to_vec(),
                diameter: self.grid.diameter(),
                stats,
            };
        }

        let timings = self.oracle_entry().2;
        let (spotted, t_spot) = self.spotted();
        let (microclusters, scores, t_score) = self.scored();

        let stats = RunStats {
            t_build: self.t_build,
            t_count: timings.t_count,
            t_plateaus: timings.t_plateaus,
            t_spot: *t_spot,
            t_score: *t_score,
            t_total: self.t_build + timings.t_count + timings.t_plateaus + *t_spot + *t_score,
            active_per_radius: self.active_per_radius().to_vec(),
            dist_build: self.d_build,
            dist_count: timings.d_count,
        };
        McCatchOutput {
            microclusters: microclusters.clone(),
            point_scores: scores.point_scores.clone(),
            outliers: spotted.outliers.clone(),
            oracle: self.oracle().clone(),
            cutoff: self.cutoff().clone(),
            radii: self.grid.radii().to_vec(),
            diameter: self.grid.diameter(),
            stats,
        }
    }

    /// Scores *new* points against the fitted reference set — the serving
    /// path. Each query gets the paper's per-point score `⟨1 + g/r₁⟩`
    /// (Alg. 4 lines 21–24), where `g` is the query's distance to its
    /// nearest reference **inlier**, quantized down to the radius grid
    /// exactly like the in-run outlier scores. A query that coincides
    /// with a reference inlier scores 0; queries far from every inlier —
    /// including ones sitting on a known microcluster — score high.
    ///
    /// The first 32 queries are scored on the calling thread and timed.
    /// The rest gets one scoring thread per 2 ms of work their time
    /// projects, at most the fit's resolved thread count, the calling
    /// thread included, each over one contiguous chunk. So a serving-size batch of cheap queries (a
    /// kd-tree's 3-d nearest inlier) stays on the calling thread, where a
    /// server already scores each request on a worker of its own, while
    /// queries that cost hundreds of distances (20-d vectors, strings)
    /// split even in small batches. Queries are independent, so the output
    /// is bit-identical on every thread count.
    ///
    /// Does not modify the fit: queries are not added to the reference
    /// set. Degenerate fits score everything 0.
    pub fn score_points(&self, queries: &[P]) -> Vec<f64> {
        if self.is_degenerate() {
            return vec![0.0; queries.len()];
        }
        let reference = self.serving_index();
        let mut out = vec![0.0; queries.len()];
        if queries.len() <= PROBE_QUERIES {
            score_split(reference, &self.codes, queries, &mut out, 1);
            return out;
        }
        let (probe, rest) = queries.split_at(PROBE_QUERIES);
        let (probe_out, rest_out) = out.split_at_mut(PROBE_QUERIES);
        let start = Instant::now();
        score_split(reference, &self.codes, probe, probe_out, 1);
        let per_query = start.elapsed() / PROBE_QUERIES as u32;
        let threads = scoring_threads(rest.len(), per_query, self.resolved.threads);
        score_split(reference, &self.codes, rest, rest_out, threads);
        out
    }

    /// Scores a single query against the fitted reference set without
    /// allocating a one-element batch — the per-event serving path used
    /// by streaming callers. Bit-identical to
    /// `score_points(&[query])[0]`: same inlier tree, same grid
    /// quantization, same `⟨1 + g/r₁⟩` code length.
    pub fn score_one(&self, query: &P) -> f64 {
        if self.is_degenerate() {
            return 0.0;
        }
        score_query(self.serving_index(), &self.codes, query)
    }

    /// The serving-path score at the fitted MDL cutoff distance `d`:
    /// queries scoring **strictly above** this value lie farther than
    /// `d` from every reference inlier — they would have been flagged
    /// outliers had they been in the reference set. Infinite for
    /// degenerate fits or when no cut exists (nothing is flagged then).
    /// Streaming drift triggers compare per-event scores against it.
    pub fn score_cutoff(&self) -> f64 {
        if self.is_degenerate() {
            return f64::INFINITY;
        }
        let d = self.cutoff().d;
        if !d.is_finite() {
            return f64::INFINITY;
        }
        self.codes.score(d)
    }

    /// The `k` highest-ranked (most strange) microclusters; `k = 0` means
    /// all of them. Runs the spot/gel/score stages on first use (cached).
    pub fn top_k(&self, k: usize) -> Vec<Microcluster> {
        if self.is_degenerate() {
            return Vec::new();
        }
        let ranked = &self.scored().0;
        let take = if k == 0 {
            ranked.len()
        } else {
            k.min(ranked.len())
        };
        ranked[..take].to_vec()
    }

    /// Summary of the fit and its detection results, for health endpoints
    /// and logs. Runs the detection stages on first use (cached).
    pub fn stats(&self) -> ModelStats {
        let degenerate = self.is_degenerate();
        let (num_outliers, num_microclusters) = if degenerate {
            (0, 0)
        } else {
            (self.spotted().0.outliers.len(), self.scored().0.len())
        };
        ModelStats {
            num_points: self.points.len(),
            diameter: self.grid.diameter(),
            num_radii: self.grid.radii().len(),
            cutoff_d: self.cutoff().d,
            num_outliers,
            num_microclusters,
            distance_evals: self.d_build + self.oracle_entry().2.d_count,
            degenerate,
        }
    }

    /// Live distance-evaluation totals of the fit and its serving: what
    /// Step I and the counting stage spent on the reference tree, plus
    /// the evaluations of the serving queries since, on whichever tree
    /// answered them. The inlier tree that answers them is counted once it
    /// exists, its build included; reading this never builds it. For a
    /// number that is stable per fit (and comparable across replicas),
    /// use [`ModelStats::distance_evals`] from [`Fitted::stats`] instead.
    pub fn distance_stats(&self) -> DistanceStats {
        let serving = self
            .inlier_tree
            .get()
            .and_then(Option::as_ref)
            .map_or(0, |t| t.distance_stats().evals);
        DistanceStats {
            evals: self.tree.distance_stats().evals + serving,
        }
    }

    /// Everything needed to persist this fit and re-derive it exactly:
    /// the reference points, the resolved hyperparameters (re-resolving
    /// them against the same `n` reproduces [`Fitted::resolved`] field
    /// for field), and the index backend's stable name. See
    /// [`Model::export`].
    pub fn export(&self) -> ModelExport<P> {
        ModelExport {
            points: Arc::clone(&self.points),
            params: Params {
                num_radii: self.resolved.a,
                max_plateau_slope: self.resolved.b,
                max_mc_cardinality: Some(self.resolved.c),
                threads: self.resolved.threads,
            },
            backend: self.index_builder.backend_name(),
        }
    }

    /// Erases the metric and index types behind the object-safe
    /// [`Model`] trait, yielding a shareable serving handle. The `Arc`
    /// can be cloned into any number of threads; every clone answers
    /// from this one fit.
    pub fn into_model(self) -> Arc<dyn Model<P>>
    where
        P: Send + Sync + 'static,
        M: 'static,
        B: Send + Sync + 'static,
        B::Index: Send + Sync + 'static,
    {
        Arc::new(self)
    }

    fn oracle_entry(&self) -> &(OraclePlot, Vec<usize>, OracleTimings) {
        self.oracle.get_or_init(|| {
            if self.is_degenerate() {
                // Mirror the legacy degenerate branch: an empty counting
                // pass so the plot is well-formed with all-zero entries.
                let table = count_neighbors(&self.tree, &self.points, self.grid.radii(), 0, 1);
                let plot = OraclePlot::from_counts(
                    &table,
                    self.grid.radii(),
                    self.resolved.b,
                    self.resolved.c,
                );
                let timings = OracleTimings {
                    t_count: Duration::default(),
                    t_plateaus: Duration::default(),
                    d_count: 0,
                };
                return (plot, table.active_per_radius, timings);
            }
            let evals_before = self.tree.distance_stats().evals;
            let span = Span::enter(StageId::FitCounting);
            // Each crossing count is needed only up to the least value
            // that decides the plateau test reading it.
            let radii = self.grid.radii();
            let ceil = crossing_ceilings(
                &radii[..radii.len() - 1],
                self.resolved.b,
                self.resolved.c,
                self.points.len(),
            );
            let table = count_neighbors_within(
                &self.tree,
                &self.points,
                radii,
                self.resolved.c,
                &ceil,
                self.resolved.threads,
            );
            let t_count = span.finish();
            let d_count = self.tree.distance_stats().evals - evals_before;
            let span = Span::enter(StageId::FitPlotting);
            let plot = OraclePlot::from_counts(
                &table,
                self.grid.radii(),
                self.resolved.b,
                self.resolved.c,
            );
            let t_plateaus = span.finish();
            (
                plot,
                table.active_per_radius,
                OracleTimings {
                    t_count,
                    t_plateaus,
                    d_count,
                },
            )
        })
    }

    fn spotted(&self) -> &(SpottedMcs, Duration) {
        self.spotted.get_or_init(|| {
            let span = Span::enter(StageId::FitGelling);
            let spotted = spot_microclusters(
                &self.points,
                &self.metric,
                &self.index_builder,
                self.oracle(),
                self.cutoff(),
                self.grid.radii(),
            );
            let t_spot = span.finish();
            (spotted, t_spot)
        })
    }

    /// Step IV (Alg. 4), run once: scores plus the ranked microcluster
    /// list. Later `detect()` calls only clone the cached results.
    fn scored(&self) -> &(Vec<Microcluster>, McScores, Duration) {
        self.scored.get_or_init(|| {
            let (spotted, _) = self.spotted();
            let span = Span::enter(StageId::FitScoring);
            let scores = score_microclusters(
                &self.points,
                &self.metric,
                &self.index_builder,
                &spotted.clusters,
                &spotted.outliers,
                self.oracle(),
                self.grid.radii(),
                self.resolved.threads,
            );
            let t_score = span.finish();

            // Rank most-strange-first (Probl. 1); deterministic tie-breaks.
            let mut microclusters: Vec<Microcluster> = spotted
                .clusters
                .iter()
                .cloned()
                .zip(scores.mc_scores.iter().copied())
                .zip(scores.bridges.iter().copied())
                .zip(scores.mean_1nn.iter().copied())
                .map(
                    |(((members, score), bridge_length), mean_1nn)| Microcluster {
                        members,
                        score,
                        bridge_length,
                        mean_1nn,
                    },
                )
                .collect();
            microclusters.sort_by(|x, y| {
                y.score
                    .total_cmp(&x.score)
                    .then(x.members.len().cmp(&y.members.len()))
                    .then(x.members[0].cmp(&y.members[0]))
            });
            (microclusters, scores, t_score)
        })
    }

    /// The index the serving path queries: the inlier tree, or the full
    /// tree when every reference point is an outlier (tiny pathological
    /// fits), so that scores stay meaningful.
    fn serving_index(&self) -> &dyn RangeIndex<P> {
        match self.inlier_tree() {
            None => &self.tree,
            Some(t) => t,
        }
    }

    /// The index over the reference inliers, built lazily for the serving
    /// path; `None` when every reference point is an outlier.
    fn inlier_tree(&self) -> Option<&B::Index> {
        self.inlier_tree
            .get_or_init(|| {
                let outliers = &self.spotted().0.outliers;
                let inliers = complement_of_sorted(self.points.len(), outliers);
                if inliers.is_empty() {
                    None
                } else {
                    Some(self.index_builder.build(
                        Arc::clone(&self.points),
                        inliers,
                        Arc::clone(&self.metric),
                    ))
                }
            })
            .as_ref()
    }
}

impl<P, M, B> Model<P> for Fitted<P, M, B>
where
    P: Send + Sync,
    M: Metric<P>,
    B: IndexBuilder<P, M> + Send + Sync,
    B::Index: Send + Sync,
{
    fn detect_output(&self) -> McCatchOutput {
        self.detect()
    }

    fn score_batch(&self, queries: &[P]) -> Vec<f64> {
        self.score_points(queries)
    }

    fn score_one(&self, point: &P) -> f64 {
        Fitted::score_one(self, point)
    }

    fn score_cutoff(&self) -> f64 {
        Fitted::score_cutoff(self)
    }

    fn distance_stats(&self) -> DistanceStats {
        Fitted::distance_stats(self)
    }

    fn top_k(&self, k: usize) -> Vec<Microcluster> {
        Fitted::top_k(self, k)
    }

    fn stats(&self) -> ModelStats {
        Fitted::stats(self)
    }

    fn export(&self) -> Option<ModelExport<P>> {
        Some(Fitted::export(self))
    }
}

/// Queries [`Fitted::score_points`] scores on the calling thread, and
/// times, before it splits the rest of a batch. A batch this small never
/// splits.
const PROBE_QUERIES: usize = 32;

/// Projected work per scoring thread of [`Fitted::score_points`].
/// Spawning and joining one scoped thread took ~36 µs on a 2-core Intel
/// Xeon VM, so a spawn is under 2% of a thread's share. The work of a
/// query ranges widely, and no query count fits every backend and metric:
/// a kd-tree's nearest inlier among 2,000 3-d http points took 0.6–0.9 µs
/// (2 ms is ~2,500 of them, so a 500-line batch stays on one thread),
/// while a Slim-tree or kd-tree over 2,000 uniform 20-d points
/// took 45–110 µs per query (a 500-line batch splits).
const MIN_WORK_PER_THREAD: Duration = Duration::from_millis(2);

/// The scoring threads for `rest` queries that each took `per_query` on
/// the calling thread: one per [`MIN_WORK_PER_THREAD`] of projected work,
/// at least 1 and at most `threads`.
fn scoring_threads(rest: usize, per_query: Duration, threads: usize) -> usize {
    let work = per_query.as_nanos().saturating_mul(rest as u128);
    let wanted = work / MIN_WORK_PER_THREAD.as_nanos();
    usize::try_from(wanted)
        .unwrap_or(usize::MAX)
        .clamp(1, threads.max(1))
}

/// Scores `queries` into `out` on `threads` threads, each over one
/// contiguous chunk: the calling thread takes the first, and one spawned
/// thread each of the others. Every thread fills a disjoint slice of
/// `out`, so the result does not depend on `threads`.
fn score_split<P: Sync>(
    reference: &dyn RangeIndex<P>,
    codes: &ScoreTable,
    queries: &[P],
    out: &mut [f64],
    threads: usize,
) {
    let score = |queries: &[P], out: &mut [f64]| {
        for (slot, q) in out.iter_mut().zip(queries) {
            *slot = score_query(reference, codes, q);
        }
    };
    let chunk = queries.len().div_ceil(threads.max(1));
    if chunk == queries.len() {
        return score(queries, out);
    }
    std::thread::scope(|scope| {
        let mut chunks = queries.chunks(chunk).zip(out.chunks_mut(chunk));
        let (first, first_out) = chunks.next().expect("at least two chunks");
        for (queries, out) in chunks {
            scope.spawn(move || score(queries, out));
        }
        score(first, first_out);
    });
}

/// Scores one serving-path query: its nearest reference neighbor's
/// distance, looked up in the fit's [`ScoreTable`]. Free function so the
/// parallel chunks of [`Fitted::score_points`] can share it without
/// capturing.
fn score_query<P>(reference: &dyn RangeIndex<P>, codes: &ScoreTable, q: &P) -> f64 {
    codes.score(reference.nearest(q).map_or(f64::INFINITY, |n| n.dist))
}

/// The serving score `⟨1 + g/r₁⟩` (Alg. 4 lines 21–24) of every value
/// the grid quantization [`quantize_down`] can give `g`: `0, r₁, …, r_a`.
/// A query's score is then a lookup by its nearest-inlier distance
/// instead of a `log₂` chain, computed by the same expression from the
/// same `g`, so the two agree bit for bit.
#[derive(Debug, Clone)]
struct ScoreTable {
    radii: Vec<f64>,
    /// `codes[k]` codes `g = radii[k - 1]` (`0` for `k = 0`), the
    /// quantization of a distance whose first radius at or above it is
    /// `radii[k]`; `codes[a]` codes `g = r_a`, for a distance above every
    /// radius or NaN.
    codes: Vec<f64>,
}

impl ScoreTable {
    fn new(radii: &[f64]) -> Self {
        let codes = std::iter::once(0.0)
            .chain(radii.iter().copied())
            .map(|g| universal_code_length_f64(1.0 + g / radii[0]))
            .collect();
        Self {
            radii: radii.to_vec(),
            codes,
        }
    }

    /// `⟨1 + quantize_down(dist)/r₁⟩`, by the [`grid_slot`] of `dist`.
    #[inline]
    fn score(&self, dist: f64) -> f64 {
        self.codes[grid_slot(dist, &self.radii)]
    }
}

/// Where an exact nearest-inlier distance falls on the radius grid: the
/// index of the first radius at or above it, or `a` when there is none
/// (a distance past `r_a`, or NaN). [`quantize_down`] maps slot `k` to
/// `r_k` (`r_0 = 0`), and [`ScoreTable`] to that radius's score.
#[inline]
fn grid_slot(exact: f64, radii: &[f64]) -> usize {
    radii
        .iter()
        .position(|&r| r >= exact)
        .unwrap_or(radii.len())
}

/// Quantizes an exact nearest-inlier distance down to the radius grid the
/// way Alg. 4 lines 1–12 do for in-run outliers: the largest grid radius
/// at which the inlier neighborhood is still empty (`r_0 = 0`; capped at
/// `r_a` when even the largest radius finds no inlier). Shared with the
/// default `Model::score_cutoff` impl in [`crate::model`].
pub(crate) fn quantize_down(exact: f64, radii: &[f64]) -> f64 {
    match grid_slot(exact, radii) {
        0 => 0.0,
        k => radii[k - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_index::{BruteForceBuilder, KdTreeBuilder, SlimTreeBuilder};
    use mccatch_metric::{Euclidean, Levenshtein};

    fn blob_with_strays() -> Vec<Vec<f64>> {
        let mut pts: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 20) as f64 * 0.1, (i / 20) as f64 * 0.1])
            .collect();
        pts.push(vec![30.0, 30.0]);
        pts.push(vec![30.1, 30.0]);
        pts.push(vec![-40.0, 15.0]);
        pts
    }

    #[test]
    fn builder_validates() {
        assert!(McCatch::builder().build().is_ok());
        assert_eq!(
            McCatch::builder().num_radii(1).build().unwrap_err(),
            McCatchError::InvalidNumRadii { got: 1 }
        );
        assert!(matches!(
            McCatch::builder().max_plateau_slope(-2.0).build(),
            Err(McCatchError::InvalidSlope { .. })
        ));
        // Explicit c = 0 is clamped to 1 at resolution, not rejected: the
        // smallest microcluster is one point, and configurations that set
        // 0 have run since the first release.
        assert!(McCatch::builder().max_mc_cardinality(0).build().is_ok());
    }

    #[test]
    fn builder_sets_every_knob() {
        let det = McCatch::builder()
            .num_radii(9)
            .max_plateau_slope(0.2)
            .max_mc_cardinality(7)
            .threads(2)
            .build()
            .unwrap();
        assert_eq!(
            det.params(),
            &Params {
                num_radii: 9,
                max_plateau_slope: 0.2,
                max_mc_cardinality: Some(7),
                threads: 2,
            }
        );
    }

    #[test]
    fn cardinality_past_every_count_fits_without_ceilings() {
        // No count can exceed such a `c`, so there is nothing to clamp,
        // and deriving the ceilings must not overflow.
        let pts = blob_with_strays();
        for c in [pts.len(), usize::MAX] {
            let out = McCatch::builder()
                .max_mc_cardinality(c)
                .build()
                .unwrap()
                .fit_ref(&pts, &Euclidean, &BruteForceBuilder)
                .unwrap()
                .detect();
            assert_eq!(out.point_scores.len(), pts.len());
        }
    }

    #[test]
    fn detect_twice_is_identical() {
        let pts = blob_with_strays();
        let det = McCatch::builder().build().unwrap();
        let fitted = det.fit(pts, Euclidean, SlimTreeBuilder::default()).unwrap();
        let a = fitted.detect();
        let b = fitted.detect();
        assert_eq!(a.outliers, b.outliers);
        assert_eq!(a.point_scores, b.point_scores);
        assert_eq!(a.microclusters, b.microclusters);
    }

    #[test]
    fn lazy_artifacts_match_detect_output() {
        let pts = blob_with_strays();
        let det = McCatch::builder().build().unwrap();
        let fitted = det.fit(pts.clone(), Euclidean, BruteForceBuilder).unwrap();
        // Observability accessors before any detect() call.
        assert!(fitted.cutoff().d.is_finite());
        assert_eq!(fitted.oracle().points().len(), pts.len());
        let out = fitted.detect();
        assert_eq!(out.cutoff, *fitted.cutoff());
        assert_eq!(out.radii, fitted.radii());
        assert_eq!(out.stats.active_per_radius, fitted.active_per_radius());
    }

    #[test]
    fn score_points_ranks_outlier_queries_high() {
        let pts = blob_with_strays();
        let det = McCatch::builder().build().unwrap();
        let fitted = det.fit(pts, Euclidean, SlimTreeBuilder::default()).unwrap();
        let scores = fitted.score_points(&[
            vec![0.55, 0.55],   // inside the blob
            vec![-40.0, -40.0], // far from everything
            vec![30.05, 30.0],  // on the known microcluster
        ]);
        assert!(scores[1] > scores[0], "{scores:?}");
        assert!(scores[2] > scores[0], "{scores:?}");
    }

    #[test]
    fn score_points_matches_in_run_scores_for_reference_points() {
        let pts = blob_with_strays();
        let det = McCatch::builder().build().unwrap();
        let fitted = det
            .fit(pts.clone(), Euclidean, SlimTreeBuilder::default())
            .unwrap();
        let out = fitted.detect();
        // Outlier queries that *are* reference outliers reproduce their
        // in-run per-point scores (same g quantization, same formula).
        for &i in &out.outliers {
            let q = fitted.score_points(std::slice::from_ref(&pts[i as usize]));
            assert_eq!(q[0], out.point_scores[i as usize], "point {i}");
        }
    }

    #[test]
    fn degenerate_fits_are_well_formed() {
        let det = McCatch::builder().build().unwrap();

        let empty: Vec<Vec<f64>> = Vec::new();
        let fitted = det
            .fit(empty, Euclidean, SlimTreeBuilder::default())
            .unwrap();
        assert!(fitted.is_degenerate());
        let out = fitted.detect();
        assert!(out.microclusters.is_empty());
        assert_eq!(fitted.score_points(&[vec![1.0, 1.0]]), vec![0.0]);
        assert!(fitted.top_k(0).is_empty());
        assert!(fitted.stats().degenerate);

        let same = vec![vec![5.0, 5.0]; 40];
        let fitted = det
            .fit(same, Euclidean, SlimTreeBuilder::default())
            .unwrap();
        assert!(fitted.is_degenerate());
        assert_eq!(fitted.detect().point_scores, vec![0.0; 40]);
    }

    #[test]
    fn nondimensional_fit_and_score() {
        let mut words: Vec<String> = ["smith", "smyth", "smithe", "smit", "smiths", "smythe"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        words.push("xylophonist".into());
        let det = McCatch::builder().build().unwrap();
        let fitted = det
            .fit(words, Levenshtein, SlimTreeBuilder::default())
            .unwrap();
        let out = fitted.detect();
        assert!(out.is_outlier(6));
        let scores = fitted.score_points(&["smyths".to_string(), "zzzzzzzzzzzz".to_string()]);
        assert!(scores[1] > scores[0], "{scores:?}");
    }

    #[test]
    fn score_one_matches_score_points() {
        let pts = blob_with_strays();
        let det = McCatch::builder().build().unwrap();
        let fitted = det.fit(pts, Euclidean, SlimTreeBuilder::default()).unwrap();
        let queries = vec![
            vec![0.55, 0.55],
            vec![-40.0, -40.0],
            vec![30.05, 30.0],
            vec![0.0, 0.0],
        ];
        let batch = fitted.score_points(&queries);
        for (q, &expected) in queries.iter().zip(&batch) {
            assert_eq!(fitted.score_one(q), expected, "query {q:?}");
        }
        // Degenerate fits score 0 without panicking.
        let degenerate = det
            .fit(
                Vec::<Vec<f64>>::new(),
                Euclidean,
                SlimTreeBuilder::default(),
            )
            .unwrap();
        assert_eq!(degenerate.score_one(&vec![1.0, 2.0]), 0.0);
    }

    #[test]
    fn score_cutoff_separates_outlier_queries() {
        let pts = blob_with_strays();
        let det = McCatch::builder().build().unwrap();
        let fitted = det
            .fit(pts.clone(), Euclidean, SlimTreeBuilder::default())
            .unwrap();
        let out = fitted.detect();
        let threshold = fitted.score_cutoff();
        assert!(threshold.is_finite());
        // Every in-run outlier sits beyond the cutoff distance from its
        // nearest inlier, so its serving score exceeds the threshold…
        for &i in &out.outliers {
            assert!(
                fitted.score_one(&pts[i as usize]) > threshold,
                "outlier {i}"
            );
        }
        // …while reference inliers score 0, well below it.
        let inlier = (0..pts.len() as u32)
            .find(|i| !out.outliers.contains(i))
            .unwrap();
        assert!(fitted.score_one(&pts[inlier as usize]) <= threshold);

        // Degenerate fits flag nothing.
        let degenerate = det
            .fit(vec![vec![1.0]; 10], Euclidean, SlimTreeBuilder::default())
            .unwrap();
        assert_eq!(degenerate.score_cutoff(), f64::INFINITY);
    }

    #[test]
    fn erased_score_one_and_cutoff_match_fitted() {
        // The trait's default impls (one-element batch; grid
        // reconstruction from stats) must agree bit for bit with the
        // overridden fast paths.
        let pts = blob_with_strays();
        let det = McCatch::builder().build().unwrap();
        let fitted = det
            .fit(pts.clone(), Euclidean, SlimTreeBuilder::default())
            .unwrap();
        let expected_cutoff = fitted.score_cutoff();
        let q = vec![30.05, 30.0];
        let expected_score = fitted.score_one(&q);
        let model = fitted.into_model();
        assert_eq!(model.score_one(&q), expected_score);
        assert_eq!(model.score_cutoff(), expected_cutoff);
        // Default-impl path: a minimal Model that only forwards the four
        // required methods, so score_one/score_cutoff fall back to the
        // provided defaults.
        struct Minimal(Arc<dyn Model<Vec<f64>>>);
        impl Model<Vec<f64>> for Minimal {
            fn detect_output(&self) -> McCatchOutput {
                self.0.detect_output()
            }
            fn score_batch(&self, queries: &[Vec<f64>]) -> Vec<f64> {
                self.0.score_batch(queries)
            }
            fn top_k(&self, k: usize) -> Vec<Microcluster> {
                self.0.top_k(k)
            }
            fn stats(&self) -> ModelStats {
                self.0.stats()
            }
        }
        let minimal = Minimal(model);
        assert_eq!(minimal.score_one(&q), expected_score);
        assert_eq!(minimal.score_cutoff(), expected_cutoff);
    }

    #[test]
    fn quantize_down_matches_alg4_convention() {
        let radii = [1.0, 2.0, 4.0, 8.0];
        assert_eq!(quantize_down(0.0, &radii), 0.0);
        assert_eq!(quantize_down(0.5, &radii), 0.0); // within r_1 -> r_0 = 0
        assert_eq!(quantize_down(1.5, &radii), 1.0);
        assert_eq!(quantize_down(4.0, &radii), 2.0); // inclusive counts
        assert_eq!(quantize_down(5.0, &radii), 4.0);
        assert_eq!(quantize_down(100.0, &radii), 8.0); // beyond the grid
        assert_eq!(quantize_down(f64::NAN, &radii), 8.0); // no radius is >= NaN
    }

    #[test]
    fn top_k_and_stats_match_detect() {
        let pts = blob_with_strays();
        let det = McCatch::builder().build().unwrap();
        let fitted = det.fit(pts, Euclidean, SlimTreeBuilder::default()).unwrap();
        let out = fitted.detect();
        let stats = fitted.stats();
        assert_eq!(stats.num_outliers, out.outliers.len());
        assert_eq!(stats.num_microclusters, out.microclusters.len());
        assert_eq!(stats.cutoff_d, out.cutoff.d);
        assert!(!stats.degenerate);
        assert_eq!(fitted.top_k(0), out.microclusters);
        assert_eq!(fitted.top_k(1).as_slice(), &out.microclusters[..1]);
        assert_eq!(fitted.top_k(usize::MAX), out.microclusters);
    }

    #[test]
    fn fit_ref_matches_owned_fit() {
        let pts = blob_with_strays();
        let det = McCatch::builder().build().unwrap();
        let owned = det
            .fit(pts.clone(), Euclidean, SlimTreeBuilder::default())
            .unwrap()
            .detect();
        let borrowed = det
            .fit_ref(&pts, &Euclidean, &SlimTreeBuilder::default())
            .unwrap()
            .detect();
        assert_eq!(owned.outliers, borrowed.outliers);
        assert_eq!(owned.point_scores, borrowed.point_scores);
        assert_eq!(owned.microclusters, borrowed.microclusters);
    }

    #[test]
    fn erased_model_answers_like_the_fitted_handle() {
        let pts = blob_with_strays();
        let queries = vec![vec![0.55, 0.55], vec![-40.0, -40.0], vec![30.05, 30.0]];
        let det = McCatch::builder().build().unwrap();
        let fitted = det
            .fit(pts.clone(), Euclidean, SlimTreeBuilder::default())
            .unwrap();
        let direct = fitted.detect();
        let direct_scores = fitted.score_points(&queries);
        let direct_stats = fitted.stats();

        let model = det
            .fit(pts, Euclidean, SlimTreeBuilder::default())
            .unwrap()
            .into_model();
        let erased = model.detect_output();
        assert_eq!(direct.outliers, erased.outliers);
        assert_eq!(direct.point_scores, erased.point_scores);
        assert_eq!(direct_scores, model.score_batch(&queries));
        assert_eq!(direct.microclusters, model.top_k(0));
        assert_eq!(direct_stats, model.stats());
    }

    #[test]
    fn distance_stats_are_deterministic_and_populated() {
        let pts = blob_with_strays();
        let det = McCatch::builder().build().unwrap();
        let run = |threads: usize| {
            let det = McCatch::builder().threads(threads).build().unwrap();
            let fitted = det
                .fit(pts.clone(), Euclidean, SlimTreeBuilder::default())
                .unwrap();
            let out = fitted.detect();
            (out.stats.dist_build, out.stats.dist_count, fitted.stats())
        };
        let (build1, count1, stats1) = run(1);
        let (build8, count8, stats8) = run(8);
        assert!(build1 > 0, "tree construction computes distances");
        assert!(count1 > 0, "the counting stage computes distances");
        // Thread count never changes what is computed, only where.
        assert_eq!((build1, count1), (build8, count8));
        assert_eq!(stats1, stats8);
        assert_eq!(stats1.distance_evals, build1 + count1);
        // The live tree counter covers at least the fit-time work.
        let fitted = det
            .fit(pts.clone(), Euclidean, SlimTreeBuilder::default())
            .unwrap();
        let _ = fitted.detect();
        assert!(fitted.distance_stats().evals >= build1 + count1);
    }

    /// 1,001 queries over and around [`blob_with_strays`].
    fn grid_queries() -> Vec<Vec<f64>> {
        (0..1001)
            .map(|i| vec![(i % 80) as f64 * 0.35 - 5.0, (i / 80) as f64 * 0.5 - 3.0])
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Same data, different splits: bit-identical batch scores, from
    /// score_points at 1 and 8 fit threads and from the batch split into
    /// 1, 2, 3 and 8 chunks (2 to 8 spawned threads), each equal to
    /// score_one query by query.
    fn assert_splits_match_score_one<B>(builder: B)
    where
        B: IndexBuilder<Vec<f64>, Euclidean> + Clone,
    {
        let pts = blob_with_strays();
        let queries = grid_queries();
        let fit = |threads: usize| {
            McCatch::builder()
                .threads(threads)
                .build()
                .unwrap()
                .fit(pts.clone(), Euclidean, builder.clone())
                .unwrap()
        };
        let (one, eight) = (fit(1), fit(8));
        let single: Vec<f64> = queries.iter().map(|q| one.score_one(q)).collect();
        assert_eq!(bits(&one.score_points(&queries)), bits(&single));
        assert_eq!(bits(&eight.score_points(&queries)), bits(&single));
        let reference = eight.serving_index();
        for threads in [1, 2, 3, 8] {
            let mut out = vec![f64::NAN; queries.len()];
            score_split(reference, &eight.codes, &queries, &mut out, threads);
            assert_eq!(bits(&out), bits(&single), "{threads} threads");
        }
    }

    #[test]
    fn score_points_parallel_matches_serial() {
        assert_splits_match_score_one(KdTreeBuilder::default());
        assert_splits_match_score_one(SlimTreeBuilder::default());
        assert_splits_match_score_one(BruteForceBuilder);
    }

    /// A batch charges the serving evaluations its queries would one at a
    /// time, `distance_stats` counts them without building the inlier
    /// tree, and the per-fit `ModelStats` stay put.
    fn assert_serving_evals_are_counted<B: IndexBuilder<Vec<f64>, Euclidean>>(builder: B) {
        let fitted = McCatch::builder()
            .build()
            .unwrap()
            .fit(blob_with_strays(), Euclidean, builder)
            .unwrap();
        let stats = fitted.stats();
        let fit_evals = fitted.distance_stats().evals;
        assert!(fitted.inlier_tree.get().is_none(), "a read built the tree");
        let queries = grid_queries();
        let _ = fitted.score_one(&queries[0]);
        let e0 = fitted.distance_stats().evals;
        assert!(e0 > fit_evals, "the first query is counted");
        let _ = fitted.score_points(&queries);
        let e1 = fitted.distance_stats().evals;
        for q in &queries {
            let _ = fitted.score_one(q);
        }
        let e2 = fitted.distance_stats().evals;
        assert!(e1 - e0 >= queries.len() as u64, "{e0} -> {e1}");
        assert_eq!(e1 - e0, e2 - e1, "batch and single queries differ");
        assert_eq!(fitted.stats(), stats);
    }

    #[test]
    fn serving_evals_are_counted_once_per_query() {
        assert_serving_evals_are_counted(KdTreeBuilder::default());
        assert_serving_evals_are_counted(SlimTreeBuilder::default());
        assert_serving_evals_are_counted(BruteForceBuilder);
    }

    #[test]
    fn score_table_codes_the_quantized_distance() {
        for (diameter, a) in [(8.0, 4), (3.7, 15), (1234.5678, 2), (1e-300, 64)] {
            let grid = RadiusGrid::new(diameter, a);
            let radii = grid.radii();
            let table = ScoreTable::new(radii);
            let want = |d: f64| universal_code_length_f64(1.0 + quantize_down(d, radii) / radii[0]);
            let mut probes = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
            for &r in radii {
                probes.extend([r.next_down(), r, r.next_up()]);
            }
            for d in probes {
                assert_eq!(
                    table.score(d).to_bits(),
                    want(d).to_bits(),
                    "{d} on {radii:?}"
                );
            }
        }
    }

    #[test]
    fn threads_follow_the_projected_work() {
        let us = Duration::from_micros;
        for threads in [0, 1, 2, 8] {
            // A 500-line batch of kd 3-d queries, even at 5x their cost.
            assert_eq!(scoring_threads(468, us(4), threads), 1);
            assert_eq!(scoring_threads(0, us(100), threads), 1);
        }
        // 500 queries of ~100 µs (20-d vectors, strings) fill every thread.
        assert_eq!(scoring_threads(468, us(100), 2), 2);
        assert_eq!(scoring_threads(468, us(100), 8), 8);
        // One thread per 2 ms of work.
        assert_eq!(scoring_threads(5000, us(1), 8), 2);
        assert_eq!(scoring_threads(usize::MAX, Duration::MAX, 8), 8);
    }
}
