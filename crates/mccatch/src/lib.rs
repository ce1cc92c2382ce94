//! # MCCATCH — scalable microcluster detection
//!
//! The batteries-included facade for the MCCATCH workspace, a faithful
//! Rust reproduction of *"MCCATCH: Scalable Microcluster Detection in
//! Dimensional and Nondimensional Datasets"* (Sánchez Vinces, Cordeiro,
//! Faloutsos — ICDE 2024).
//!
//! MCCATCH detects and ranks **microclusters of outliers** — both 'one-off'
//! singletons and small groups of mutually close anomalies — in any
//! dataset that has a distance function: vectors, strings, trees, or your
//! own metric type. It is deterministic, needs no hyperparameter tuning,
//! and its scores obey the paper's Isolation and Cardinality axioms.
//!
//! ## The staged API: fit once, detect many
//!
//! [`McCatch::builder`] validates configuration up front (errors are
//! [`McCatchError`] values — nothing panics), [`McCatch::fit`] builds the
//! metric tree, diameter estimate, and radius grid exactly once, and the
//! resulting [`Fitted`] handle answers any number of requests:
//! [`Fitted::detect`] runs the full pipeline, [`Fitted::score_points`]
//! ranks *new* points against the fitted reference set (the serving
//! path), and [`Fitted::oracle`] / [`Fitted::cutoff`] expose the
//! intermediate artifacts for observability.
//!
//! The handle **owns** its data (`Arc<[P]>`), metric, and index builder:
//! it has no borrowed lifetime, so it can be returned from the function
//! that loaded the data, stored in a service struct, and shared across
//! threads (`Send + Sync + 'static`).
//!
//! ```
//! use mccatch::index::KdTreeBuilder;
//! use mccatch::metrics::Euclidean;
//! use mccatch::McCatch;
//!
//! let mut points: Vec<Vec<f64>> = (0..200)
//!     .map(|i| vec![(i % 20) as f64 * 0.1, (i / 20) as f64 * 0.1])
//!     .collect();
//! points.push(vec![30.0, 30.0]); // a 2-point microcluster …
//! points.push(vec![30.1, 30.0]);
//! points.push(vec![-25.0, 10.0]); // … and a one-off outlier
//!
//! let detector = McCatch::builder().build()?;
//! let fitted = detector.fit(points, Euclidean, KdTreeBuilder::default())?;
//!
//! let out = fitted.detect();
//! assert_eq!(out.num_outliers(), 3);
//! assert_eq!(out.cluster_of(200).unwrap().cardinality(), 2);
//!
//! // Serve: score held-out points against the same fit — no re-indexing.
//! let scores = fitted.score_points(&[vec![0.55, 0.45], vec![40.0, -40.0]]);
//! assert!(scores[1] > scores[0]);
//! # Ok::<(), mccatch::McCatchError>(())
//! ```
//!
//! ## Serving: type-erased models and swap-on-refit
//!
//! [`Fitted::into_model`] erases the metric and index types behind the
//! object-safe [`Model`] trait, and [`serve::ModelStore`] holds the
//! erased handle behind an atomic snapshot/swap cell — the pattern for a
//! long-running service that refits periodically while readers keep
//! scoring:
//!
//! ```
//! use mccatch::index::KdTreeBuilder;
//! use mccatch::metrics::Euclidean;
//! use mccatch::serve::ModelStore;
//! use mccatch::{McCatch, Model};
//! use std::sync::Arc;
//!
//! let detector = McCatch::builder().build()?;
//! let points: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
//!     .collect();
//! let model: Arc<dyn Model<Vec<f64>>> = detector
//!     .fit(points, Euclidean, KdTreeBuilder::default())?
//!     .into_model();
//! let store = Arc::new(ModelStore::new(model));
//!
//! // Any number of worker threads share the store…
//! let worker = {
//!     let store = Arc::clone(&store);
//!     std::thread::spawn(move || store.score_batch(&[vec![900.0, 900.0]]))
//! };
//! assert!(worker.join().unwrap()[0] > 0.0);
//!
//! // …and a refit job swaps in fresh fits without blocking them.
//! let fresh: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![(i % 10) as f64, (i / 10) as f64 + 1.0])
//!     .collect();
//! store.swap(
//!     detector
//!         .fit(fresh, Euclidean, KdTreeBuilder::default())?
//!         .into_model(),
//! );
//! assert_eq!(store.generation(), 1);
//! # Ok::<(), mccatch::McCatchError>(())
//! ```
//!
//! ## Nondimensional data: bring a metric
//!
//! ```
//! use mccatch::index::SlimTreeBuilder;
//! use mccatch::metrics::Levenshtein;
//! use mccatch::McCatch;
//!
//! let mut words: Vec<String> = ["smith", "smyth", "smithe", "smit", "smiths",
//!     "smythe", "psmith", "smitt", "asmith", "smity"]
//!     .iter().map(|s| s.to_string()).collect();
//! words.push("xylophonist".into());
//!
//! let fitted = McCatch::builder()
//!     .build()?
//!     .fit(words, Levenshtein, SlimTreeBuilder::default())?;
//! assert!(fitted.detect().is_outlier(10));
//! # Ok::<(), mccatch::McCatchError>(())
//! ```
//!
//! ## Invalid configuration is a value, not a panic
//!
//! ```
//! use mccatch::{McCatch, McCatchError};
//!
//! let err = McCatch::builder().num_radii(1).build().unwrap_err();
//! assert_eq!(err, McCatchError::InvalidNumRadii { got: 1 });
//! ```
//!
//! ## Legacy one-shot shims: removed in 0.4.0
//!
//! The original free functions — `detect_vectors`, `detect_metric`, and
//! the root `mccatch()` — were deprecated in 0.2.0 and **removed in
//! 0.4.0**, as announced in the README's deprecation timeline. One-shot
//! callers holding a `&[P]` use the borrowed-slice [`McCatch::fit_ref`]
//! convenience, which is not deprecated and stays:
//!
//! ```
//! use mccatch::index::KdTreeBuilder;
//! use mccatch::metrics::Euclidean;
//! use mccatch::McCatch;
//!
//! let points = vec![vec![0.0], vec![1.0], vec![50.0]];
//! let out = McCatch::builder()
//!     .build()?
//!     .fit_ref(&points, &Euclidean, &KdTreeBuilder::default())?
//!     .detect();
//! assert_eq!(out.point_scores.len(), 3);
//! # Ok::<(), mccatch::McCatchError>(())
//! ```
//!
//! The re-exported sub-crates offer full control: [`core`] (the algorithm
//! and its intermediate artifacts), [`index`] (Slim-tree / kd-tree /
//! brute force), [`metrics`] (distances), [`data`] (paper-analogue dataset
//! generators), [`eval`] (AUROC & friends), and [`baselines`] (the 11
//! competitors from the paper's evaluation).

/// Serving utilities: the atomic snapshot/swap [`serve::ModelStore`].
/// Lives in `mccatch-core` (so the streaming crate can build on it);
/// re-exported here under its long-standing `mccatch::serve` path.
pub use mccatch_core::serve;

/// The streaming subsystem: [`stream::StreamDetector`] maintains a
/// sliding window over recent events, scores each arriving event
/// immediately against the current model snapshot, and refits in the
/// background (every-N, drift-triggered, or on explicit request),
/// swapping models atomically via [`serve::ModelStore`].
pub use mccatch_stream as stream;

/// The HTTP serving tier: [`server::serve`] fronts a default
/// [`tenant::Tenant`] (one shard, behind the bare endpoints) and a
/// [`tenant::TenantMap`] of named tenants with a std-only multithreaded
/// HTTP/1.1 service — `POST /score` (batch scoring against one tagged
/// model snapshot per shard), `POST /ingest` (streamed events with
/// per-event scores), `POST /admin/refit`, `GET /healthz`, and a
/// Prometheus `GET /metrics` — with bounded-queue backpressure (`503` +
/// `Retry-After`) and graceful shutdown. The CLI wraps it as
/// `mccatch --serve ADDR`.
pub use mccatch_server as server;

/// Multi-tenant serving: [`tenant::TenantMap`] is a concurrent registry
/// of named tenants, each owning an isolated set of shards — per-shard
/// [`stream::StreamDetector`]s fed through a hash router
/// ([`tenant::ShardRouter`]) with bounded per-shard admission queues, so
/// one hot tenant can never starve the rest. A tenant fits its shards in
/// parallel and serves the ensemble (a query's score is the min across
/// shard models; one shard is bit-identical to a plain detector). The
/// HTTP tier mounts a map with [`server::serve`] (`/t/{tenant}/…`
/// routing plus the `/admin/tenants` lifecycle, beside the 1-shard
/// default tenant from [`tenant::TenantMap::create_default`] on the bare
/// paths); the CLI wraps it as `--serve ADDR --tenants N --shards K`.
pub use mccatch_tenant as tenant;

/// Observability: the lock-free log₂-bucketed latency
/// [`obs::Histogram`] (mergeable, Prometheus exposition via
/// [`obs::render_histogram`]), the one stage span [`obs::Span`] (each
/// closes into the process-global [`obs::global`] recorder, surfaced as
/// the `mccatch_stage_duration_seconds` family on `/metrics`, and nests
/// in the current [`obs::trace`] when one is active), and the
/// structured NDJSON [`obs::Logger`] behind the server's access log.
pub use mccatch_obs as obs;

/// Persistence: versioned model snapshots ([`persist::save_model`] /
/// [`persist::load_model`], verified bit-identical on load), one-call
/// warm restart for the serving store and the streaming detector
/// ([`persist::restore_stream`]), and the NDJSON ingest replay log
/// ([`persist::ReplayWriter`] / [`persist::ReplayReader`]) that rebuilds
/// the exact sliding window after a crash. The CLI wraps it as
/// `--save-model` / `--load-model` / `--replay-log`, the HTTP tier as
/// `POST /admin/snapshot`.
pub use mccatch_persist as persist;

/// Compiles and runs the code snippets in the repo-level
/// `ARCHITECTURE.md` as doctests, so the architecture documentation
/// cannot silently rot. Not part of the public API.
#[doc = include_str!("../../../ARCHITECTURE.md")]
#[cfg(doctest)]
pub struct ArchitectureDoctests;

/// Compiles and runs the code snippets in the repo-level `README.md` as
/// doctests — the README's quickstarts must keep building against the
/// real API. Not part of the public API.
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use mccatch_core::{
    Cutoff, Fitted, McCatch, McCatchBuilder, McCatchError, McCatchOutput, Microcluster, Model,
    ModelStats, OraclePlot, OraclePoint, Params, RunStats,
};

/// The underlying algorithm crate (plateaus, cutoff, gelling, scoring).
pub use mccatch_core as core;

/// Metric access methods: Slim-tree, kd-tree, brute force.
pub use mccatch_index as index;

/// Distance functions and the `Metric` trait.
pub use mccatch_metric as metrics;

/// Dataset generators mirroring the paper's evaluation data.
pub use mccatch_data as data;

/// Evaluation metrics and statistics.
pub use mccatch_eval as eval;

/// The 11 competitor detectors.
pub use mccatch_baselines as baselines;

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_index::KdTreeBuilder;
    use mccatch_metric::Euclidean;

    fn grid_plus_isolate() -> Vec<Vec<f64>> {
        let mut pts: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
            .collect();
        pts.push(vec![500.0, 500.0]);
        pts
    }

    #[test]
    fn fit_ref_covers_the_one_shot_lifecycle() {
        // The 0.4.0-removed free-function shims pointed their callers
        // here: borrowed slice in, one-shot detection out.
        let pts = grid_plus_isolate();
        let out = McCatch::builder()
            .build()
            .unwrap()
            .fit_ref(&pts, &Euclidean, &KdTreeBuilder::default())
            .unwrap()
            .detect();
        assert!(out.is_outlier(100));
    }

    #[test]
    fn every_subsystem_is_reachable_through_the_facade() {
        // The facade's whole job: one crate, every path. `serve`,
        // `stream`, and `server` must stay importable under their
        // long-standing names.
        let model = McCatch::builder()
            .build()
            .unwrap()
            .fit(grid_plus_isolate(), Euclidean, KdTreeBuilder::default())
            .unwrap()
            .into_model();
        let store = serve::ModelStore::new(model);
        assert_eq!(store.generation(), 0);
        assert!(stream::StreamConfig::default().validate().is_ok());
        assert!(server::ServerConfig::default().validate().is_ok());
    }
}
