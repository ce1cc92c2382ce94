//! # mccatch-core — the MCCATCH microcluster detector
//!
//! A from-scratch Rust implementation of
//! *"MCCATCH: Scalable Microcluster Detection in Dimensional and
//! Nondimensional Datasets"* (Sánchez Vinces, Cordeiro, Faloutsos —
//! ICDE 2024).
//!
//! MCCATCH finds **microclusters** — singleton ('one-off') outliers *and*
//! small groups of mutually close outliers — in any metric dataset, ranks
//! them by a compression-based anomaly score, and needs no hyperparameter
//! tuning. The pipeline (Alg. 1):
//!
//! 1. **Radii** — build a metric tree, estimate the diameter `l`, derive a
//!    geometric radius grid `R = {l/2^(a-1), …, l}` ([`params::RadiusGrid`]).
//! 2. **'Oracle' plot** — count neighbors per radius with count-only
//!    spatial joins ([`counts`]), extract per-point *plateaus* of the
//!    count-vs-radius curve ([`plateau`]), and read off each point's
//!    1NN Distance `x` and Group 1NN Distance `y` ([`oracle`]).
//! 3. **Spot** — derive the cutoff `d` from the histogram of 1NN distances
//!    by minimum description length ([`cutoff`]), flag outliers, and gel
//!    the grouped ones into microclusters via connected components
//!    ([`gel`]).
//! 4. **Score** — rate each microcluster by the bits-per-point needed to
//!    describe it relative to its nearest inlier ([`score`]); the scores
//!    provably follow the paper's Isolation and Cardinality axioms.
//!
//! ## Quick start
//!
//! Configuration is validated up front ([`McCatch::builder`] returns
//! [`McCatchError`] values, never panics), fitting builds the tree and
//! radius grid once, and the [`Fitted`] handle answers any number of
//! detection and scoring requests:
//!
//! ```
//! use mccatch_core::McCatch;
//! use mccatch_index::SlimTreeBuilder;
//! use mccatch_metric::Euclidean;
//!
//! // A dense blob plus two nearby strays and one far isolate.
//! let mut points: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![(i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1])
//!     .collect();
//! points.push(vec![30.0, 30.0]);
//! points.push(vec![30.1, 30.0]);
//! points.push(vec![-40.0, 15.0]);
//!
//! let fitted = McCatch::builder()
//!     .build()?
//!     .fit(points, Euclidean, SlimTreeBuilder::default())?;
//! let out = fitted.detect();
//! assert!(out.is_outlier(100) && out.is_outlier(101) && out.is_outlier(102));
//! // The two strays gel into one 2-point microcluster.
//! assert_eq!(out.cluster_of(100).unwrap().cardinality(), 2);
//! // Serving path: rank new points against the fitted reference set.
//! let scores = fitted.score_points(&[vec![0.5, 0.5], vec![25.0, -30.0]]);
//! assert!(scores[1] > scores[0]);
//! # Ok::<(), mccatch_core::McCatchError>(())
//! ```
//!
//! The [`Fitted`] handle owns its data (`Arc<[P]>`), metric, and index
//! builder, so it is `Send + Sync + 'static` whenever its components are:
//! fit once, then move the handle into a server or share it across
//! threads. [`Fitted::into_model`] erases the metric and index types into
//! an `Arc<dyn Model<P>>` (see [`model`]) so services need no generics
//! plumbing; the `mccatch` facade crate builds a swappable `ModelStore`
//! on top of it.
//!
//! The one-shot `mccatch` free function from earlier releases was
//! removed in 0.4.0, as announced in its deprecation note; one-shot
//! callers use the borrowed-slice [`McCatch::fit_ref`] convenience,
//! which is not deprecated and stays.

#![deny(missing_docs)]

pub mod counts;
pub mod cutoff;
pub mod detector;
pub mod error;
pub mod gel;
pub mod model;
pub mod oracle;
pub mod params;
pub mod plateau;
pub mod result;
pub mod score;
pub mod serve;
pub mod unionfind;

pub use cutoff::{compression_cost, compute_cutoff, Cutoff};
pub use detector::{Fitted, McCatch, McCatchBuilder};
pub use error::McCatchError;
pub use model::{Model, ModelExport, ModelStats};
pub use oracle::{OraclePlot, OraclePoint};
pub use params::{Params, RadiusGrid, Resolved, MAX_NUM_RADII};
pub use result::{McCatchOutput, Microcluster, RunStats};
pub use score::def7_score;
pub use serve::ModelStore;
