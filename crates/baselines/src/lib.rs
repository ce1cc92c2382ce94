//! Reimplementations of the 11 baselines MCCATCH is compared against
//! (Fig. 6, Tab. IV-VI), plus the shared machinery they need.
//!
//! | Paper baseline | Here | Notes |
//! |---|---|---|
//! | ABOD / FastABOD | [`abod_scores`] / [`fast_abod_scores`] | exact cubic / kNN variant |
//! | LOCI / ALOCI | [`loci_scores`] / [`aloci_scores`] | exact / grid approximation |
//! | DB-Out | [`db_out_scores`] | continuous DB(π, r) |
//! | kNN-Out | [`knn_out_scores`] | k-th NN distance |
//! | ODIN | [`odin_scores`] | inverse kNN-graph in-degree |
//! | LOF | [`lof_scores`] | local outlier factor |
//! | iForest | [`iforest_scores`] | isolation forest |
//! | Gen2Out | [`gen2out()`] | simplified; the only group-scoring competitor |
//! | D.MCA | [`dmca()`] | simplified; explicit microcluster assignment |
//! | RDA | [`rpca_scores`] | robust-PCA substitution (see [`rpca`](mod@rpca)) |
//! | DBSCAN / KMeans-- | [`dbscan_scores`] / [`kmeans_minus_minus`] | clustering-based |
//! | OPTICS | [`optics_scores`] | reachability-plot detector (Tab. I) |
//! | SCiForest | [`sciforest_scores`] | split-selected oblique iForest (Tab. I) |
//!
//! Every detector returns per-point scores where *higher means more
//! anomalous*, so the evaluation harness can treat them uniformly. All
//! randomized methods take explicit seeds and are deterministic.
//!
//! The metric-capable baselines (LOF, kNN-Out, ODIN, DB-Out, LOCI, DBSCAN)
//! are generic over `Metric`/`IndexBuilder` and run on nondimensional data
//! "if adapted to work with a suitable distance function and a metric
//! tree" — exactly the paper's Tab. I footnote. The rest require
//! coordinates, which is why Tab. I marks them as failing goal G1.

pub mod abod;
pub mod dbout;
pub mod dbscan;
pub mod dmca;
pub mod gen2out;
pub mod iforest;
pub mod kmeansmm;
pub mod knn;
pub mod loci;
pub mod lof;
pub mod optics;
pub mod rpca;
pub mod sciforest;
pub(crate) mod unionfind_small;

pub use abod::{abod_scores, fast_abod_scores};
pub use dbout::{db_out_scores, radius_grid};
pub use dbscan::{dbscan, dbscan_scores, DbscanLabel};
pub use dmca::{dmca, DmcaResult};
pub use gen2out::{gen2out, Gen2OutGroup, Gen2OutResult};
pub use iforest::{c_factor, iforest_scores, IsolationForest};
pub use kmeansmm::kmeans_minus_minus;
pub use knn::{knn_all, knn_out_scores, odin_scores};
pub use loci::{aloci_scores, loci_scores};
pub use lof::lof_scores;
pub use optics::{optics, optics_scores, OpticsResult};
pub use rpca::rpca_scores;
pub use sciforest::sciforest_scores;
