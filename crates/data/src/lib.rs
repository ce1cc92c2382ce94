//! Dataset generators mirroring the MCCATCH evaluation (Tab. III).
//!
//! Every generator is seeded and fully deterministic. Real, gated corpora
//! (KDD'99 HTTP, satellite imagery, name/fingerprint/skeleton collections)
//! are replaced by synthetic analogues that preserve the geometry MCCATCH
//! reacts to — cardinalities, dimensionalities, outlier fractions, planted
//! microclusters. Each generator's module doc states what it stands in
//! for and which of those properties it reproduces.
//!
//! * [`axioms`] — the Fig. 2 isolation/cardinality scenarios (Tab. V).
//! * [`benchmarks`] — the 18 vector benchmark analogues (Fig. 6, Tab. IV).
//! * [`synthetic`] — Uniform / Diagonal scalability workloads (Fig. 7).
//! * [`names`], [`fingerprints`](mod@fingerprints), [`skeletons`](mod@skeletons) — nondimensional data
//!   (strings and trees; Fig. 1, Tab. III).
//! * [`satellite`] — Shanghai / Volcanoes tile grids (Fig. 1(i), 8(i)).
//! * [`network`] — the HTTP connection log with its 30-point DoS
//!   microcluster (Fig. 8(ii)).

pub mod axioms;
pub mod benchmarks;
pub mod fingerprints;
pub mod labeled;
pub mod names;
pub mod network;
pub mod rng;
pub mod satellite;
pub mod skeletons;
pub mod synthetic;

pub use axioms::{axiom_scenario, Axiom, AxiomScenario, InlierShape};
pub use benchmarks::{benchmark_by_name, BenchmarkSpec, BENCHMARKS};
pub use fingerprints::fingerprints;
pub use labeled::LabeledData;
pub use names::last_names;
pub use network::{http, http_dos_ids};
pub use satellite::{shanghai, volcanoes, TileImage};
pub use skeletons::skeletons;
pub use synthetic::{diagonal, uniform};
