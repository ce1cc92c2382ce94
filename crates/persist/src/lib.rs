//! # mccatch-persist
//!
//! Versioned model snapshots, warm restart, and an NDJSON ingest
//! replay log for the MCCATCH workspace (ICDE 2024).
//!
//! A snapshot is **not** a serialized tree. It stores the model's
//! reference points, resolved hyperparameters, and index-backend name,
//! plus the fitted summary (diameter, radius grid, MDL cutoff,
//! [`ModelStats`](mccatch_core::ModelStats)) as a *witness*. Because
//! the whole pipeline is deterministic, [`load_model`] refits the
//! stored points and verifies the rebuild bit-for-bit against the
//! witness — so a successful load guarantees byte-identical
//! `score_batch`, `top_k`, and `score_cutoff` to the model that was
//! saved, while a snapshot written by an incompatible build is refused
//! as [`PersistError::RebuildDiverged`] instead of silently serving
//! different scores.
//!
//! Damaged input is always a typed [`PersistError`] — truncation,
//! corruption, bad magic, version or dimensionality mismatches never
//! panic and never trigger attacker-sized allocations.
//!
//! The crate has three layers:
//!
//! - the codec: [`save_model`] / [`load_model`] / [`read_info`] over
//!   any `io::Write` / `io::Read`, with the format spelled out in
//!   [`snapshot`];
//! - the replay log: [`ReplayWriter`] / [`ReplayReader`], one NDJSON
//!   line per accepted stream event, with a configurable
//!   [`FsyncPolicy`] and a truncation-tolerant tail;
//! - [`atomic_write`], the one tmp + fsync + rename + directory-fsync
//!   file replace every snapshot, manifest, and log rotation goes
//!   through;
//! - warm-restart glue: [`save_store`] / [`load_store`] for the
//!   serving [`ModelStore`](mccatch_core::ModelStore), and
//!   [`checkpoint_stream`] / [`restore_stream`] for the streaming
//!   [`StreamDetector`](mccatch_stream::StreamDetector).
//!
//! ## Example: snapshot round trip
//!
//! ```
//! use mccatch_core::{McCatch, Params};
//! use mccatch_index::SlimTreeBuilder;
//! use mccatch_metric::Euclidean;
//! use mccatch_persist::{load_model, save_model};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let points: Vec<Vec<f64>> =
//!     (0..64).map(|i| vec![i as f64, (i % 7) as f64]).collect();
//! let fitted =
//!     McCatch::new(Params::default())?.fit(points, Euclidean, SlimTreeBuilder::default())?;
//!
//! let mut buf = Vec::new();
//! save_model(&fitted, 0, 0, &mut buf)?;
//!
//! let loaded = load_model(&buf[..], Euclidean, SlimTreeBuilder::default())?;
//! let query = vec![3.5, 2.0];
//! assert_eq!(
//!     fitted.score_one(&query).to_bits(),
//!     loaded.fitted.score_one(&query).to_bits(),
//! );
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod atomic;
mod codec;
mod error;
mod point;
mod replay;
mod restart;
pub mod snapshot;

pub use atomic::atomic_write;
pub use codec::crc32;
pub use error::PersistError;
pub use point::PersistPoint;
pub use replay::{FsyncPolicy, ReplayEntry, ReplayReader, ReplayWriter};
pub use restart::{checkpoint_stream, load_store, restore_stream, save_store, LoadedStore};
pub use snapshot::{load_model, read_info, save_model, LoadedModel, SnapshotInfo, FORMAT_VERSION};
