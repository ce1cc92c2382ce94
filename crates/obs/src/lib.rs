//! Observability primitives for the MCCATCH serving stack: latency
//! histograms, stage-span timing, and structured NDJSON logging.
//!
//! The paper's headline claim is scalability (MCCATCH, ICDE 2024, is
//! "the fastest method that scales near-linearly"), so the repro needs
//! to *time* work, not just count it. This crate is the shared,
//! std-only toolbox the rest of the workspace records into:
//!
//! * [`Histogram`] — a lock-free log₂-bucketed latency histogram.
//!   Recording is two relaxed atomics (plus a compare-and-swap on new
//!   maxima), buckets are fixed so histograms merge by addition, and
//!   [`render_histogram`] emits the Prometheus
//!   `_bucket`/`_sum`/`_count` text exposition. `mccatch-server` keeps
//!   one per endpoint (and per tenant), plus per-NDJSON-line
//!   histograms for `/score` and `/ingest`.
//! * [`Span`] — the one way to time a region, over a closed stage
//!   vocabulary ([`STAGES`], declared once with its [`StageId`] enum):
//!   fit pipeline stages in `mccatch-core`, refit and swap latency in
//!   `mccatch-stream`, shard fan-out, shard refit and restore in
//!   `mccatch-tenant`, snapshot save/load in `mccatch-persist`, and
//!   the request path in `mccatch-server`. Every span closes into the
//!   process-global [`StageRecorder`] ([`global()`]), scraped by
//!   `/metrics` as `mccatch_stage_duration_seconds`, and inside a
//!   traced region it is also a child span of that trace.
//! * [`Logger`] / [`Fields`] — a leveled structured logger writing one
//!   JSON object per line (monotonic timestamps, process sequence
//!   numbers) to stderr or a file. Failed writes are dropped — logging
//!   never takes down serving — but counted
//!   ([`Logger::dropped_lines`], exposed as
//!   `mccatch_log_dropped_lines_total`).
//! * [`trace`] — per-request tracing: a [`trace::Trace`] collects a
//!   tree of timed spans across the shard fan-out, a process-global
//!   tail [`trace::Sampler`] keeps only slow-or-failed traces, and
//!   [`trace::chrome_trace_json`] exports them as Perfetto-loadable
//!   Chrome trace-event JSON (`GET /admin/debug/trace`). W3C-style
//!   `traceparent` headers are parsed and echoed so the trace id ties
//!   into the caller's distributed context.
//! * [`json`] — the workspace's one strict JSON reader. Paired with
//!   [`json_escape`] on the write side, it decodes every JSON document
//!   the stack reads: NDJSON request lines, replay-log lines, and tenant
//!   manifests.
//!
//! ```
//! use mccatch_obs::{global, Histogram, Span, StageId};
//! use std::time::Duration;
//!
//! let h = Histogram::new();
//! h.record(Duration::from_micros(750));
//! h.record(Duration::from_millis(3));
//! let snap = h.snapshot();
//! assert_eq!(snap.count(), 2);
//! assert!(snap.quantile(0.99) >= snap.quantile(0.5));
//!
//! {
//!     let _span = Span::enter(StageId::PersistSave); // records on drop
//! }
//! let elapsed = Span::enter(StageId::PersistLoad).finish(); // or on finish
//! let stages = global().snapshot();
//! assert!(stages[StageId::PersistSave.index()].1.count() >= 1);
//! assert!(elapsed < Duration::from_secs(60));
//! ```

#![deny(missing_docs)]

mod hist;
pub mod json;
mod log;
mod span;
pub mod trace;

pub use hist::{render_histogram, Histogram, HistogramSnapshot, BUCKETS, FIRST_POW, LAST_POW};
pub use log::{json_escape, Fields, Level, Logger};
pub use span::{global, Span, StageId, StageRecorder, STAGES};
