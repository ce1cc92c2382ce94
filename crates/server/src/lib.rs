//! # mccatch-server — HTTP scoring over the MCCATCH serving primitives
//!
//! A dependency-free (std-only, like the rest of the workspace)
//! multithreaded HTTP/1.1 service that turns the serving and streaming
//! primitives — `ModelStore`'s atomic tagged snapshots and
//! `StreamDetector`'s prequential ingest with background refit, grouped
//! into `mccatch_tenant::Tenant` shard sets — into something a network
//! client can actually call. There is one serving path: the bare
//! endpoints serve the **default tenant**, a 1-shard tenant held beside
//! the named-tenant map (it scores bit for bit like a plain
//! `StreamDetector`), and `/t/{tenant}/…` serves the named tenants
//! through the same code:
//!
//! | Endpoint | Method | Meaning |
//! |---|---|---|
//! | `/score` | POST | NDJSON points in, one `{"score": …}` per line out, the whole batch scored against **one** tagged model snapshot (`X-Mccatch-Generation` response header) |
//! | `/ingest` | POST | NDJSON events in, one scored-event object per line out; feeds the point's shard window through bounded admission (`TenantSpec::ingest_queue`; a saturated shard answers that line with an error object) and drives the refit policy; `X-Mccatch-Generation` is the tenant generation read after the batch |
//! | `/admin/refit` | POST | Synchronous refit on the current window; answers the new generation |
//! | `/admin/snapshot` | POST | Persists the tenant's snapshot set under the configured `snapshot_path` — `{path}.{tenant}.{shard}` files plus a `{path}.{tenant}.manifest` written last, `{path}.default.*` for the bare path — each via `mccatch_persist::atomic_write`; answers `{"generation", "seq", "bytes", "path"}` (`path` is the `{path}.{tenant}.*` pattern), or `409` when persistence is not configured |
//! | `/admin/snapshot/info` | GET | Reads the header of shard 0's snapshot (`{path}.{tenant}.0`) back (version, backend, points, generation) without loading the model; `404` until a snapshot exists |
//! | `/healthz` | GET | Liveness, with the served model generation and process uptime in a JSON body (probes can detect a wedged swap loop) |
//! | `/metrics` | GET | Prometheus text exposition: request/error counters, queue depth, `StreamStats`, `ModelStats`, live per-backend distance evaluations, plus latency histograms — per-endpoint `mccatch_request_duration_seconds`, per-NDJSON-line `mccatch_line_duration_seconds`, and `mccatch_stage_duration_seconds`, fed by every stage span (request route/handle/batch, shard fan-out and refit, fit, swap, restore, snapshot I/O) whether or not the request is traced; the default tenant's series are unlabeled, each named tenant adds `{tenant=…}`-labeled series and per-shard queue gauges |
//! | `/t/{tenant}/score` … | POST/GET | Any of the five endpoints above, scoped to a named tenant; equivalently, send `X-Mccatch-Tenant: {tenant}` on the bare path. Unknown tenant → `404`, invalid name → `400` |
//! | `/admin/tenants` | GET | Lists live named tenants (never the default tenant) |
//! | `/admin/tenants/{name}` | PUT / DELETE | Creates (idempotently; the body is an optional NDJSON seed, fitted across the tenant's shards in parallel) or deletes a tenant; the name `default` is reserved (`400`) |
//! | `/admin/debug/trace` | GET | The slow-request ring: the span trees of the most recent traces at or above `ServerConfig::trace_slow_ms` (or ending in a 5xx) as Chrome trace-event JSON, loadable in Perfetto; the empty envelope while tracing is off |
//!
//! Malformed input degrades **per line**, not per batch: an unparsable
//! or non-UTF-8 NDJSON line becomes a `{"line": N, "error": …}` object
//! in its position while the rest of the batch is served normally.
//! Malformed HTTP is answered with the proper status (`400` bad
//! framing, `404`/`405` routing, `413` oversized body — rejected before
//! reading it — `431` oversized head), and a full accept queue is
//! answered `503` + `Retry-After` instead of buffering without bound.
//!
//! Every response carries an `X-Mccatch-Request-Id` header (echoed from
//! the request when the client sent a sane one, generated otherwise),
//! and `ServerConfig::access_log` emits one structured NDJSON line per
//! request, with its `duration_ms`, plus one `"trace"` line per kept
//! trace — see the repo-level `ARCHITECTURE.md` ("Observability").
//!
//! Start a server with [`serve`]; stop it with
//! [`ServerHandle::shutdown`] (graceful: in-flight requests drain). See
//! the repo-level `ARCHITECTURE.md` ("Serving over HTTP") for the full
//! listener → pool → store flow.

#![deny(missing_docs)]

pub mod client;
mod config;
mod error;
mod http;
mod metrics;
pub mod ndjson;
mod obs;
mod server;
mod service;

pub use config::{AccessLog, ServerConfig};
pub use error::ServerError;
pub use ndjson::LineParser;
pub use server::{serve, ServerHandle};
