//! The listener, the bounded worker pool, request routing, and graceful
//! shutdown.
//!
//! ```text
//!                    accept()        bounded queue         workers (N threads)
//! client ──TCP──►  acceptor ──try_send──► [conn|conn] ──recv──► parse → route →
//!                     │ full?                                   respond (keep-alive
//!                     ▼                                         until close/shutdown)
//!               503 + Retry-After
//!               (explicit backpressure — never unbounded buffering)
//! ```
//!
//! Shutdown is cooperative and drains in-flight work: the flag flips,
//! a self-connection wakes the acceptor, the queue sender drops, each
//! worker finishes the request it is serving (answering it with
//! `Connection: close`), drains any already-accepted connections, and
//! exits; `shutdown()` then joins every thread.

use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::http::{self, Request, Response};
use crate::metrics::{render_prometheus, Counters, Endpoint, TenantScrape};
use crate::ndjson::LineParser;
use crate::obs::{request_id, ServerObs};
use crate::service::{
    MapRegistry, NdjsonOutcome, Service, SnapshotInfoOutcome, SnapshotOutcome, TenantRegistry,
    TenantService,
};
use mccatch_index::IndexBuilder;
use mccatch_metric::Metric;
use mccatch_obs::trace;
use mccatch_obs::{json_escape, Fields, Histogram, Level, Span, StageId};
use mccatch_persist::PersistPoint;
use mccatch_tenant::{valid_tenant_name, RouteKey, Tenant, TenantMap};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the acceptor and workers share.
struct Shared {
    config: ServerConfig,
    /// The default tenant: bare `/score`, `/ingest`, … serve it.
    service: Arc<dyn Service>,
    /// The named tenants behind `/t/{tenant}/…` and `/admin/tenants`.
    registry: Arc<dyn TenantRegistry>,
    counters: Counters,
    /// Latency histograms, the access logger, and the slow-request
    /// ring.
    obs: ServerObs,
    index_label: String,
    shutdown: AtomicBool,
    /// When the server started, for the `/metrics` uptime gauge and the
    /// `/healthz` body.
    start: Instant,
}

/// A running HTTP scoring service, returned by [`serve`].
///
/// The handle owns the acceptor and worker threads. [`shutdown`]
/// (also invoked on drop) stops accepting, drains in-flight requests,
/// and joins every thread; [`local_addr`] reports the bound address —
/// ask for port `0` and read it back for ephemeral test servers.
///
/// [`shutdown`]: ServerHandle::shutdown
/// [`local_addr`]: ServerHandle::local_addr
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The address the server is listening on (with the real port even
    /// when bound to port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown, drains in-flight requests, and joins every
    /// thread. Idempotent; called automatically on drop.
    pub fn shutdown(&self) {
        if !self.shared.shutdown.swap(true, Ordering::AcqRel) {
            // Wake the acceptor out of its blocking accept(); the
            // connection itself is discarded by the shutdown check.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(acceptor) = self
            .acceptor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = acceptor.join();
        }
        let workers: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for w in workers {
            let _ = w.join();
        }
    }

    /// Blocks the calling thread until the server shuts down (from
    /// another thread's [`shutdown`](Self::shutdown) or process exit) —
    /// the `--serve` CLI's main-thread parking spot.
    pub fn wait(&self) {
        if let Some(acceptor) = self
            .acceptor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("shutdown", &self.shared.shutdown.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

/// Starts the HTTP scoring service.
///
/// Validates `config`, binds `addr` (use port `0` for an ephemeral
/// port), spawns the acceptor and `config.workers` worker threads, and
/// returns the running [`ServerHandle`]. Every request reaches a
/// [`Tenant`]:
///
/// * `default` serves the bare endpoints (`/score`, `/ingest`, …). Build
///   it with [`TenantMap::create_default`] or warm-restart it with
///   [`TenantMap::restore_default`]; either way it has one shard, so it
///   scores bit for bit like a plain `StreamDetector`. It is held beside
///   `tenants`, never in it: it does not show in `GET /admin/tenants`,
///   the `mccatch_tenants` gauge, or the `{tenant="…"}` series — its
///   series on `/metrics` are the unlabeled ones.
/// * `tenants` serves `/t/{tenant}/…` (or the `X-Mccatch-Tenant`
///   header) and the `/admin/tenants` lifecycle endpoints. To warm
///   restart the fleet, call [`TenantMap::restore_tenants`] before this
///   function binds the socket.
///
/// `POST /admin/snapshot` writes each tenant's set under
/// `ServerConfig::snapshot_path` as `{path}.{tenant}.{shard}` plus a
/// `{path}.{tenant}.manifest` written last (`{path}.default.*` for the
/// default tenant); replay logs follow the map's
/// [`TenantSpec::replay`](mccatch_tenant::TenantSpec::replay). `parser`
/// decodes one NDJSON request line into a point (see
/// [`crate::ndjson::vector_parser`] and
/// [`crate::ndjson::parse_string_line`]); `index_label` names the index
/// backend in the `/metrics` distance-evaluation series.
///
/// Both handles are shared, not consumed: the process can keep calling
/// `ingest`/`refit_now` on its own clones of the `Arc`s while the server
/// runs.
///
/// ```no_run
/// use mccatch_core::McCatch;
/// use mccatch_index::KdTreeBuilder;
/// use mccatch_metric::Euclidean;
/// use mccatch_server::{ndjson, serve, ServerConfig};
/// use mccatch_tenant::{TenantMap, TenantSpec};
/// use std::sync::Arc;
///
/// let seed: Vec<Vec<f64>> = (0..100)
///     .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
///     .collect();
/// let tenants = Arc::new(TenantMap::new(
///     McCatch::builder().build()?,
///     Euclidean,
///     KdTreeBuilder::default(),
///     TenantSpec::default(),
/// )?);
/// let default = tenants.create_default(seed)?;
/// let server = serve(
///     "127.0.0.1:0",
///     ServerConfig::default(),
///     default,
///     tenants,
///     ndjson::vector_parser(Some(2)),
///     "kd",
/// )?;
/// println!("listening on http://{}", server.local_addr());
/// server.wait();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn serve<P, M, B>(
    addr: impl ToSocketAddrs + std::fmt::Debug,
    config: ServerConfig,
    default: Arc<Tenant<P, M, B>>,
    tenants: Arc<TenantMap<P, M, B>>,
    parser: LineParser<P>,
    index_label: impl Into<String>,
) -> Result<ServerHandle, ServerError>
where
    P: PersistPoint + RouteKey + Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    config.validate()?;
    let obs = ServerObs::open(&config)?;
    let bind_err = |e: &std::io::Error| ServerError::Bind {
        addr: format!("{addr:?}"),
        kind: e.kind(),
        message: e.to_string(),
    };
    let listener = TcpListener::bind(&addr).map_err(|e| bind_err(&e))?;
    let local = listener.local_addr().map_err(|e| bind_err(&e))?;

    let shared = Arc::new(Shared {
        service: Arc::new(TenantService::new(
            default,
            Arc::clone(&parser),
            config.snapshot_path.clone(),
        )),
        registry: Arc::new(MapRegistry::new(
            tenants,
            parser,
            config.snapshot_path.clone(),
        )),
        index_label: index_label.into(),
        counters: Counters::default(),
        obs,
        shutdown: AtomicBool::new(false),
        start: Instant::now(),
        config,
    });
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(shared.config.queue);
    let rx = Arc::new(Mutex::new(rx));

    let workers = (0..shared.config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("mccatch-http-{i}"))
                .spawn(move || worker_loop(shared, rx))
                .expect("spawn http worker thread")
        })
        .collect();
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("mccatch-http-accept".to_owned())
            .spawn(move || accept_loop(shared, listener, tx))
            .expect("spawn http acceptor thread")
    };

    Ok(ServerHandle {
        addr: local,
        shared,
        acceptor: Mutex::new(Some(acceptor)),
        workers: Mutex::new(workers),
    })
}

/// Accepts connections and hands them to the pool, answering `503`
/// directly when the queue is full. The `tx` sender drops on exit,
/// which is what lets idle workers notice the shutdown.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener, tx: SyncSender<TcpStream>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let conn = match conn {
            Ok(c) => c,
            // Transient accept errors (EMFILE, aborted handshakes) must
            // not kill the listener.
            Err(_) => continue,
        };
        let _ = conn.set_nodelay(true);
        // Increment before sending, exactly like the stream crate's
        // refit queue: the worker decrements as soon as it pops, so the
        // other order could race the gauge below zero.
        shared.counters.queue_depth.fetch_add(1, Ordering::AcqRel);
        match tx.try_send(conn) {
            Ok(()) => {
                shared
                    .counters
                    .connections_accepted
                    .fetch_add(1, Ordering::AcqRel);
            }
            Err(TrySendError::Full(conn)) => {
                shared.counters.queue_depth.fetch_sub(1, Ordering::AcqRel);
                shared
                    .counters
                    .connections_rejected
                    .fetch_add(1, Ordering::AcqRel);
                reject_with_503(&shared, conn);
            }
            Err(TrySendError::Disconnected(_)) => {
                shared.counters.queue_depth.fetch_sub(1, Ordering::AcqRel);
                break;
            }
        }
    }
}

/// Writes the backpressure `503` (with `Retry-After`) and drops the
/// connection. Runs on the acceptor thread; the write is a handful of
/// bytes, but a write timeout guards against a client with a zero
/// receive window wedging the accept loop.
fn reject_with_503(shared: &Shared, mut conn: TcpStream) {
    let _ = conn.set_write_timeout(Some(Duration::from_millis(200)));
    let resp = Response::text(503, "server is at capacity, retry shortly\n")
        .with_header("retry-after", shared.config.retry_after_secs.to_string());
    shared.counters.count_response(503);
    if shared.obs.logger.enabled(Level::Warn) {
        shared.obs.logger.log(
            Level::Warn,
            "backpressure",
            &Fields::new()
                .u64("status", 503)
                .u64("queue", shared.config.queue as u64),
        );
    }
    let _ = http::write_response(&mut conn, &resp, false);
}

/// One worker: pops connections and serves them to completion
/// (keep-alive included). Exits when the acceptor is gone and the
/// queue is drained.
fn worker_loop(shared: Arc<Shared>, rx: Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        // Hold the receiver lock only for the pop; serving runs
        // unlocked so workers drain the queue concurrently.
        let conn = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        match conn {
            Ok(conn) => {
                shared.counters.queue_depth.fetch_sub(1, Ordering::AcqRel);
                serve_connection(&shared, conn);
            }
            Err(_) => break,
        }
    }
}

/// Serves every request on one connection until the client closes, a
/// parse error poisons the stream, or shutdown asks for a drain.
fn serve_connection(shared: &Shared, conn: TcpStream) {
    let _ = conn.set_read_timeout(shared.config.read_timeout);
    let _ = conn.set_write_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(conn);
    loop {
        match http::read_request_head(
            &mut reader,
            shared.config.max_header_bytes,
            shared.config.max_body_bytes,
        ) {
            Ok(None) => break,
            Ok(Some(head)) => {
                // Clock-zero of the request (and of its trace, when
                // tracing is on): the head is parsed, the body is not
                // yet read. Keep-alive idle time is deliberately
                // excluded.
                let t_head = Instant::now();
                // Clients like curl hold large uploads back until they
                // see `100 Continue` (or a 1-second timeout expires);
                // answering the expectation keeps big in-contract
                // batches at wire speed. The head is already past the
                // 413 check here, so continuing is always correct.
                if head.expects_continue()
                    && head.content_length > 0
                    && reader
                        .get_mut()
                        .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
                        .is_err()
                {
                    break;
                }
                let req = match http::read_request_body(&mut reader, head.content_length) {
                    Ok(body) => head.into_request(body),
                    Err(e) => {
                        let resp = e.to_response();
                        shared.counters.count_response(resp.status);
                        let _ = http::write_response(reader.get_mut(), &resp, false);
                        break;
                    }
                };
                let t0 = Instant::now();
                // Per-request tracing. The fast path when tracing is
                // off is this single branch on one relaxed atomic
                // load; everything below the `then` is skipped.
                let trace = trace::sampler().enabled().then(|| {
                    let ctx = req.header("traceparent").and_then(trace::parse_traceparent);
                    trace::Trace::start_at("request", ctx, t_head)
                });
                let mut root_span_id = 0u64;
                // A handler panic (e.g. a query the model cannot digest)
                // must cost one request, not a worker thread: the pool
                // would otherwise bleed capacity until the server
                // wedges with no visible failure.
                let (resp, endpoint, tenant) = {
                    let root = trace.as_ref().map(|t| {
                        let root = t.root_span("request");
                        root_span_id = root.id();
                        // The parse span is timed before the trace
                        // object exists; record it retroactively.
                        t.add_span(
                            "parse",
                            root.id(),
                            t_head,
                            t0.saturating_duration_since(t_head),
                        );
                        root
                    });
                    let _cur = root.as_ref().map(trace::TraceSpan::make_current);
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(shared, &req)))
                        .unwrap_or_else(|_| (Response::text(500, "internal error\n"), None, None))
                };
                let elapsed = t0.elapsed();
                // Every response carries a request id — echoed when the
                // client supplied a sane one, generated otherwise.
                let id = request_id(req.header("x-mccatch-request-id"));
                let resp = resp.with_header("x-mccatch-request-id", id.clone());
                // …and a W3C traceparent: the inbound trace id when a
                // valid one was sent (fresh otherwise), with our root
                // span id as the parent for any downstream hop. Flag
                // 01 means the trace was collected (a tail-sampling
                // candidate), 00 that tracing was off.
                let resp = match &trace {
                    Some(t) => resp.with_header(
                        "traceparent",
                        trace::render_traceparent(t.trace_id(), root_span_id, true),
                    ),
                    None => {
                        let ctx = req.header("traceparent").and_then(trace::parse_traceparent);
                        let trace_id = ctx.map(|c| c.trace_id).unwrap_or_else(trace::gen_trace_id);
                        resp.with_header(
                            "traceparent",
                            trace::render_traceparent(trace_id, trace::gen_span_id(), false),
                        )
                    }
                };
                if let Some(endpoint) = endpoint {
                    shared
                        .obs
                        .record_request(tenant.as_deref(), endpoint, elapsed);
                }
                log_request(
                    shared,
                    &req,
                    &resp,
                    endpoint,
                    tenant.as_deref(),
                    &id,
                    elapsed,
                );
                finish_trace(shared, trace, &req, &resp, tenant.as_deref(), &id);
                // Drain on shutdown: answer the in-flight request, then
                // ask the client to reconnect elsewhere.
                let keep_alive = req.keep_alive && !shared.shutdown.load(Ordering::Acquire);
                shared.counters.count_response(resp.status);
                if http::write_response(reader.get_mut(), &resp, keep_alive).is_err() || !keep_alive
                {
                    break;
                }
            }
            Err(e) => {
                // After a malformed request the byte stream can no
                // longer be framed; answer and close.
                let resp = e.to_response();
                shared.counters.count_response(resp.status);
                let _ = http::write_response(reader.get_mut(), &resp, false);
                break;
            }
        }
    }
}

/// Emits the structured access-log line for one served request.
/// Renders nothing when the access log is off.
fn log_request(
    shared: &Shared,
    req: &Request,
    resp: &Response,
    endpoint: Option<Endpoint>,
    tenant: Option<&str>,
    id: &str,
    elapsed: Duration,
) {
    if !shared.obs.logger.enabled(Level::Info) {
        return;
    }
    let mut fields = Fields::new()
        .str("id", id)
        .str("method", &req.method)
        .str("path", &req.target)
        .u64("status", resp.status as u64)
        .f64("duration_ms", elapsed.as_secs_f64() * 1e3)
        .str("endpoint", endpoint.map_or("-", Endpoint::name))
        .u64("bytes_in", req.body.len() as u64)
        .u64("bytes_out", resp.body.len() as u64);
    if let Some(tenant) = tenant {
        fields = fields.str("tenant", tenant);
    }
    shared.obs.logger.log(Level::Info, "request", &fields);
}

/// Closes a request's trace and offers it to the process-global tail
/// sampler: only traces at least `--trace-slow-ms` long — or ending in
/// a 5xx — are kept for `GET /admin/debug/trace`. A kept trace also
/// lands in the access log as one NDJSON `"trace"` line with the full
/// span array inline.
fn finish_trace(
    shared: &Shared,
    trace: Option<trace::Trace>,
    req: &Request,
    resp: &Response,
    tenant: Option<&str>,
    id: &str,
) {
    let Some(t) = trace else { return };
    if resp.status >= 500 {
        t.set_error();
    }
    let mut attrs = vec![
        ("id", id.to_owned()),
        ("method", req.method.clone()),
        ("path", req.target.clone()),
        ("status", resp.status.to_string()),
    ];
    if let Some(tenant) = tenant {
        attrs.push(("tenant", tenant.to_owned()));
    }
    let data = t.finish(attrs);
    if let Some(kept) = trace::sampler().offer(data) {
        if shared.obs.logger.enabled(Level::Info) {
            shared.obs.logger.log(
                Level::Info,
                "trace",
                &Fields::new()
                    .str("trace", &format!("{:032x}", kept.trace_id))
                    .str("id", id)
                    .f64("duration_ms", kept.dur_ns as f64 / 1e6)
                    .u64("status", resp.status as u64)
                    .bool("error", kept.error)
                    .u64("spans", kept.spans.len() as u64)
                    .raw("span_tree", &trace::spans_json(&kept)),
            );
        }
    }
}

/// Records the amortized per-line latency of one NDJSON batch: `lines`
/// observations at the batch's mean per-line cost. Two atomics per
/// batch, not per line.
fn record_line_latency(hist: &Histogram, total: Duration, lines: u64) {
    if lines > 0 {
        hist.record_many((total.as_nanos() / lines as u128) as u64, lines);
    }
}

/// The tenant scope of a request: `/t/{tenant}/{endpoint}` paths and
/// the `X-Mccatch-Tenant` header both select a named tenant (and must
/// agree when both are present); bare paths serve the default tenant.
/// Returns `(tenant, endpoint_target)` or the error response.
fn tenant_scope(req: &Request) -> Result<(Option<&str>, &str), Response> {
    let (path_tenant, target) = match req.target.strip_prefix("/t/") {
        None => (None, req.target.as_str()),
        Some(rest) => match rest.split_once('/') {
            // `&rest[name.len()..]` keeps the leading slash, so the
            // scoped endpoint matches the same literals as bare paths.
            Some((name, _tail)) => (Some(name), &rest[name.len()..]),
            None => {
                return Err(Response::text(
                    404,
                    format!(
                        "no such endpoint: {} (expected /t/{{tenant}}/score, \
                         /t/{{tenant}}/ingest, ...)\n",
                        req.target
                    ),
                ))
            }
        },
    };
    match (path_tenant, req.header("x-mccatch-tenant")) {
        (Some(p), Some(h)) if p != h => Err(Response::text(
            400,
            format!("tenant mismatch: path says {p:?}, X-Mccatch-Tenant says {h:?}\n"),
        )),
        (Some(p), _) => Ok((Some(p), target)),
        (None, h) => Ok((h, target)),
    }
}

/// The `400` for a name outside `[a-zA-Z0-9_-]{1,64}`.
fn invalid_name_response(name: &str) -> Response {
    Response::text(
        400,
        format!("invalid tenant name {name:?}: must match [a-zA-Z0-9_-]{{1,64}}\n"),
    )
}

/// The `/admin/tenants` lifecycle routes: `GET /admin/tenants` lists,
/// `PUT /admin/tenants/{name}` creates (idempotently; the body is an
/// optional NDJSON seed), `DELETE /admin/tenants/{name}` unlinks.
fn route_tenants_admin(shared: &Shared, req: &Request) -> Response {
    let list = req.target == "/admin/tenants";
    let allow = if list { "GET" } else { "PUT, DELETE" };
    if !allow.split(", ").any(|m| m == req.method) {
        return Response::text(405, format!("{} requires {allow}\n", req.target))
            .with_header("allow", allow.to_owned());
    }
    shared.counters.count_request(Endpoint::Tenants);
    let registry = &shared.registry;
    if list {
        let names = registry
            .names()
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect::<Vec<_>>()
            .join(", ");
        return Response::json(200, format!("{{\"tenants\": [{names}]}}\n"));
    }
    let name = req
        .target
        .strip_prefix("/admin/tenants/")
        .expect("caller matched the prefix");
    if !valid_tenant_name(name) {
        return invalid_name_response(name);
    }
    match req.method.as_str() {
        "PUT" => match registry.create(name, &req.body) {
            Ok(created) => Response::json(
                200,
                format!(
                    "{{\"tenant\": \"{}\", \"created\": {created}, \"shards\": {}}}\n",
                    json_escape(name),
                    registry.shards()
                ),
            ),
            Err(e) => Response::json(400, format!("{{\"error\": \"{}\"}}\n", json_escape(&e))),
        },
        "DELETE" => {
            if registry.delete(name) {
                Response::json(
                    200,
                    format!(
                        "{{\"tenant\": \"{}\", \"deleted\": true}}\n",
                        json_escape(name)
                    ),
                )
            } else {
                Response::text(404, format!("no such tenant: {name}\n"))
            }
        }
        _ => unreachable!("method checked above"),
    }
}

/// Maps one parsed request to its response, also reporting the
/// [`Endpoint`] it resolved to (`None` until routing succeeded — only
/// resolved requests are counted, so only they record latency) and the
/// tenant scope, for the worker's histogram recording and access log.
fn route(shared: &Shared, req: &Request) -> (Response, Option<Endpoint>, Option<String>) {
    if req.target == "/admin/debug/trace" {
        if req.method != "GET" {
            let resp = Response::text(405, format!("{} requires GET\n", req.target))
                .with_header("allow", "GET".to_owned());
            return (resp, None, None);
        }
        shared.counters.count_request(Endpoint::DebugTrace);
        let traces = trace::sampler().traces();
        let body = trace::chrome_trace_json(traces.iter().map(|t| &**t));
        return (Response::json(200, body), Some(Endpoint::DebugTrace), None);
    }
    if req.target == "/admin/tenants" || req.target.starts_with("/admin/tenants/") {
        // The 405 path inside does not count the request; mirror that
        // by only reporting the endpoint for counted methods.
        let counted = ["GET", "PUT", "DELETE"].contains(&req.method.as_str());
        let resp = route_tenants_admin(shared, req);
        return (resp, counted.then_some(Endpoint::Tenants), None);
    }
    // The `route` span covers tenant-scope resolution, service lookup,
    // and the endpoint/method match; an early return (404/405/bad
    // tenant) closes it on the way out, correctly charging the whole
    // request to routing.
    let route_span = Span::enter(StageId::Route);
    let (tenant, target) = match tenant_scope(req) {
        Ok(scope) => scope,
        Err(resp) => return (resp, None, None),
    };
    let tenant_owned = tenant.map(str::to_owned);
    // Resolve the serving backend: the default service for bare
    // requests, the tenant's facade otherwise. Process-wide endpoints
    // (`/healthz`, `/metrics`) have no tenant-scoped form.
    let service: Arc<dyn Service> = match tenant {
        None => Arc::clone(&shared.service),
        Some(name) => {
            if !valid_tenant_name(name) {
                return (invalid_name_response(name), None, tenant_owned);
            }
            match shared.registry.get(name) {
                Some(svc) => svc,
                None => {
                    let resp = Response::text(404, format!("no such tenant: {name}\n"));
                    return (resp, None, tenant_owned);
                }
            }
        }
    };
    let endpoint = match target {
        "/score" => Endpoint::Score,
        "/ingest" => Endpoint::Ingest,
        "/admin/refit" => Endpoint::Refit,
        "/admin/snapshot" => Endpoint::Snapshot,
        "/admin/snapshot/info" => Endpoint::SnapshotInfo,
        "/healthz" if tenant.is_none() => Endpoint::Healthz,
        "/metrics" if tenant.is_none() => Endpoint::Metrics,
        _ => {
            let resp = Response::text(404, format!("no such endpoint: {}\n", req.target));
            return (resp, None, tenant_owned);
        }
    };
    let expected = match endpoint {
        Endpoint::Healthz | Endpoint::Metrics | Endpoint::SnapshotInfo => "GET",
        _ => "POST",
    };
    if req.method != expected {
        let resp = Response::text(405, format!("{} requires {expected}\n", req.target))
            .with_header("allow", expected.to_owned());
        return (resp, None, tenant_owned);
    }
    drop(route_span);
    shared.counters.count_request(endpoint);
    // The `handle` span brackets the endpoint dispatch, so the
    // per-batch spans below — and anything deeper (tenant fan-out,
    // shard refit, fit stages) — nest under it.
    let mut handle_span = Span::enter(StageId::Handle);
    handle_span.attr("endpoint", endpoint.name());
    let resp = match endpoint {
        Endpoint::Healthz => {
            // Generation and uptime in the body let probes tell a
            // healthy server from one whose swap loop wedged (a stuck
            // generation under ingest load is the tell).
            Response::json(
                200,
                format!(
                    "{{\"status\": \"ok\", \"generation\": {}, \"uptime_seconds\": {:.3}}}\n",
                    service.generation(),
                    shared.start.elapsed().as_secs_f64()
                ),
            )
        }
        Endpoint::Metrics => {
            let r = &shared.registry;
            let scrapes: Vec<TenantScrape> = r
                .names()
                .into_iter()
                .filter_map(|n| r.get(&n).map(|s| TenantScrape::collect(n, &*s)))
                .collect();
            Response::text(
                200,
                render_prometheus(
                    &shared.counters,
                    &shared.obs,
                    &*shared.service,
                    &shared.index_label,
                    shared.start.elapsed(),
                    &scrapes,
                ),
            )
        }
        Endpoint::Score => {
            let mut span = Span::enter(StageId::ScoreBatch);
            let outcome = service.score_ndjson(&req.body);
            let lines = outcome.lines_ok + outcome.lines_err;
            span.attr("lines", lines);
            record_line_latency(&shared.obs.line_score, span.finish(), lines);
            ndjson_response(shared, outcome)
        }
        Endpoint::Ingest => {
            // An empty body is a complete, zero-line batch: short-circuit
            // to an empty 200 that still carries the current generation,
            // without touching the shards or their replay logs.
            if crate::ndjson::body_lines(&req.body).next().is_none() {
                Response::ndjson(200, String::new())
                    .with_header("x-mccatch-generation", service.generation().to_string())
            } else {
                let mut span = Span::enter(StageId::IngestBatch);
                let outcome = service.ingest_ndjson(&req.body);
                let lines = outcome.lines_ok + outcome.lines_err;
                span.attr("lines", lines);
                record_line_latency(&shared.obs.line_ingest, span.finish(), lines);
                ndjson_response(shared, outcome)
            }
        }
        Endpoint::Refit => match service.refit_now() {
            Ok(generation) => Response::json(200, format!("{{\"generation\": {generation}}}\n"))
                .with_header("x-mccatch-generation", generation.to_string()),
            Err(e) => Response::json(
                500,
                format!("{{\"error\": \"refit failed: {}\"}}\n", json_escape(&e)),
            ),
        },
        Endpoint::Snapshot => match service.save_snapshot() {
            SnapshotOutcome::Unconfigured => Response::json(
                409,
                "{\"error\": \"no snapshot path configured; set ServerConfig.snapshot_path\"}\n"
                    .to_owned(),
            ),
            SnapshotOutcome::Saved {
                generation,
                seq,
                bytes,
                path,
            } => Response::json(
                200,
                format!(
                    "{{\"generation\": {generation}, \"seq\": {seq}, \"bytes\": {bytes}, \
                     \"path\": \"{}\"}}\n",
                    json_escape(&path)
                ),
            )
            .with_header("x-mccatch-generation", generation.to_string()),
            SnapshotOutcome::Failed(e) => Response::json(
                500,
                format!("{{\"error\": \"snapshot failed: {}\"}}\n", json_escape(&e)),
            ),
        },
        Endpoint::SnapshotInfo => match service.snapshot_info() {
            SnapshotInfoOutcome::Unconfigured => Response::json(
                409,
                "{\"error\": \"no snapshot path configured; set ServerConfig.snapshot_path\"}\n"
                    .to_owned(),
            ),
            SnapshotInfoOutcome::Missing { path } => Response::json(
                404,
                format!(
                    "{{\"error\": \"no snapshot at {} yet; POST /admin/snapshot first\"}}\n",
                    json_escape(&path)
                ),
            ),
            SnapshotInfoOutcome::Info(json) => Response::json(200, json),
            SnapshotInfoOutcome::Failed(e) => Response::json(
                500,
                format!(
                    "{{\"error\": \"snapshot info failed: {}\"}}\n",
                    json_escape(&e)
                ),
            ),
        },
        Endpoint::Tenants | Endpoint::DebugTrace => {
            unreachable!("handled above")
        }
    };
    (resp, Some(endpoint), tenant_owned)
}

/// Wraps an NDJSON outcome into its `200` response, folding the
/// per-line accounting into the server counters and tagging the batch
/// with the model generation it was served by.
fn ndjson_response(shared: &Shared, outcome: NdjsonOutcome) -> Response {
    shared
        .counters
        .lines_ok
        .fetch_add(outcome.lines_ok, Ordering::AcqRel);
    shared
        .counters
        .lines_err
        .fetch_add(outcome.lines_err, Ordering::AcqRel);
    Response::ndjson(200, outcome.body)
        .with_header("x-mccatch-generation", outcome.generation.to_string())
}
