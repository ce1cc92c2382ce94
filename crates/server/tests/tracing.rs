//! Per-request tracing over real sockets: W3C `traceparent`
//! ingestion/echo, tail sampling into the trace ring, and the
//! Perfetto-loadable `GET /admin/debug/trace` export with the full
//! server → tenant fan-out → stream span tree.
//!
//! These tests live in their own binary on purpose: the trace sampler
//! is process-global, and this file is the only test process that ever
//! configures it — so the "tracing off" phase below really observes the
//! untouched default. The phases share one `#[test]` to keep their
//! order deterministic.

use mccatch_core::McCatch;
use mccatch_index::KdTreeBuilder;
use mccatch_metric::Euclidean;
use mccatch_obs::json::{parse, Json};
use mccatch_server::client::{post, ClientResponse, Connection};
use mccatch_server::{ndjson, serve, ServerConfig, ServerHandle};
use mccatch_stream::{RefitPolicy, StreamConfig};
use mccatch_tenant::{TenantMap, TenantSpec};
use std::net::SocketAddr;
use std::sync::Arc;

type VecTenants = TenantMap<Vec<f64>, Euclidean, KdTreeBuilder>;

/// A 10×10 grid plus one isolate — the reference workload of the
/// serve/stream test suites.
fn grid() -> Vec<Vec<f64>> {
    let mut pts: Vec<Vec<f64>> = (0..100)
        .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
        .collect();
    pts.push(vec![500.0, 500.0]);
    pts
}

fn grid_ndjson() -> Vec<u8> {
    grid()
        .into_iter()
        .map(|p| format!("[{}, {}]\n", p[0], p[1]))
        .collect::<String>()
        .into_bytes()
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        capacity: 512,
        policy: RefitPolicy::Manual,
        ..StreamConfig::default()
    }
}

fn start_tenants(config: ServerConfig, shards: usize) -> (ServerHandle, Arc<VecTenants>) {
    let map = Arc::new(
        TenantMap::new(
            McCatch::builder().build().unwrap(),
            Euclidean,
            KdTreeBuilder::default(),
            TenantSpec {
                shards,
                stream: stream_config(),
                ingest_queue: 1024,
                replay: None,
            },
        )
        .unwrap(),
    );
    let server = serve(
        "127.0.0.1:0",
        config,
        map.create_default(grid()).unwrap(),
        Arc::clone(&map),
        ndjson::vector_parser(Some(2)),
        "kd",
    )
    .unwrap();
    (server, map)
}

/// One-shot `POST` carrying a `traceparent` header (the plain client
/// helper sends no custom headers).
fn post_traced(addr: SocketAddr, path: &str, body: &[u8], traceparent: &str) -> ClientResponse {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nhost: mccatch\r\ntraceparent: {traceparent}\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    Connection::open(addr).unwrap().request_raw(&raw).unwrap()
}

/// Splits a well-formed `00-{32 hex}-{16 hex}-{2 hex}` traceparent.
fn split_traceparent(tp: &str) -> (&str, &str, &str) {
    let parts: Vec<&str> = tp.split('-').collect();
    assert_eq!(parts.len(), 4, "malformed traceparent: {tp:?}");
    assert_eq!(parts[0], "00", "version: {tp:?}");
    assert_eq!(parts[1].len(), 32, "trace id width: {tp:?}");
    assert_eq!(parts[2].len(), 16, "span id width: {tp:?}");
    assert!(
        tp.bytes().all(|b| b == b'-' || b.is_ascii_hexdigit()),
        "non-hex traceparent: {tp:?}"
    );
    (parts[1], parts[2], parts[3])
}

/// The span names and the `dropped_spans` count of the exported trace
/// with id `trace_id` in a `/admin/debug/trace` document.
fn exported_trace(doc: &Json, trace_id: &str) -> (Vec<String>, u64) {
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    let meta = events
        .iter()
        .find(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("trace_id"))
                    .and_then(Json::as_str)
                    == Some(trace_id)
        })
        .unwrap_or_else(|| panic!("trace {trace_id} not exported"));
    let tid = meta.get("tid").and_then(Json::as_f64);
    let args = meta.get("args").unwrap();
    let dropped = args
        .get("dropped_spans")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let names = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("tid").and_then(Json::as_f64) == tid
        })
        .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect();
    (names, dropped)
}

#[test]
fn traceparent_echo_and_debug_trace_end_to_end() {
    let client_tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";

    // ---- Phase 1: tracing off (the process default) ----
    {
        let (server, _map) = start_tenants(ServerConfig::default(), 2);
        let addr = server.local_addr();

        // A valid client traceparent: the trace id is adopted and
        // echoed, the span id is ours (not the caller's), and the
        // sampled flag is 00 because nothing was collected.
        let resp = post_traced(addr, "/score", b"[4.5, 4.5]\n", client_tp);
        assert_eq!(resp.status, 200);
        let echo = resp.header("traceparent").unwrap().to_owned();
        let (trace_id, span_id, flags) = split_traceparent(&echo);
        assert_eq!(trace_id, "0af7651916cd43dd8448eb211c80319c");
        assert_ne!(span_id, "b7ad6b7169203331", "echo carries our span id");
        assert_ne!(span_id, "0000000000000000");
        assert_eq!(flags, "00", "not sampled while tracing is off: {echo}");

        // No traceparent at all: a fresh well-formed one is generated
        // on every response, still unsampled.
        let resp = post(addr, "/score", b"[4.5, 4.5]\n").unwrap();
        let echo = resp.header("traceparent").unwrap().to_owned();
        let (trace_id, span_id, flags) = split_traceparent(&echo);
        assert_ne!(trace_id, "00000000000000000000000000000000");
        assert_ne!(span_id, "0000000000000000");
        assert_eq!(flags, "00");

        // The debug endpoint exists but the ring is empty.
        let resp = Connection::open(addr)
            .unwrap()
            .request("GET", "/admin/debug/trace", b"")
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.text().unwrap(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    // ---- Phase 2: tracing on, threshold 0 = keep every trace ----
    let (server, _map) = start_tenants(
        ServerConfig {
            trace_slow_ms: Some(0),
            trace_capacity: 64,
            ..ServerConfig::default()
        },
        2,
    );
    let addr = server.local_addr();

    let mut conn = Connection::open(addr).unwrap();
    assert_eq!(
        conn.request("PUT", "/admin/tenants/a", &grid_ndjson())
            .unwrap()
            .status,
        200
    );

    // A 600-line ingest opens no per-event spans, so its trace keeps
    // the whole request skeleton well inside the span cap.
    let big: String = (0..600)
        .map(|i| format!("[{}, {}]\n", i % 10, i / 60))
        .collect();
    let big_tp = "00-1bf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
    let resp = post_traced(addr, "/t/a/ingest", big.as_bytes(), big_tp);
    assert_eq!(resp.status, 200);
    // Ingest (covers the ingest_batch span path)…
    let resp = post(addr, "/t/a/ingest", b"[4.5, 4.5]\n").unwrap();
    assert_eq!(resp.status, 200);
    // …a synchronous refit (covers shard_refit → stream_refit →
    // fit_* → stream_swap)…
    let resp = post(addr, "/t/a/admin/refit", b"").unwrap();
    assert_eq!(resp.status, 200);
    // …and a scored batch with a client traceparent (covers the
    // tenant_fanout → shard_score path).
    let resp = post_traced(addr, "/t/a/score", b"[4.5, 4.5]\n[0.0, 0.0]\n", client_tp);
    assert_eq!(resp.status, 200);
    let echo = resp.header("traceparent").unwrap().to_owned();
    let (trace_id, _span_id, flags) = split_traceparent(&echo);
    assert_eq!(trace_id, "0af7651916cd43dd8448eb211c80319c");
    assert_eq!(flags, "01", "sampled while tracing is on: {echo}");

    // A malformed traceparent is replaced with a fresh trace id, never
    // echoed back.
    let resp = post_traced(addr, "/t/a/score", b"[4.5, 4.5]\n", "ff-bogus-bogus-01");
    assert_eq!(resp.status, 200);
    let echo = resp.header("traceparent").unwrap().to_owned();
    let (trace_id, _, flags) = split_traceparent(&echo);
    assert_ne!(trace_id, "00000000000000000000000000000000");
    assert_eq!(flags, "01");

    // The export: Chrome trace-event JSON carrying the full span tree.
    let resp = Connection::open(addr)
        .unwrap()
        .request("GET", "/admin/debug/trace", b"")
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    let json = resp.text().unwrap().to_owned();
    assert!(
        json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "{json}"
    );
    assert!(json.ends_with("]}"), "{json}");
    // The adopted trace id labels its track.
    assert!(json.contains("0af7651916cd43dd8448eb211c80319c"), "{json}");
    // The request skeleton…
    for span in ["\"parse\"", "\"route\"", "\"handle\"", "\"score_batch\""] {
        assert!(json.contains(span), "missing {span} in {json}");
    }
    // …the tenant fan-out with one child per shard…
    assert!(json.contains("\"tenant_fanout\""), "{json}");
    let shard_scores = json.matches("\"shard_score\"").count();
    assert!(
        shard_scores >= 2,
        "expected one shard_score per shard (2), saw {shard_scores}: {json}"
    );
    // …the ingest and refit paths…
    for span in [
        "\"ingest_batch\"",
        "\"shard_refit\"",
        "\"stream_refit\"",
        "\"stream_swap\"",
    ] {
        assert!(json.contains(span), "missing {span} in {json}");
    }
    // …and the core fit stages, attached through the thread-local
    // current span with no signature plumbing.
    assert!(json.contains("\"fit_"), "no fit_* stage spans in {json}");

    // The 600-line ingest kept its request skeleton and dropped nothing.
    let doc = parse(&json).unwrap();
    let (names, dropped) = exported_trace(&doc, "1bf7651916cd43dd8448eb211c80319c");
    assert_eq!(
        dropped, 0,
        "spans dropped from a 600-line ingest: {names:?}"
    );
    for span in ["request", "handle", "ingest_batch"] {
        assert!(
            names.iter().any(|n| n == span),
            "missing {span} in {names:?}"
        );
    }

    // The endpoint is GET-only.
    let resp = post(addr, "/admin/debug/trace", b"").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));
}
