//! Integration tests over real sockets: every endpoint, the
//! malformed-input matrix, backpressure, graceful shutdown, and
//! serving-under-swap bit-equality — all on ephemeral localhost ports,
//! all through the bare endpoints (the default tenant).

use mccatch_core::McCatch;
use mccatch_index::KdTreeBuilder;
use mccatch_metric::Euclidean;
use mccatch_server::client::{get, post, ClientResponse, Connection};
use mccatch_server::{ndjson, serve, ServerConfig, ServerError, ServerHandle};
use mccatch_stream::{RefitPolicy, StreamConfig};
use mccatch_tenant::{Tenant, TenantMap, TenantSpec};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

type VecTenant = Tenant<Vec<f64>, Euclidean, KdTreeBuilder>;
type VecTenants = TenantMap<Vec<f64>, Euclidean, KdTreeBuilder>;

/// A 10×10 grid plus one isolate, shifted by `shift` — the reference
/// workload of the serve/stream test suites.
fn grid(shift: f64) -> Vec<Vec<f64>> {
    let mut pts: Vec<Vec<f64>> = (0..100)
        .map(|i| vec![(i % 10) as f64 + shift, (i / 10) as f64])
        .collect();
    pts.push(vec![500.0 + shift, 500.0]);
    pts
}

/// The default tenant over `seed` (one shard, a `capacity`-event
/// window) and the empty named-tenant map the server mounts beside it.
fn default_tenant(capacity: usize, seed: Vec<Vec<f64>>) -> (Arc<VecTenant>, Arc<VecTenants>) {
    let map = TenantMap::new(
        McCatch::builder().build().unwrap(),
        Euclidean,
        KdTreeBuilder::default(),
        TenantSpec {
            stream: StreamConfig {
                capacity,
                policy: RefitPolicy::Manual,
                ..StreamConfig::default()
            },
            ..TenantSpec::default()
        },
    )
    .unwrap();
    (map.create_default(seed).unwrap(), Arc::new(map))
}

fn start_with_capacity(config: ServerConfig, capacity: usize) -> (ServerHandle, Arc<VecTenant>) {
    let (default, map) = default_tenant(capacity, grid(0.0));
    let server = serve(
        "127.0.0.1:0",
        config,
        Arc::clone(&default),
        map,
        ndjson::vector_parser(Some(2)),
        "kd",
    )
    .unwrap();
    (server, default)
}

fn start(config: ServerConfig) -> (ServerHandle, Arc<VecTenant>) {
    start_with_capacity(config, 512)
}

fn scores_of(resp: &ClientResponse) -> Vec<f64> {
    resp.text()
        .unwrap()
        .lines()
        .map(|l| {
            l.strip_prefix("{\"score\": ")
                .and_then(|l| l.strip_suffix('}'))
                .unwrap_or_else(|| panic!("not a score line: {l:?}"))
                .parse()
                .unwrap()
        })
        .collect()
}

#[test]
fn invalid_config_and_unbindable_addr_are_typed_errors() {
    let (default, map) = default_tenant(64, grid(0.0));
    let err = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        },
        Arc::clone(&default),
        Arc::clone(&map),
        Arc::new(ndjson::parse_vector_line),
        "kd",
    )
    .err()
    .unwrap();
    assert_eq!(err, ServerError::InvalidWorkers { got: 0 });

    let err = serve(
        "192.0.2.1:1",
        ServerConfig::default(),
        default,
        map,
        Arc::new(ndjson::parse_vector_line),
        "kd",
    )
    .err()
    .unwrap();
    assert!(matches!(err, ServerError::Bind { .. }), "{err:?}");
}

#[test]
fn healthz_and_metrics_answer_200() {
    let (server, _default) = start(ServerConfig::default());
    let addr = server.local_addr();

    let health = get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    // The body reports liveness plus the served generation and uptime,
    // so probes can detect a wedged swap loop.
    let body = health.text().unwrap();
    assert!(body.contains("\"status\": \"ok\""), "{body}");
    assert!(body.contains("\"generation\": 0"), "{body}");
    assert!(body.contains("\"uptime_seconds\": "), "{body}");

    // Drive one scored batch so the counters are non-trivial.
    let scored = post(addr, "/score", b"[4.5, 4.5]\n").unwrap();
    assert_eq!(scored.status, 200);

    let metrics = get(addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text().unwrap();
    for needle in [
        "mccatch_server_requests_total{endpoint=\"score\"} 1",
        "mccatch_server_responses_total{status=\"200\"}",
        "mccatch_server_ndjson_lines_total{outcome=\"ok\"} 1",
        "mccatch_server_queue_depth 0",
        "mccatch_stream_events_ingested_total 101",
        "mccatch_stream_refits_total{outcome=\"completed\"} 0",
        "mccatch_model_generation 0",
        "mccatch_model_points 101",
        "mccatch_index_distance_evals_total{index=\"kd\"}",
        "# TYPE mccatch_server_requests_total counter",
        // Latency histograms: the scored request above must land in the
        // score endpoint's family, and the per-line family counts one
        // line; every family keeps the Prometheus histogram shape.
        "# TYPE mccatch_request_duration_seconds histogram",
        "mccatch_request_duration_seconds_bucket{endpoint=\"score\",le=\"+Inf\"} 1",
        "mccatch_request_duration_seconds_count{endpoint=\"score\"} 1",
        "mccatch_line_duration_seconds_count{endpoint=\"score\"} 1",
        "mccatch_line_duration_seconds_count{endpoint=\"ingest\"} 0",
        "# TYPE mccatch_stage_duration_seconds histogram",
        "mccatch_stage_duration_seconds_bucket{stage=\"fit_build\",le=\"+Inf\"}",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn every_response_carries_a_request_id_echoed_or_generated() {
    let (server, _default) = start(ServerConfig::default());
    let addr = server.local_addr();

    // No client id: the server generates one.
    let resp = get(addr, "/healthz").unwrap();
    let generated = resp.header("x-mccatch-request-id").unwrap().to_owned();
    assert!(!generated.is_empty());

    // A sane client id is echoed back verbatim.
    let mut conn = Connection::open(addr).unwrap();
    let raw = b"GET /healthz HTTP/1.1\r\nhost: t\r\nx-mccatch-request-id: trace-42\r\ncontent-length: 0\r\n\r\n";
    let resp = conn.request_raw(raw).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-mccatch-request-id"), Some("trace-42"));

    // An unprintable id is replaced, not echoed.
    let mut conn = Connection::open(addr).unwrap();
    let raw = b"GET /healthz HTTP/1.1\r\nhost: t\r\nx-mccatch-request-id: a b\r\ncontent-length: 0\r\n\r\n";
    let resp = conn.request_raw(raw).unwrap();
    let replaced = resp.header("x-mccatch-request-id").unwrap();
    assert_ne!(replaced, "a b");
    assert_ne!(replaced, generated);
}

#[test]
fn scored_lines_raise_the_live_distance_eval_counter() {
    let (server, _default) = start(ServerConfig::default());
    let addr = server.local_addr();
    let evals = || -> u64 {
        let scrape = get(addr, "/metrics").unwrap();
        let text = scrape.text().unwrap();
        let prefix = "mccatch_index_distance_evals_total{index=\"kd\"} ";
        let value = text.lines().find_map(|l| l.strip_prefix(prefix));
        value.expect("the counter is exported").parse().unwrap()
    };
    let before = evals();
    let body: String = (0..50)
        .map(|i| format!("[{}, {}]\n", f64::from(i) * 0.3, 9.0 - f64::from(i) * 0.2))
        .collect();
    let resp = post(addr, "/score", body.as_bytes()).unwrap();
    assert_eq!(scores_of(&resp).len(), 50);
    // Every served query computes at least one distance, on the tree of
    // reference inliers that answers it.
    let after = evals();
    assert!(after >= before + 50, "{before} -> {after}");
}

#[test]
fn score_matches_the_model_store_bit_for_bit() {
    let (server, default) = start(ServerConfig::default());
    let detector = default.shard_detector(0).unwrap();
    let queries = vec![vec![4.5, 4.5], vec![250.0, -3.0], vec![499.9, 500.1]];
    let direct = detector.store().score_batch(&queries);

    let body = "[4.5, 4.5]\n[250.0, -3.0]\n[499.9, 500.1]\n";
    let resp = post(server.local_addr(), "/score", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-mccatch-generation"), Some("0"));
    assert_eq!(
        scores_of(&resp),
        direct,
        "wire scores must round-trip bit-identically"
    );

    // Scoring is a read-only tap: nothing was ingested.
    assert_eq!(detector.stats().events_scored, 0);
}

#[test]
fn ingest_scores_events_and_feeds_the_window() {
    let (server, default) = start(ServerConfig::default());
    let detector = default.shard_detector(0).unwrap();
    let before = detector.stats().events_ingested;
    let resp = post(
        server.local_addr(),
        "/ingest",
        b"[4.0, 4.0]\n[900.0, 900.0]\n",
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-mccatch-generation"), Some("0"));
    let lines: Vec<&str> = resp.text().unwrap().lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("\"flagged\": false"), "{}", lines[0]);
    assert!(lines[1].contains("\"flagged\": true"), "{}", lines[1]);
    assert!(lines[0].contains("\"generation\": 0"));
    assert_eq!(detector.stats().events_ingested, before + 2);
}

#[test]
fn empty_ingest_body_short_circuits_with_the_current_generation() {
    let (server, default) = start(ServerConfig::default());
    let detector = default.shard_detector(0).unwrap();
    let addr = server.local_addr();
    let before = detector.stats().events_ingested;
    // A body with no NDJSON lines (empty, or blank lines only) is a
    // complete zero-line batch: empty 200, nothing ingested, and the
    // X-Mccatch-Generation header still present and current.
    for body in [b"".as_slice(), b"\n\n  \n".as_slice()] {
        let resp = post(addr, "/ingest", body).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text().unwrap(), "");
        assert_eq!(
            resp.header("x-mccatch-generation"),
            Some(detector.generation().to_string().as_str())
        );
    }
    assert_eq!(detector.stats().events_ingested, before);
    // After a refit, the short-circuit reports the new generation.
    detector.refit_now().unwrap();
    let resp = post(addr, "/ingest", b"").unwrap();
    assert_eq!(resp.header("x-mccatch-generation"), Some("1"));
}

#[test]
fn admin_refit_advances_the_generation_for_later_scores() {
    // Capacity equals the workload size, so the shifted traffic below
    // evicts the seed completely before the refit pins the model to it.
    let (server, default) = start_with_capacity(ServerConfig::default(), 101);
    let detector = default.shard_detector(0).unwrap();
    let addr = server.local_addr();
    for p in grid(1000.0) {
        detector.ingest(p);
    }
    let refit = post(addr, "/admin/refit", b"").unwrap();
    assert_eq!(refit.status, 200);
    assert_eq!(refit.text().unwrap().trim(), "{\"generation\": 1}");
    assert_eq!(refit.header("x-mccatch-generation"), Some("1"));

    let resp = post(addr, "/score", b"[1004.0, 4.0]\n[4.0, 4.0]\n").unwrap();
    assert_eq!(resp.header("x-mccatch-generation"), Some("1"));
    let scores = scores_of(&resp);
    assert_eq!(scores[0], 0.0, "new reference inlier");
    assert!(scores[1] > 0.0, "old grid is now far away");
}

#[test]
fn malformed_input_matrix() {
    let (server, _default) = start(ServerConfig {
        max_body_bytes: 4096,
        max_header_bytes: 1024,
        // Short server-side read timeout: the truncated-body case below
        // is only answered 400 once the server gives up waiting for the
        // missing bytes, and that must happen well before the client's
        // own 5-second read timeout.
        read_timeout: Some(Duration::from_millis(400)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // 404: unknown path.
    assert_eq!(get(addr, "/nope").unwrap().status, 404);
    // 405 with Allow: wrong method on every known endpoint.
    for (path, allow) in [
        ("/score", "POST"),
        ("/ingest", "POST"),
        ("/admin/refit", "POST"),
    ] {
        let resp = get(addr, path).unwrap();
        assert_eq!(resp.status, 405, "{path}");
        assert_eq!(resp.header("allow"), Some(allow), "{path}");
    }
    assert_eq!(post(addr, "/healthz", b"").unwrap().status, 405);
    assert_eq!(post(addr, "/metrics", b"").unwrap().status, 405);

    // 400: malformed request lines and headers.
    for raw in [
        b"GARBAGE\r\n\r\n".as_slice(),
        b"GET /healthz HTTP/2\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nbroken header\r\n\r\n",
        b"POST /score HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"POST /score HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
    ] {
        let resp = Connection::open(addr).unwrap().request_raw(raw).unwrap();
        assert_eq!(resp.status, 400, "{raw:?}");
    }

    // 400: truncated request (client hangs up mid-head).
    {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        use std::io::{Read, Write};
        let mut stream = stream;
        stream
            .write_all(b"POST /score HTTP/1.1\r\nContent-Le")
            .unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400 "), "{buf}");
    }
    // 400: truncated body (Content-Length promises more than arrives).
    {
        let resp = Connection::open(addr)
            .unwrap()
            .request_raw(b"POST /score HTTP/1.1\r\nContent-Length: 50\r\n\r\n[1.0]")
            .unwrap();
        assert_eq!(resp.status, 400);
    }

    // 413: declared body above the limit, answered without reading it.
    {
        let resp = Connection::open(addr)
            .unwrap()
            .request_raw(b"POST /score HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n")
            .unwrap();
        assert_eq!(resp.status, 413);
    }

    // 431: header flood beyond max_header_bytes.
    {
        let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
        for i in 0..64 {
            raw.extend_from_slice(format!("x-f{i}: {}\r\n", "v".repeat(64)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let resp = Connection::open(addr).unwrap().request_raw(&raw).unwrap();
        assert_eq!(resp.status, 431);
    }

    // Per-line degradation: malformed, non-UTF-8, and wrong-arity
    // NDJSON lines become error objects in position; the valid lines
    // are still scored.
    {
        let mut body = b"[4.5, 4.5]\n{not json}\n".to_vec();
        body.extend_from_slice(&[0xff, 0xfe, b'\n']);
        body.extend_from_slice(b"[1.0]\n[9.0, 9.0]\n");
        let resp = post(addr, "/score", &body).unwrap();
        assert_eq!(resp.status, 200, "a bad line never fails the batch");
        let lines: Vec<String> = resp.text().unwrap().lines().map(String::from).collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("{\"score\": "));
        assert!(lines[1].contains("\"line\": 2") && lines[1].contains("\"error\""));
        assert!(lines[2].contains("\"line\": 3") && lines[2].contains("UTF-8"));
        assert!(lines[3].contains("expected 2 coordinates"));
        assert!(lines[4].starts_with("{\"score\": "));
    }

    // The error paths are all visible in /metrics.
    let text = get(addr, "/metrics").unwrap();
    let text = text.text().unwrap();
    for needle in [
        "mccatch_server_responses_total{status=\"400\"} 7",
        "mccatch_server_responses_total{status=\"404\"} 1",
        "mccatch_server_responses_total{status=\"405\"} 5",
        "mccatch_server_responses_total{status=\"413\"} 1",
        "mccatch_server_responses_total{status=\"431\"} 1",
        "mccatch_server_ndjson_lines_total{outcome=\"error\"} 3",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn a_handler_panic_costs_500_not_a_worker_thread() {
    // A dimensionality-free parser lets a 1-d query through to the 2-d
    // kd-tree, which panics. The worker must answer 500 and survive;
    // with a single worker in the pool, a leaked thread would wedge the
    // server visibly.
    let (default, map) = default_tenant(512, grid(0.0));
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        default,
        map,
        Arc::new(ndjson::parse_vector_line),
        "kd",
    )
    .unwrap();
    let addr = server.local_addr();
    let resp = post(addr, "/score", b"[1.0]\n").unwrap();
    assert_eq!(resp.status, 500);
    // The lone worker is still alive and serving.
    assert_eq!(get(addr, "/healthz").unwrap().status, 200);
    let metrics = get(addr, "/metrics").unwrap();
    assert!(metrics
        .text()
        .unwrap()
        .contains("mccatch_server_responses_total{status=\"500\"} 1"));
}

#[test]
fn expect_100_continue_is_answered_before_the_body_is_sent() {
    // curl sends `Expect: 100-continue` on large uploads and holds the
    // body back until the interim response (or a 1-second timeout) —
    // the server must answer it, or every big in-contract batch stalls.
    let (server, _default) = start(ServerConfig::default());
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let body = b"[4.5, 4.5]\n";
    stream
        .write_all(
            format!(
                "POST /score HTTP/1.1\r\nExpect: 100-continue\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    // The interim response must arrive before a single body byte is on
    // the wire.
    let mut interim = [0u8; 25];
    stream.read_exact(&mut interim).unwrap();
    assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    stream.write_all(body).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    let rest = String::from_utf8(rest).unwrap();
    assert!(rest.starts_with("HTTP/1.1 200 OK\r\n"), "{rest}");
    assert!(rest.contains("{\"score\": "), "{rest}");
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (server, _default) = start(ServerConfig::default());
    let mut conn = Connection::open(server.local_addr()).unwrap();
    for _ in 0..5 {
        let resp = conn.request("GET", "/healthz", b"").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }
    let resp = conn.request("POST", "/score", b"[4.5, 4.5]\n").unwrap();
    assert_eq!(resp.status, 200);
}

#[test]
fn full_queue_answers_503_with_retry_after() {
    // One worker, a one-slot queue, and a worker deliberately wedged on
    // a silent connection: the third client must be turned away
    // immediately with 503 + Retry-After, not buffered.
    let (server, _default) = start(ServerConfig {
        workers: 1,
        queue: 1,
        read_timeout: Some(Duration::from_secs(2)),
        retry_after_secs: 7,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Occupies the only worker (sends nothing, so the worker sits in
    // read until its timeout).
    let wedge = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    // Occupies the only queue slot.
    let queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    let rejected = get(addr, "/healthz").unwrap();
    assert_eq!(rejected.status, 503);
    assert_eq!(rejected.header("retry-after"), Some("7"));

    drop(wedge);
    drop(queued);
    // Once the wedge times out, service resumes.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match get(addr, "/healthz") {
            Ok(resp) if resp.status == 200 => break,
            _ if std::time::Instant::now() > deadline => panic!("service never recovered"),
            _ => std::thread::sleep(Duration::from_millis(100)),
        }
    }
    // The recovery probes above may themselves have been rejected a few
    // more times before the wedge cleared, so assert on at-least-one.
    let metrics = get(addr, "/metrics").unwrap();
    let rejected: u64 = metrics
        .text()
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("mccatch_server_connections_rejected_total "))
        .expect("rejected counter exposed")
        .parse()
        .unwrap();
    assert!(rejected >= 1, "no rejection recorded");
}

#[test]
fn shutdown_is_graceful_and_idempotent() {
    let (server, _default) = start(ServerConfig {
        read_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // A keep-alive connection with a served request is in flight…
    let mut conn = Connection::open(addr).unwrap();
    assert_eq!(conn.request("GET", "/healthz", b"").unwrap().status, 200);

    // …and shutdown still completes promptly (the idle connection is
    // released by the read timeout), draining every thread.
    let t0 = std::time::Instant::now();
    server.shutdown();
    server.shutdown(); // idempotent
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown hung: {:?}",
        t0.elapsed()
    );

    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err()
            || get(addr, "/healthz").is_err(),
        "server still answering after shutdown"
    );
}

/// The serving-under-swap contract: clients hammering `/score` while
/// the model is refit under them must (a) see monotonically
/// non-decreasing generation tags per connection and (b) receive scores
/// bit-identical to a direct `ModelStore::score_batch` call on the
/// model of the tagged generation.
#[test]
fn score_under_concurrent_refits_is_tagged_and_bit_identical() {
    // The window alternates between two fully-known states (capacity ==
    // set size, so each ingest pass pins the window exactly), and every
    // refit is a batch fit on one of them — so the expected scores per
    // state can be computed up front with plain `McCatch::fit`.
    let set_a = grid(0.0);
    let set_b = grid(3000.0);
    let queries = vec![vec![4.5, 4.5], vec![3004.5, 4.5], vec![-777.0, 12.0]];
    let expect = |pts: Vec<Vec<f64>>| {
        McCatch::builder()
            .build()
            .unwrap()
            .fit(pts, Euclidean, KdTreeBuilder::default())
            .unwrap()
            .into_model()
            .score_batch(&queries)
    };
    let expected_a = expect(set_a.clone());
    let expected_b = expect(set_b.clone());
    assert_ne!(
        expected_a, expected_b,
        "the two states must be distinguishable"
    );

    let (default, map) = default_tenant(set_a.len(), set_a.clone());
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 6,
            ..ServerConfig::default()
        },
        Arc::clone(&default),
        map,
        Arc::new(ndjson::parse_vector_line),
        "kd",
    )
    .unwrap();
    let detector = default.shard_detector(0).unwrap();
    let addr = server.local_addr();
    let body = "[4.5, 4.5]\n[3004.5, 4.5]\n[-777.0, 12.0]\n".to_owned();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let body = body.clone();
            let (expected_a, expected_b) = (expected_a.clone(), expected_b.clone());
            std::thread::spawn(move || {
                let mut conn = Connection::open(addr).unwrap();
                let mut last_gen = 0u64;
                let mut checked = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let resp = conn.request("POST", "/score", body.as_bytes()).unwrap();
                    assert_eq!(resp.status, 200);
                    let generation: u64 = resp
                        .header("x-mccatch-generation")
                        .expect("tagged")
                        .parse()
                        .unwrap();
                    assert!(
                        generation >= last_gen,
                        "generation regressed: {generation} < {last_gen}"
                    );
                    last_gen = generation;
                    let scores = scores_of(&resp);
                    // Every even generation serves state A, every odd
                    // one state B — bit-for-bit.
                    let expected = if generation.is_multiple_of(2) {
                        &expected_a
                    } else {
                        &expected_b
                    };
                    assert_eq!(
                        &scores, expected,
                        "generation {generation} served foreign scores"
                    );
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    // Swap the served model repeatedly while the clients hammer: pin
    // the window to the other state, then refit synchronously.
    let mut completed_swaps = 0u64;
    for round in 0..6 {
        let set = if round % 2 == 0 { &set_b } else { &set_a };
        for p in set {
            detector.ingest(p.clone());
        }
        detector.refit_now().unwrap();
        completed_swaps += 1;
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    let total_checked: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(total_checked > 0, "clients never got a response in");
    assert_eq!(detector.generation(), completed_swaps);

    // And the literal contract: a direct ModelStore::score_batch on the
    // final generation matches what the wire now serves.
    let direct = detector.store().score_batch(&queries);
    let resp = post(addr, "/score", body.as_bytes()).unwrap();
    assert_eq!(scores_of(&resp), direct);

    // `/ingest` is tagged too: the batch header is the tenant
    // generation read after the batch, so it is never below any
    // per-event generation in the response and a client watching
    // `X-Mccatch-Generation` never sees it regress.
    let resp = post(addr, "/ingest", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    let tagged: u64 = resp
        .header("x-mccatch-generation")
        .expect("ingest responses are tagged")
        .parse()
        .unwrap();
    let max_event_gen = resp
        .text()
        .unwrap()
        .lines()
        .map(|l| {
            l.split("\"generation\": ")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .unwrap_or_else(|| panic!("no generation in {l:?}"))
                .parse::<u64>()
                .unwrap()
        })
        .max()
        .unwrap();
    assert!(tagged >= max_event_gen, "{tagged} < {max_event_gen}");
    assert_eq!(tagged, completed_swaps);
}

/// The snapshot admin endpoints: `409` until persistence is configured,
/// `404` until a snapshot exists, then a save → info round-trip whose
/// numbers agree with each other and with the file on disk.
#[test]
fn snapshot_endpoints_save_and_describe_the_served_model() {
    // Unconfigured server: both endpoints refuse with 409.
    let (server, _default) = start(ServerConfig::default());
    let addr = server.local_addr();
    assert_eq!(post(addr, "/admin/snapshot", b"").unwrap().status, 409);
    assert_eq!(get(addr, "/admin/snapshot/info").unwrap().status, 409);
    // Wrong methods are 405 with Allow, like every other endpoint.
    let resp = get(addr, "/admin/snapshot").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("POST"));
    let resp = post(addr, "/admin/snapshot/info", b"").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));
    server.shutdown();

    // Configured server: info is 404 until the first save lands.
    let dir = std::env::temp_dir().join(format!("mccatch-server-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot_path = dir.join("model.mcsn");
    let (default, map) = default_tenant(512, grid(0.0));
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            snapshot_path: Some(snapshot_path.clone()),
            ..ServerConfig::default()
        },
        default,
        map,
        ndjson::vector_parser(Some(2)),
        "kd",
    )
    .unwrap();
    let addr = server.local_addr();
    assert_eq!(get(addr, "/admin/snapshot/info").unwrap().status, 404);

    let saved = post(addr, "/admin/snapshot", b"").unwrap();
    assert_eq!(saved.status, 200);
    assert_eq!(saved.header("x-mccatch-generation"), Some("0"));
    let saved_text = saved.text().unwrap();
    assert!(saved_text.contains("\"generation\": 0"), "{saved_text}");
    assert!(saved_text.contains("\"bytes\": "), "{saved_text}");
    // The default tenant persists in the tenant layout: one shard file
    // plus the manifest, never the bare path.
    assert!(saved_text.contains("model.mcsn.default.*"), "{saved_text}");
    let shard0 = dir.join("model.mcsn.default.0");
    assert!(dir.join("model.mcsn.default.manifest").is_file());
    assert!(!snapshot_path.exists());

    let info = get(addr, "/admin/snapshot/info").unwrap();
    assert_eq!(info.status, 200);
    let info_text = info.text().unwrap();
    for needle in [
        "\"version\": 1",
        "\"backend\": \"kd\"",
        "\"dim\": 2",
        "\"num_points\": 101",
        "\"generation\": 0",
    ] {
        assert!(
            info_text.contains(needle),
            "missing {needle:?} in {info_text}"
        );
    }
    // The advertised byte count is shard 0's actual size.
    assert!(info_text.contains("model.mcsn.default.0"), "{info_text}");
    let on_disk = std::fs::metadata(&shard0).unwrap().len();
    assert!(
        info_text.contains(&format!("\"bytes\": {on_disk}")),
        "{info_text} vs {on_disk} on disk"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
