//! Loopback throughput of the HTTP scoring service on the http-10k
//! workload: scored events/sec for `POST /score` with and without
//! concurrent refits swapping the served model mid-run.
//!
//! The interesting delta is the HTTP tax on the serving hot path: the
//! same workload scores ≈ 700k events/sec through direct
//! `StreamDetector::ingest` calls (`bench_stream`), and whatever the
//! wire costs (parsing 500 NDJSON vectors per request, one socket
//! round-trip per batch, formatting 500 score objects back) shows up
//! as the gap to that number. The concurrent-refit mode adds a thread
//! hammering `POST /admin/refit` (each one a synchronous 2k-point fit
//! plus atomic swap), so the reported number honestly includes the
//! cost of staying fresh, exactly like `bench_stream`'s second mode.
//!
//! Besides the criterion timings, a fixed headline run per mode prints
//! `events/sec` summary lines and appends machine-readable results to
//! `BENCH_server.json` at the workspace root, so the perf trajectory
//! accumulates across sessions. A third mode repeats `score_only` with
//! per-request tracing enabled (span collection on, tail-sampling
//! threshold unreachable) to keep the tracing tax honest — it must
//! stay within run-to-run noise of the untraced number.

use criterion::{criterion_group, criterion_main, Criterion};
use mccatch_bench::append_bench_line;
use mccatch_core::McCatch;
use mccatch_data::http;
use mccatch_index::KdTreeBuilder;
use mccatch_metric::Euclidean;
use mccatch_obs::{Histogram, HistogramSnapshot};
use mccatch_server::client::Connection;
use mccatch_server::{ndjson, serve, ServerConfig, ServerHandle};
use mccatch_stream::{RefitPolicy, StreamConfig};
use mccatch_tenant::{Tenant, TenantMap, TenantSpec};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WINDOW: usize = 2_000;
const BATCH_LINES: usize = 500;
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 150;

type DefaultTenant = Tenant<Vec<f64>, Euclidean, KdTreeBuilder>;

/// Boots a server whose default tenant (one shard, behind the bare
/// endpoints) is seeded with a 2k window of http-10k, and returns the
/// handle, the shared default tenant, and the held-out events.
/// `traced` turns on per-request span collection with an unreachable
/// tail-sampling threshold, so the bench pays the full collection cost
/// while the ring stays near-empty — the honest "tracing enabled"
/// number.
fn boot(traced: bool) -> (ServerHandle, Arc<DefaultTenant>, Vec<Vec<f64>>) {
    let data = http(10_000, 1);
    let seed: Vec<Vec<f64>> = data.points[..WINDOW].to_vec();
    let events: Vec<Vec<f64>> = data.points[WINDOW..].to_vec();
    let tenants = Arc::new(
        TenantMap::new(
            McCatch::builder().build().expect("defaults are valid"),
            Euclidean,
            KdTreeBuilder::default(),
            TenantSpec {
                stream: StreamConfig {
                    capacity: WINDOW,
                    policy: RefitPolicy::Manual,
                    ..StreamConfig::default()
                },
                ..TenantSpec::default()
            },
        )
        .expect("valid tenant spec"),
    );
    let default = tenants.create_default(seed).expect("seed fit");
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: CLIENTS + 1,
            queue: 64,
            trace_slow_ms: traced.then_some(600_000),
            ..ServerConfig::default()
        },
        Arc::clone(&default),
        tenants,
        ndjson::vector_parser(Some(3)),
        "kd",
    )
    .expect("ephemeral bind");
    (server, default, events)
}

/// Pre-renders the held-out events into NDJSON request bodies of
/// `BATCH_LINES` lines each, so the measured loop spends its time on
/// the wire and the server, not on client-side formatting.
fn bodies(events: &[Vec<f64>]) -> Vec<String> {
    events
        .chunks(BATCH_LINES)
        .filter(|c| c.len() == BATCH_LINES)
        .map(|chunk| {
            let mut body = String::with_capacity(BATCH_LINES * 32);
            for p in chunk {
                body.push('[');
                for (i, v) in p.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push_str(&format!("{v}"));
                }
                body.push_str("]\n");
            }
            body
        })
        .collect()
}

/// One headline measurement: `CLIENTS` keep-alive connections hammer
/// `/score`; optionally a refitter thread swaps the model under them.
/// Every request's client-side wall time lands in a shared lock-free
/// latency histogram. Returns (events scored, elapsed, refits
/// completed, per-request latency).
fn hammer(
    addr: SocketAddr,
    default: &Arc<DefaultTenant>,
    bodies: &Arc<Vec<String>>,
    concurrent_refits: bool,
) -> (u64, Duration, u64, HistogramSnapshot) {
    let refits_completed = || default.shard_stats()[0].refits_completed;
    let refits_before = refits_completed();
    let stop_refitter = Arc::new(AtomicBool::new(false));
    let refitter = concurrent_refits.then(|| {
        let stop = Arc::clone(&stop_refitter);
        std::thread::spawn(move || {
            let mut conn = Connection::open(addr).expect("refitter connect");
            while !stop.load(Ordering::Acquire) {
                let resp = conn
                    .request("POST", "/admin/refit", b"")
                    .expect("refit request");
                assert_eq!(resp.status, 200, "refit failed mid-bench");
            }
        })
    });

    let latency = Arc::new(Histogram::new());
    let t0 = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let bodies = Arc::clone(bodies);
            let latency = Arc::clone(&latency);
            std::thread::spawn(move || {
                let mut conn = Connection::open(addr).expect("client connect");
                let mut scored = 0u64;
                for r in 0..REQUESTS_PER_CLIENT {
                    let body = &bodies[(c + r) % bodies.len()];
                    let sent = Instant::now();
                    let resp = conn
                        .request("POST", "/score", body.as_bytes())
                        .expect("score request");
                    latency.record(sent.elapsed());
                    assert_eq!(resp.status, 200);
                    scored += resp
                        .text()
                        .expect("utf-8 body")
                        .lines()
                        .filter(|l| l.starts_with("{\"score\""))
                        .count() as u64;
                }
                scored
            })
        })
        .collect();
    let scored: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
    let elapsed = t0.elapsed();
    stop_refitter.store(true, Ordering::Release);
    if let Some(r) = refitter {
        r.join().expect("refitter");
    }
    let refits = refits_completed() - refits_before;
    (scored, elapsed, refits, latency.snapshot())
}

/// Appends the headline numbers to `BENCH_server.json` at the
/// workspace root (created if missing), one self-contained JSON object
/// per run so downstream tooling can track the trajectory.
fn emit_json(
    score_only: (u64, Duration, HistogramSnapshot),
    with_refit: (u64, Duration, u64, HistogramSnapshot),
    traced: (u64, Duration, HistogramSnapshot),
) {
    let (so_events, so_time, so_lat) = score_only;
    let (wr_events, wr_time, wr_refits, wr_lat) = with_refit;
    let (tr_events, tr_time, tr_lat) = traced;
    let lat_ms = |h: &HistogramSnapshot| {
        format!(
            "\"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_ms\": {:.3}",
            h.quantile(0.50) * 1e3,
            h.quantile(0.99) * 1e3,
            h.max_seconds() * 1e3,
        )
    };
    let json = format!(
        "{{\"bench\": \"server_loopback\", \"workload\": \"http-10k\", \
         \"window\": {WINDOW}, \"batch_lines\": {BATCH_LINES}, \"clients\": {CLIENTS}, \
         \"score_only\": {{\"events\": {so_events}, \"secs\": {:.4}, \"events_per_sec\": {:.0}, {}}}, \
         \"with_concurrent_refit\": {{\"events\": {wr_events}, \"secs\": {:.4}, \
         \"events_per_sec\": {:.0}, \"refits_completed\": {wr_refits}, {}}}, \
         \"score_only_traced\": {{\"events\": {tr_events}, \"secs\": {:.4}, \
         \"events_per_sec\": {:.0}, {}}}}}",
        so_time.as_secs_f64(),
        so_events as f64 / so_time.as_secs_f64().max(1e-9),
        lat_ms(&so_lat),
        wr_time.as_secs_f64(),
        wr_events as f64 / wr_time.as_secs_f64().max(1e-9),
        lat_ms(&wr_lat),
        tr_time.as_secs_f64(),
        tr_events as f64 / tr_time.as_secs_f64().max(1e-9),
        lat_ms(&tr_lat),
    );
    append_bench_line("BENCH_server.json", &json);
}

fn bench_server_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_http10k");
    group.sample_size(10);

    // Criterion timing: one keep-alive request of BATCH_LINES vectors.
    let (server, _default, events) = boot(false);
    let addr = server.local_addr();
    let request_bodies = bodies(&events);
    let mut conn = Connection::open(addr).expect("bench connect");
    let mut cursor = 0usize;
    group.bench_function("score_500_vectors_one_request", |b| {
        b.iter(|| {
            let body = &request_bodies[cursor % request_bodies.len()];
            let resp = conn
                .request("POST", "/score", body.as_bytes())
                .expect("score request");
            assert_eq!(resp.status, 200);
            cursor += 1;
        })
    });
    drop(conn);
    server.shutdown();
    group.finish();

    // Headline numbers: CLIENTS threads × REQUESTS_PER_CLIENT batches,
    // with and without a refitter swapping the 2k-point model under
    // the scorers.
    let mut headline = Vec::new();
    // The traced mode runs LAST: configuring the process-global sampler
    // cannot be undone for this process, so the untraced modes must
    // finish before it boots.
    for (name, concurrent, traced) in [
        ("score_only", false, false),
        ("score_with_concurrent_refit", true, false),
        ("score_only_traced", false, true),
    ] {
        let (server, default, events) = boot(traced);
        let bodies = Arc::new(bodies(&events));
        let (scored, elapsed, refits, latency) =
            hammer(server.local_addr(), &default, &bodies, concurrent);
        println!(
            "server_http10k/{name}: {scored} events in {elapsed:.2?} = {:.0} events/sec \
             ({:.0} requests/sec, p50 {:.2}ms p99 {:.2}ms, refits completed {refits}, \
             generation {})",
            scored as f64 / elapsed.as_secs_f64().max(1e-9),
            (CLIENTS * REQUESTS_PER_CLIENT) as f64 / elapsed.as_secs_f64().max(1e-9),
            latency.quantile(0.50) * 1e3,
            latency.quantile(0.99) * 1e3,
            default.generation(),
        );
        headline.push((scored, elapsed, refits, latency));
        server.shutdown();
    }
    emit_json(
        (headline[0].0, headline[0].1, headline[0].3),
        (headline[1].0, headline[1].1, headline[1].2, headline[1].3),
        (headline[2].0, headline[2].1, headline[2].3),
    );
}

criterion_group!(benches, bench_server_throughput);
criterion_main!(benches);
