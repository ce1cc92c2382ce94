//! Aggregate loopback throughput of multi-tenant serving on the
//! http-10k workload: scored events/sec for `POST /t/{tenant}/score`
//! with the same total request budget spread across 1, 4, and 16
//! tenants (one keep-alive client per tenant).
//!
//! The interesting number is the scaling ratio. Every tenant owns an
//! independent shard set behind one shared listener and worker pool,
//! so no lock is shared across tenants on the scoring hot path: the
//! 4-tenant aggregate should approach 4 concurrent single-tenant
//! streams on a multi-core host, and degrade gracefully — not
//! collapse — at 16. On a single-core container the clients contend
//! for the one CPU and the honest expectation is a ratio near 1.
//!
//! Besides the criterion timing, a fixed headline run per tenant count
//! prints `events/sec` summary lines and appends machine-readable
//! results to `BENCH_tenant.json` at the workspace root, so the perf
//! trajectory accumulates across sessions.

use criterion::{criterion_group, criterion_main, Criterion};
use mccatch_bench::append_bench_line;
use mccatch_core::McCatch;
use mccatch_data::http;
use mccatch_index::KdTreeBuilder;
use mccatch_metric::Euclidean;
use mccatch_server::client::Connection;
use mccatch_server::{ndjson, serve, ServerConfig, ServerHandle};
use mccatch_stream::{RefitPolicy, StreamConfig};
use mccatch_tenant::{boot_tenant_name, TenantMap, TenantSpec};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WINDOW: usize = 1_000;
const BATCH_LINES: usize = 250;
/// Total `/t/{tenant}/score` requests per headline run, split evenly
/// across the tenants so every configuration scores the same number of
/// events and the aggregate rates are directly comparable.
const TOTAL_REQUESTS: usize = 240;
const TENANT_COUNTS: [usize; 3] = [1, 4, 16];

/// Boots a tenant-serving server with `n` identically seeded
/// single-shard tenants (plus the mandatory default tenant) and
/// returns the handle and the held-out events.
fn boot(n: usize) -> (ServerHandle, Vec<Vec<f64>>) {
    let data = http(10_000, 1);
    let seed: Vec<Vec<f64>> = data.points[..WINDOW].to_vec();
    let events: Vec<Vec<f64>> = data.points[WINDOW..].to_vec();
    let stream = StreamConfig {
        capacity: WINDOW,
        policy: RefitPolicy::Manual,
        ..StreamConfig::default()
    };
    let tenants = TenantMap::new(
        McCatch::builder().build().expect("defaults are valid"),
        Euclidean,
        KdTreeBuilder::default(),
        TenantSpec {
            shards: 1,
            stream,
            ..TenantSpec::default()
        },
    )
    .expect("valid tenant spec");
    for i in 0..n {
        tenants
            .create_seeded(&boot_tenant_name(i), seed.clone())
            .expect("tenant create");
    }
    let default = tenants.create_default(seed).expect("seed fit");
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: n + 1,
            queue: 64,
            ..ServerConfig::default()
        },
        default,
        Arc::new(tenants),
        ndjson::vector_parser(Some(3)),
        "kd",
    )
    .expect("ephemeral bind");
    (server, events)
}

/// Pre-renders the held-out events into NDJSON bodies of `BATCH_LINES`
/// lines each, so the measured loop spends its time on the wire and
/// the server, not on client-side formatting.
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

/// One headline measurement: one keep-alive client per tenant, the
/// total request budget split evenly. Returns (events scored, elapsed).
fn hammer(addr: SocketAddr, n: usize, bodies: &Arc<Vec<String>>) -> (u64, Duration) {
    let per_client = TOTAL_REQUESTS / n;
    let t0 = Instant::now();
    let clients: Vec<_> = (0..n)
        .map(|c| {
            let bodies = Arc::clone(bodies);
            let path = format!("/t/{}/score", boot_tenant_name(c));
            std::thread::spawn(move || {
                let mut conn = Connection::open(addr).expect("client connect");
                let mut scored = 0u64;
                for r in 0..per_client {
                    let body = &bodies[(c + r) % bodies.len()];
                    let resp = conn
                        .request("POST", &path, body.as_bytes())
                        .expect("score request");
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
    (scored, t0.elapsed())
}

/// Appends the headline numbers to `BENCH_tenant.json` at the
/// workspace root (created if missing), one self-contained JSON object
/// per run so downstream tooling can track the trajectory.
fn emit_json(headline: &[(usize, u64, Duration)]) {
    let runs: Vec<String> = headline
        .iter()
        .map(|(n, events, time)| {
            format!(
                "{{\"tenants\": {n}, \"events\": {events}, \"secs\": {:.4}, \
                 \"events_per_sec\": {:.0}}}",
                time.as_secs_f64(),
                *events as f64 / time.as_secs_f64().max(1e-9),
            )
        })
        .collect();
    let json = format!(
        "{{\"bench\": \"tenant_loopback\", \"workload\": \"http-10k\", \
         \"window\": {WINDOW}, \"batch_lines\": {BATCH_LINES}, \
         \"total_requests\": {TOTAL_REQUESTS}, \"runs\": [{}]}}",
        runs.join(", "),
    );
    append_bench_line("BENCH_tenant.json", &json);
}

fn bench_tenant_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("tenant_http10k");
    group.sample_size(10);

    // Criterion timing: one keep-alive request against one tenant.
    let (server, events) = boot(1);
    let addr = server.local_addr();
    let request_bodies = bodies(&events);
    let mut conn = Connection::open(addr).expect("bench connect");
    let mut cursor = 0usize;
    group.bench_function("score_250_vectors_one_tenant", |b| {
        b.iter(|| {
            let body = &request_bodies[cursor % request_bodies.len()];
            let resp = conn
                .request("POST", "/t/a/score", body.as_bytes())
                .expect("score request");
            assert_eq!(resp.status, 200);
            cursor += 1;
        })
    });
    drop(conn);
    server.shutdown();
    group.finish();

    // Headline numbers: the same request budget across 1/4/16 tenants.
    let mut headline = Vec::new();
    for n in TENANT_COUNTS {
        let (server, events) = boot(n);
        let bodies = Arc::new(bodies(&events));
        let (scored, elapsed) = hammer(server.local_addr(), n, &bodies);
        println!(
            "tenant_http10k/{n}_tenants: {scored} events in {elapsed:.2?} = {:.0} events/sec \
             aggregate ({:.0} requests/sec)",
            scored as f64 / elapsed.as_secs_f64().max(1e-9),
            TOTAL_REQUESTS as f64 / elapsed.as_secs_f64().max(1e-9),
        );
        headline.push((n, scored, elapsed));
        server.shutdown();
    }
    emit_json(&headline);
}

criterion_group!(benches, bench_tenant_throughput);
criterion_main!(benches);
