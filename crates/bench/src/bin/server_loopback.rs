//! Loopback throughput of the HTTP scoring service on the http-10k
//! workload: scored events/sec for `POST /score` with and without
//! concurrent refits swapping the served model mid-run.
//!
//! `CLIENTS` keep-alive connections each send `REQUESTS_PER_CLIENT`
//! requests of `BATCH_LINES` NDJSON vectors, so the number covers the
//! wire (parsing the vectors, one socket round-trip per batch, rendering
//! the score objects) on top of `score_one`. The concurrent-refit mode
//! adds a thread hammering `POST /admin/refit` (each one a synchronous
//! 2k-point fit plus atomic swap), so its number includes the cost of
//! staying fresh; perfbench's `serve-score` workload runs no refits. A
//! third mode repeats `score_only` with per-request tracing enabled
//! (span collection on, tail-sampling threshold unreachable) to keep the
//! tracing tax honest — it must stay within run-to-run noise of the
//! untraced number.
//!
//! Each mode prints a summary line, and the run appends one JSON object
//! to `BENCH_server.json` at the workspace root: events/sec plus exact
//! nearest-rank latency quantiles over the raw per-request samples. It
//! takes no arguments:
//!
//! ```sh
//! cargo run --release -q -p mccatch-bench --bin server_loopback
//! ```

use mccatch_bench::append_bench_line;
use mccatch_core::McCatch;
use mccatch_data::http;
use mccatch_index::KdTreeBuilder;
use mccatch_metric::Euclidean;
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
/// Latency samples per mode: one per request.
const SAMPLES: usize = CLIENTS * REQUESTS_PER_CLIENT;

type DefaultTenant = Tenant<Vec<f64>, Euclidean, KdTreeBuilder>;

/// Boots a server whose default tenant (one shard, behind the bare
/// endpoints) is seeded with a 2k window of http-10k, and returns the
/// handle, the shared default tenant, and the held-out events.
/// `traced` turns on per-request span collection with an unreachable
/// tail-sampling threshold, so the run pays the full collection cost
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

/// One mode's headline measurement.
struct Run {
    events: u64,
    elapsed: Duration,
    refits: u64,
    /// Client-side wall time of every request, sorted ascending.
    latency: Vec<Duration>,
}

impl Run {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The exact nearest-rank `q`-quantile of the request latencies, in
    /// milliseconds.
    fn quantile_ms(&self, q: f64) -> f64 {
        nearest_rank(&self.latency, q).as_secs_f64() * 1e3
    }
}

/// The smallest of the ascending, non-empty `sorted` samples with at
/// least `q·n` samples at or below it.
fn nearest_rank(sorted: &[Duration], q: f64) -> Duration {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `CLIENTS` keep-alive connections hammer `/score`; optionally a
/// refitter thread swaps the model under them.
fn hammer(
    addr: SocketAddr,
    default: &Arc<DefaultTenant>,
    bodies: &Arc<Vec<String>>,
    concurrent_refits: bool,
) -> Run {
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
                assert_eq!(resp.status, 200, "refit failed mid-run");
            }
        })
    });

    let t0 = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let bodies = Arc::clone(bodies);
            std::thread::spawn(move || {
                let mut conn = Connection::open(addr).expect("client connect");
                let mut scored = 0u64;
                let mut latency = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for r in 0..REQUESTS_PER_CLIENT {
                    let body = &bodies[(c + r) % bodies.len()];
                    let sent = Instant::now();
                    let resp = conn
                        .request("POST", "/score", body.as_bytes())
                        .expect("score request");
                    latency.push(sent.elapsed());
                    assert_eq!(resp.status, 200);
                    scored += resp
                        .text()
                        .expect("utf-8 body")
                        .lines()
                        .filter(|l| l.starts_with("{\"score\""))
                        .count() as u64;
                }
                (scored, latency)
            })
        })
        .collect();
    let mut events = 0;
    let mut latency = Vec::with_capacity(SAMPLES);
    for client in clients {
        let (scored, samples) = client.join().expect("client");
        events += scored;
        latency.extend(samples);
    }
    let elapsed = t0.elapsed();
    stop_refitter.store(true, Ordering::Release);
    if let Some(r) = refitter {
        r.join().expect("refitter");
    }
    latency.sort_unstable();
    Run {
        events,
        elapsed,
        refits: refits_completed() - refits_before,
        latency,
    }
}

/// The `BENCH_server.json` object for the three modes, in the order
/// score-only, with concurrent refits, traced.
fn ledger_json(score_only: &Run, with_refit: &Run, traced: &Run) -> String {
    let mode = |run: &Run, refits: bool| {
        let refits = if refits {
            format!(", \"refits_completed\": {}", run.refits)
        } else {
            String::new()
        };
        format!(
            "{{\"events\": {}, \"secs\": {:.4}, \"events_per_sec\": {:.0}{refits}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_ms\": {:.3}}}",
            run.events,
            run.elapsed.as_secs_f64(),
            run.events_per_sec(),
            run.quantile_ms(0.50),
            run.quantile_ms(0.99),
            run.quantile_ms(1.0),
        )
    };
    format!(
        "{{\"bench\": \"server_loopback\", \"workload\": \"http-10k\", \
         \"window\": {WINDOW}, \"batch_lines\": {BATCH_LINES}, \"clients\": {CLIENTS}, \
         \"samples\": {SAMPLES}, \"score_only\": {}, \"with_concurrent_refit\": {}, \
         \"score_only_traced\": {}}}",
        mode(score_only, false),
        mode(with_refit, true),
        mode(traced, false),
    )
}

fn main() {
    // CLIENTS threads × REQUESTS_PER_CLIENT batches, with and without a
    // refitter swapping the 2k-point model under the scorers. The traced
    // mode runs LAST: configuring the process-global sampler cannot be
    // undone for this process, so the untraced modes must finish before
    // it boots.
    let runs: Vec<Run> = [
        ("score_only", false, false),
        ("score_with_concurrent_refit", true, false),
        ("score_only_traced", false, true),
    ]
    .into_iter()
    .map(|(name, concurrent, traced)| {
        let (server, default, events) = boot(traced);
        let bodies = Arc::new(bodies(&events));
        let run = hammer(server.local_addr(), &default, &bodies, concurrent);
        println!(
            "server_http10k/{name}: {} events in {:.2?} = {:.0} events/sec \
             ({:.0} requests/sec, p50 {:.2}ms p99 {:.2}ms max {:.2}ms, \
             refits completed {}, generation {})",
            run.events,
            run.elapsed,
            run.events_per_sec(),
            SAMPLES as f64 / run.elapsed.as_secs_f64().max(1e-9),
            run.quantile_ms(0.50),
            run.quantile_ms(0.99),
            run.quantile_ms(1.0),
            run.refits,
            default.generation(),
        );
        server.shutdown();
        run
    })
    .collect();
    append_bench_line(
        "BENCH_server.json",
        &ledger_json(&runs[0], &runs[1], &runs[2]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let sorted: Vec<Duration> = (1..=10).map(ms).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), ms(5));
        assert_eq!(nearest_rank(&sorted, 0.51), ms(6));
        assert_eq!(nearest_rank(&sorted, 0.99), ms(10));
        assert_eq!(nearest_rank(&sorted, 1.0), ms(10));
        assert_eq!(nearest_rank(&sorted, 0.0), ms(1));
        assert_eq!(nearest_rank(&[ms(7)], 0.99), ms(7));
    }

    #[test]
    fn ledger_json_reports_the_exact_quantiles() {
        let run = |refits| Run {
            events: 1_000,
            elapsed: Duration::from_millis(500),
            refits,
            latency: (1..=100).map(ms).collect(),
        };
        let json = ledger_json(&run(0), &run(3), &run(0));
        let doc = mccatch_obs::json::parse(&json).expect("one JSON object");
        let num = |mode: &str, key: &str| doc.get(mode)?.get(key)?.as_f64();
        assert_eq!(doc.get("samples").and_then(|v| v.as_u64()), Some(600));
        let refit = "with_concurrent_refit";
        assert_eq!(num(refit, "refits_completed"), Some(3.0));
        assert_eq!(num(refit, "events_per_sec"), Some(2_000.0));
        assert_eq!(num(refit, "p50_ms"), Some(50.0));
        assert_eq!(num(refit, "p99_ms"), Some(99.0));
        assert_eq!(num(refit, "max_ms"), Some(100.0));
        assert_eq!(num("score_only_traced", "refits_completed"), None);
    }
}
