//! Facade-level smoke test of the HTTP serving tier: the whole stack —
//! `mccatch::server` over `mccatch::tenant` over `mccatch::stream` over
//! `mccatch::serve` —
//! reached exclusively through the `mccatch` facade paths, on a real
//! ephemeral localhost socket. (The exhaustive endpoint and
//! malformed-input matrices live in `crates/server/tests`.)

use mccatch::index::KdTreeBuilder;
use mccatch::metrics::Euclidean;
use mccatch::server::client::{get, post};
use mccatch::server::{ndjson, serve, ServerConfig};
use mccatch::stream::{RefitPolicy, StreamConfig};
use mccatch::tenant::{TenantMap, TenantSpec};
use mccatch::McCatch;
use std::sync::Arc;

#[test]
fn the_facade_serves_scores_over_http() {
    let mut seed: Vec<Vec<f64>> = (0..100)
        .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
        .collect();
    seed.push(vec![500.0, 500.0]);

    let tenants = Arc::new(
        TenantMap::new(
            McCatch::builder().build().unwrap(),
            Euclidean,
            KdTreeBuilder::default(),
            TenantSpec {
                stream: StreamConfig {
                    capacity: 256,
                    policy: RefitPolicy::Manual,
                    ..StreamConfig::default()
                },
                ..TenantSpec::default()
            },
        )
        .unwrap(),
    );
    // The default tenant behind the bare endpoints: one shard.
    let default = tenants.create_default(seed).unwrap();
    let server = serve(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::clone(&default),
        tenants,
        ndjson::vector_parser(Some(2)),
        "kd",
    )
    .unwrap();
    let addr = server.local_addr();
    let detector = default.shard_detector(0).unwrap();

    assert_eq!(get(addr, "/healthz").unwrap().status, 200);

    // Scores on the wire equal a direct ModelStore::score_batch through
    // the facade's `serve` path, bit for bit.
    let queries = vec![vec![4.5, 4.5], vec![300.0, -20.0]];
    let direct = detector.store().score_batch(&queries);
    let resp = post(addr, "/score", b"[4.5, 4.5]\n[300.0, -20.0]\n").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-mccatch-generation"), Some("0"));
    let served: Vec<f64> = resp
        .text()
        .unwrap()
        .lines()
        .map(|l| {
            l.strip_prefix("{\"score\": ")
                .and_then(|l| l.strip_suffix('}'))
                .unwrap()
                .parse()
                .unwrap()
        })
        .collect();
    assert_eq!(direct, served);

    // Ingest over the wire is a real stream ingest.
    let before = detector.stats().events_ingested;
    assert_eq!(post(addr, "/ingest", b"[4.0, 4.0]\n").unwrap().status, 200);
    assert_eq!(detector.stats().events_ingested, before + 1);

    // A refit over the wire advances the served generation.
    assert_eq!(post(addr, "/admin/refit", b"").unwrap().status, 200);
    assert_eq!(detector.generation(), 1);

    let metrics = get(addr, "/metrics").unwrap();
    assert!(metrics
        .text()
        .unwrap()
        .contains("mccatch_model_generation 1"));

    server.shutdown();
}
