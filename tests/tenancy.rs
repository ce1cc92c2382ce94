//! Facade-level smoke test of multi-tenant serving: `mccatch::tenant`'s
//! `TenantMap` mounted over HTTP with `mccatch::server::serve`,
//! reached exclusively through the `mccatch` facade paths on a real
//! ephemeral localhost socket. (The exhaustive routing, isolation, and
//! lifecycle matrices live in `crates/server/tests/tenants.rs`; the
//! registry/router/shard unit tests in `crates/tenant`.)

use mccatch::index::KdTreeBuilder;
use mccatch::metrics::Euclidean;
use mccatch::server::client::{get, post, Connection};
use mccatch::server::{ndjson, serve, ServerConfig};
use mccatch::stream::{RefitPolicy, StreamConfig};
use mccatch::tenant::{boot_tenant_name, TenantMap, TenantSpec};
use mccatch::McCatch;
use std::sync::Arc;

fn grid(shift: f64) -> Vec<Vec<f64>> {
    let mut pts: Vec<Vec<f64>> = (0..100)
        .map(|i| vec![(i % 10) as f64 + shift, (i / 10) as f64 + shift])
        .collect();
    pts.push(vec![500.0 + shift, 500.0 + shift]);
    pts
}

fn ndjson_body(pts: &[Vec<f64>]) -> Vec<u8> {
    pts.iter()
        .map(|p| format!("[{}, {}]\n", p[0], p[1]))
        .collect::<String>()
        .into_bytes()
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        capacity: 256,
        policy: RefitPolicy::Manual,
        ..StreamConfig::default()
    }
}

#[test]
fn the_facade_serves_isolated_tenants_over_http() {
    // A two-shard tenant map, with tenant "a" pre-created (the CLI's
    // `--tenants 1 --shards 2` shape).
    let tenants = TenantMap::new(
        McCatch::builder().build().unwrap(),
        Euclidean,
        KdTreeBuilder::default(),
        TenantSpec {
            shards: 2,
            stream: stream_config(),
            ..TenantSpec::default()
        },
    )
    .unwrap();
    assert_eq!(boot_tenant_name(0), "a");
    let a = tenants.create_seeded("a", grid(0.0)).unwrap();
    // The default tenant behind the bare endpoints: one shard, held
    // beside the map rather than in it.
    let default = tenants.create_default(grid(0.0)).unwrap();

    let server = serve(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::clone(&default),
        Arc::new(tenants),
        ndjson::vector_parser(Some(2)),
        "kd",
    )
    .unwrap();
    let addr = server.local_addr();

    // Create tenant "b" over the wire, seeded with shifted data.
    let mut conn = Connection::open(addr).unwrap();
    let resp = conn
        .request("PUT", "/admin/tenants/b", &ndjson_body(&grid(1000.0)))
        .unwrap();
    assert_eq!(resp.status, 200, "{:?}", resp.text());
    let listed = get(addr, "/admin/tenants").unwrap();
    assert!(listed.text().unwrap().contains("\"a\""));
    assert!(listed.text().unwrap().contains("\"b\""));

    // Tenant-scoped scoring matches the tenant's own ensemble, bit for
    // bit, and the two tenants disagree (different seed data).
    let queries = vec![vec![4.5, 4.5], vec![300.0, -20.0]];
    let direct = a.score_batch(&queries).0;
    let scores = |path: &str| -> Vec<f64> {
        let resp = post(addr, path, &ndjson_body(&queries)).unwrap();
        assert_eq!(resp.status, 200, "{path}: {:?}", resp.text());
        resp.text()
            .unwrap()
            .lines()
            .map(|l| {
                l.strip_prefix("{\"score\": ")
                    .and_then(|l| l.strip_suffix('}'))
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect()
    };
    assert_eq!(scores("/t/a/score"), direct);
    assert_ne!(scores("/t/b/score"), direct);

    // Ingest + refit on "b" never moves "a" (or the default tenant).
    let default_before = default.shard_stats();
    assert_eq!(
        post(addr, "/t/b/ingest", &ndjson_body(&grid(1000.0)))
            .unwrap()
            .status,
        200
    );
    assert_eq!(post(addr, "/t/b/admin/refit", b"").unwrap().status, 200);
    assert_eq!(scores("/t/a/score"), direct);
    assert_eq!(a.generation(), 0);
    assert_eq!(default.shard_stats(), default_before);

    // Delete "b": its routes go away, "a" keeps serving.
    assert_eq!(
        conn.request("DELETE", "/admin/tenants/b", b"")
            .unwrap()
            .status,
        200
    );
    assert_eq!(post(addr, "/t/b/score", b"[1, 2]\n").unwrap().status, 404);
    assert_eq!(scores("/t/a/score"), direct);

    server.shutdown();
}
