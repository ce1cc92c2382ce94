//! Multi-tenant serving over real sockets: lifecycle, `/t/{tenant}/…`
//! and header routing, cross-tenant isolation under concurrent traffic,
//! per-tenant snapshots, and the tenant-labeled `/metrics` exposition.

use mccatch_core::McCatch;
use mccatch_index::KdTreeBuilder;
use mccatch_metric::Euclidean;
use mccatch_server::client::{get, post, ClientResponse, Connection};
use mccatch_server::{ndjson, serve, ServerConfig, ServerHandle};
use mccatch_stream::{RefitPolicy, StreamConfig};
use mccatch_tenant::{TenantMap, TenantSpec};
use std::sync::Arc;

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

fn grid_ndjson(shift: f64) -> Vec<u8> {
    grid(shift)
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

fn tenant_map(shards: usize) -> Arc<VecTenants> {
    Arc::new(
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
    )
}

fn start_tenants(config: ServerConfig, shards: usize) -> (ServerHandle, Arc<VecTenants>) {
    let map = tenant_map(shards);
    let server = serve(
        "127.0.0.1:0",
        config,
        map.create_default(grid(0.0)).unwrap(),
        Arc::clone(&map),
        ndjson::vector_parser(Some(2)),
        "kd",
    )
    .unwrap();
    (server, map)
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

fn generation_of(resp: &ClientResponse) -> u64 {
    resp.header("x-mccatch-generation")
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn lifecycle_create_list_delete_over_the_wire() {
    let (server, _map) = start_tenants(ServerConfig::default(), 1);
    let addr = server.local_addr();
    let mut conn = Connection::open(addr).unwrap();

    // Create with a seed body; re-PUT is idempotent.
    let resp = conn
        .request("PUT", "/admin/tenants/acme", &grid_ndjson(0.0))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().unwrap().contains("\"created\": true"));
    let resp = conn.request("PUT", "/admin/tenants/acme", b"").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().unwrap().contains("\"created\": false"));

    let resp = conn.request("GET", "/admin/tenants", b"").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text().unwrap(), "{\"tenants\": [\"acme\"]}\n");

    // The tenant serves; an unknown one does not.
    assert_eq!(
        post(addr, "/t/acme/score", b"[4.5, 4.5]\n").unwrap().status,
        200
    );
    let resp = post(addr, "/t/ghost/score", b"[4.5, 4.5]\n").unwrap();
    assert_eq!(resp.status, 404);
    assert!(resp.text().unwrap().contains("no such tenant"));

    // Delete unlinks; a second delete is 404.
    let resp = conn.request("DELETE", "/admin/tenants/acme", b"").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().unwrap().contains("\"deleted\": true"));
    assert_eq!(
        conn.request("DELETE", "/admin/tenants/acme", b"")
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        post(addr, "/t/acme/score", b"[4.5, 4.5]\n").unwrap().status,
        404
    );

    // Wrong method on the lifecycle routes.
    let resp = post(addr, "/admin/tenants", b"").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));
    let resp = post(addr, "/admin/tenants/x", b"").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("PUT, DELETE"));
}

#[test]
fn invalid_tenant_names_are_rejected_with_400_at_the_http_layer() {
    let (server, _map) = start_tenants(ServerConfig::default(), 1);
    let addr = server.local_addr();
    let mut conn = Connection::open(addr).unwrap();
    let too_long = "x".repeat(65);
    for bad in ["a%20b", "a.b", &too_long] {
        let resp = conn
            .request("PUT", &format!("/admin/tenants/{bad}"), b"")
            .unwrap();
        assert_eq!(resp.status, 400, "{bad}");
        assert!(
            resp.text().unwrap().contains("[a-zA-Z0-9_-]{1,64}"),
            "{bad}"
        );
        let resp = post(addr, &format!("/t/{bad}/score"), b"[1.0, 1.0]\n").unwrap();
        assert_eq!(resp.status, 400, "{bad}");
    }
    // A malformed seed rejects the whole create: the tenant must not
    // half-exist afterwards.
    let resp = conn
        .request("PUT", "/admin/tenants/half", b"[1.0, 2.0]\nnonsense\n")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().unwrap().contains("seed line 2"));
    assert_eq!(
        post(addr, "/t/half/score", b"[1.0, 1.0]\n").unwrap().status,
        404
    );
}

#[test]
fn header_routing_matches_path_routing_and_mismatch_is_400() {
    let (server, _map) = start_tenants(ServerConfig::default(), 1);
    let addr = server.local_addr();
    let mut conn = Connection::open(addr).unwrap();
    conn.request("PUT", "/admin/tenants/acme", &grid_ndjson(0.0))
        .unwrap();

    let by_path = post(addr, "/t/acme/score", b"[4.5, 4.5]\n").unwrap();
    let body = b"[4.5, 4.5]\n";
    let raw = format!(
        "POST /score HTTP/1.1\r\nhost: x\r\nx-mccatch-tenant: acme\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let mut raw = raw.into_bytes();
    raw.extend_from_slice(body);
    let by_header = conn.request_raw(&raw).unwrap();
    assert_eq!(by_header.status, 200);
    assert_eq!(by_header.text().unwrap(), by_path.text().unwrap());

    // Path and header disagreeing is a client error, not a guess.
    let raw = format!(
        "POST /t/acme/score HTTP/1.1\r\nhost: x\r\nx-mccatch-tenant: beta\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let mut raw = raw.into_bytes();
    raw.extend_from_slice(body);
    let resp = conn.request_raw(&raw).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().unwrap().contains("tenant mismatch"));
}

#[test]
fn single_shard_tenant_is_byte_identical_to_the_default_path() {
    // The default tenant and the named one are seeded identically; every
    // /score response body must be byte-equal between the bare path and
    // the tenant-scoped path.
    let (server, _map) = start_tenants(ServerConfig::default(), 1);
    let addr = server.local_addr();
    let mut conn = Connection::open(addr).unwrap();
    conn.request("PUT", "/admin/tenants/twin", &grid_ndjson(0.0))
        .unwrap();
    for body in [
        b"[4.5, 4.5]\n[900.0, 900.0]\n".as_slice(),
        b"[0.0, 0.0]\nnot json\n[250.0, -3.0]\n".as_slice(),
    ] {
        let bare = post(addr, "/score", body).unwrap();
        let scoped = post(addr, "/t/twin/score", body).unwrap();
        assert_eq!(bare.status, scoped.status);
        assert_eq!(
            bare.text().unwrap(),
            scoped.text().unwrap(),
            "byte-equal bodies"
        );
        assert_eq!(generation_of(&bare), generation_of(&scoped));
    }
}

#[test]
fn four_tenant_isolation_ingest_to_one_never_moves_the_others() {
    let (server, map) = start_tenants(ServerConfig::default(), 2);
    let addr = server.local_addr();
    let mut conn = Connection::open(addr).unwrap();
    for name in ["a", "b", "c", "d"] {
        let resp = conn
            .request("PUT", &format!("/admin/tenants/{name}"), &grid_ndjson(0.0))
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    let probe = b"[4.5, 4.5]\n[7.0, 2.0]\n[900.0, 900.0]\n";
    let b_before = post(addr, "/t/b/score", probe).unwrap();

    // Hammer tenant a: ingests plus an explicit refit.
    for i in 0..20 {
        let body = format!("[{}, 1.0]\n[{}, 2.0]\n", i, i);
        assert_eq!(
            post(addr, "/t/a/ingest", body.as_bytes()).unwrap().status,
            200
        );
    }
    let refit = post(addr, "/t/a/refit", b"").unwrap();
    assert_eq!(refit.status, 404, "refit lives under /admin");
    let refit = post(addr, "/t/a/admin/refit", b"").unwrap();
    assert_eq!(refit.status, 200);
    assert!(generation_of(&refit) > 0);

    // Tenant b is bitwise untouched: same scores, same generation.
    let b_after = post(addr, "/t/b/score", probe).unwrap();
    assert_eq!(b_before.text().unwrap(), b_after.text().unwrap());
    assert_eq!(generation_of(&b_before), generation_of(&b_after));
    assert_eq!(generation_of(&b_after), 0);
    for name in ["b", "c", "d"] {
        assert_eq!(map.get(name).unwrap().generation(), 0, "{name}");
    }
    assert!(map.get("a").unwrap().generation() > 0);
}

#[test]
fn concurrent_lifecycle_scoring_stays_stable_and_generations_are_monotone() {
    let (server, _map) = start_tenants(ServerConfig::default(), 1);
    let addr = server.local_addr();
    let mut conn = Connection::open(addr).unwrap();
    conn.request("PUT", "/admin/tenants/stable", &grid_ndjson(0.0))
        .unwrap();
    let probe = b"[4.5, 4.5]\n[900.0, 900.0]\n";
    let baseline = scores_of(&post(addr, "/t/stable/score", probe).unwrap());

    std::thread::scope(|scope| {
        // Churn: create and delete sibling tenants in a loop.
        let churn = scope.spawn(move || {
            let mut conn = Connection::open(addr).unwrap();
            for round in 0..8 {
                for name in ["churn-x", "churn-y"] {
                    let resp = conn
                        .request("PUT", &format!("/admin/tenants/{name}"), &grid_ndjson(1.0))
                        .unwrap();
                    assert_eq!(resp.status, 200, "round {round}");
                }
                for name in ["churn-x", "churn-y"] {
                    let resp = conn
                        .request("DELETE", &format!("/admin/tenants/{name}"), b"")
                        .unwrap();
                    assert_eq!(resp.status, 200, "round {round}");
                }
            }
        });
        // Traffic: ingest to "stable" and watch its generation never
        // regress while scoring stays self-consistent.
        let traffic = scope.spawn(move || {
            let mut conn = Connection::open(addr).unwrap();
            let mut last_generation = 0u64;
            for i in 0..8 {
                let body = format!("[{}.5, 3.0]\n", i % 5);
                let resp = conn
                    .request("POST", "/t/stable/ingest", body.as_bytes())
                    .unwrap();
                assert_eq!(resp.status, 200);
                let resp = conn.request("POST", "/t/stable/admin/refit", b"").unwrap();
                assert_eq!(resp.status, 200);
                let generation = generation_of(&resp);
                assert!(generation > last_generation, "generation must be monotone");
                last_generation = generation;
            }
        });
        churn.join().unwrap();
        traffic.join().unwrap();
    });

    // The churn never contaminated the stable tenant's data: its window
    // still contains the original grid (plus the traffic thread's
    // near-grid ingests), so the isolate stays the far outlier.
    let after = scores_of(&post(addr, "/t/stable/score", probe).unwrap());
    assert_eq!(baseline.len(), after.len());
    assert!(after[1] > after[0], "the isolate still scores highest");
    // And the churned tenants are gone.
    let resp = get(addr, "/admin/tenants").unwrap();
    assert_eq!(resp.text().unwrap(), "{\"tenants\": [\"stable\"]}\n");
}

#[test]
fn per_tenant_snapshots_write_one_file_per_shard() {
    let dir = std::env::temp_dir().join(format!("mccatch-tenant-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot_path = dir.join("model.mcsn");
    for suffix in ["", ".acme.0", ".acme.1", ".default.0", ".default.manifest"] {
        let _ = std::fs::remove_file(dir.join(format!("model.mcsn{suffix}")));
    }
    let (server, _map) = start_tenants(
        ServerConfig {
            snapshot_path: Some(snapshot_path.clone()),
            ..ServerConfig::default()
        },
        2,
    );
    let addr = server.local_addr();
    let mut conn = Connection::open(addr).unwrap();
    conn.request("PUT", "/admin/tenants/acme", &grid_ndjson(0.0))
        .unwrap();

    // Info before any save: configured but missing.
    assert_eq!(
        get(addr, "/t/acme/admin/snapshot/info").unwrap().status,
        404
    );

    let resp = post(addr, "/t/acme/admin/snapshot", b"").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().unwrap().contains(".acme.*"));
    for shard in 0..2 {
        let path = dir.join(format!("model.mcsn.acme.{shard}"));
        assert!(path.is_file(), "missing shard snapshot {path:?}");
    }
    let info = get(addr, "/t/acme/admin/snapshot/info").unwrap();
    assert_eq!(info.status, 200);
    assert!(info.text().unwrap().contains(".acme.0"));

    // The default tenant persists in the same layout, always as one
    // shard whatever the map's shard count, and never at the bare path.
    let resp = post(addr, "/admin/snapshot", b"").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().unwrap().contains(".default.*"));
    assert!(dir.join("model.mcsn.default.0").is_file());
    assert!(dir.join("model.mcsn.default.manifest").is_file());
    assert!(!dir.join("model.mcsn.default.1").exists());
    assert!(!snapshot_path.exists());
    let info = get(addr, "/admin/snapshot/info").unwrap();
    assert!(info.text().unwrap().contains(".default.0"));

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_expose_tenant_labeled_series_and_queue_gauges() {
    let (server, _map) = start_tenants(ServerConfig::default(), 2);
    let addr = server.local_addr();
    let mut conn = Connection::open(addr).unwrap();
    conn.request("PUT", "/admin/tenants/acme", &grid_ndjson(0.0))
        .unwrap();
    post(addr, "/t/acme/ingest", b"[1.0, 1.0]\n").unwrap();

    let body = get(addr, "/metrics").unwrap().text().unwrap().to_owned();
    // The default tenant's series stay unlabeled (scrape compatibility
    // with single-tenant deployments)…
    assert!(
        body.lines().any(|l| l == "mccatch_model_generation 0"),
        "{body}"
    );
    // …and the named tenant adds labeled series under the same family.
    assert!(body.contains("mccatch_stream_events_ingested_total{tenant=\"acme\"}"));
    assert!(body.contains("mccatch_model_generation{tenant=\"acme\"}"));
    assert!(body.contains("mccatch_index_distance_evals_total{index=\"kd\",tenant=\"acme\"}"));
    assert!(body.contains("mccatch_tenants 1"));
    for shard in 0..2 {
        assert!(
            body.contains(&format!(
                "mccatch_tenant_shard_queue_depth{{tenant=\"acme\",shard=\"{shard}\"}}"
            )),
            "{body}"
        );
    }
    assert!(
        body.contains("mccatch_tenant_shard_ingest_rejected_total{tenant=\"acme\",shard=\"0\"}")
    );
}

#[test]
fn latency_histograms_label_scoped_requests_by_tenant() {
    let (server, _map) = start_tenants(ServerConfig::default(), 2);
    let addr = server.local_addr();
    let mut conn = Connection::open(addr).unwrap();
    conn.request("PUT", "/admin/tenants/acme", &grid_ndjson(0.0))
        .unwrap();
    // One default-tenant score and two scoped ones.
    post(addr, "/score", b"[1.0, 1.0]\n").unwrap();
    post(addr, "/t/acme/score", b"[1.0, 1.0]\n").unwrap();
    post(addr, "/t/acme/score", b"[2.0, 2.0]\n").unwrap();

    let body = get(addr, "/metrics").unwrap().text().unwrap().to_owned();
    // Default series keep the single-tenant shape (endpoint label only)…
    assert!(
        body.lines()
            .any(|l| l == "mccatch_request_duration_seconds_count{endpoint=\"score\"} 1"),
        "{body}"
    );
    // …and the scoped requests land in tenant-labeled series of the
    // same family, not in the default one.
    assert!(
        body.contains(
            "mccatch_request_duration_seconds_count{endpoint=\"score\",tenant=\"acme\"} 2"
        ),
        "{body}"
    );
    assert!(
        body.contains("mccatch_request_duration_seconds_bucket{endpoint=\"score\",tenant=\"acme\",le=\"+Inf\"} 2"),
        "{body}"
    );
    // Per-line histograms are process-wide: three lines total.
    assert!(
        body.contains("mccatch_line_duration_seconds_count{endpoint=\"score\"} 3"),
        "{body}"
    );
}
