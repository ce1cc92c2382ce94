//! The kill-and-restart contract, end to end over real sockets: a
//! server with persistence configured is snapshotted, shut down, and
//! rebuilt from the snapshot sets plus the ingest replay logs — and the
//! new process serves byte-identical `/score` responses at the restored
//! generation, with the stream position and sliding window continuing
//! where the old process stopped. The default tenant behind the bare
//! endpoints and the named tenants share one layout and one restore
//! path.

use mccatch_core::McCatch;
use mccatch_index::KdTreeBuilder;
use mccatch_metric::Euclidean;
use mccatch_persist::{FsyncPolicy, ReplayReader};
use mccatch_server::client::{get, post, Connection};
use mccatch_server::{ndjson, serve, ServerConfig};
use mccatch_stream::{RefitPolicy, StreamConfig};
use mccatch_tenant::{
    shard_file_path, ReplaySpec, TenantMap, TenantPersistError, TenantSpec, DEFAULT_TENANT,
};
use std::path::Path;
use std::sync::Arc;

fn grid(shift: f64) -> Vec<Vec<f64>> {
    let mut pts: Vec<Vec<f64>> = (0..100)
        .map(|i| vec![(i % 10) as f64 + shift, (i / 10) as f64])
        .collect();
    pts.push(vec![500.0 + shift, 500.0]);
    pts
}

fn ndjson_body(points: &[Vec<f64>]) -> String {
    points
        .iter()
        .map(|p| format!("[{}, {}]\n", p[0], p[1]))
        .collect()
}

fn seq_of(line: &str) -> u64 {
    line.split("\"seq\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .unwrap_or_else(|| panic!("no seq in {line:?}"))
        .parse()
        .unwrap()
}

type VecTenants = TenantMap<Vec<f64>, Euclidean, KdTreeBuilder>;

fn tenant_spec(shards: usize, log: &Path) -> TenantSpec {
    tenant_spec_with_capacity(shards, 64, log)
}

fn tenant_spec_with_capacity(shards: usize, capacity: usize, log: &Path) -> TenantSpec {
    TenantSpec {
        shards,
        stream: StreamConfig {
            capacity,
            policy: RefitPolicy::Manual,
            ..StreamConfig::default()
        },
        ingest_queue: 1024,
        // fsync-per-event: the logs on disk are exactly what a `kill -9`
        // would leave behind.
        replay: Some(ReplaySpec {
            base: log.to_path_buf(),
            fsync: FsyncPolicy::Always,
        }),
    }
}

fn tenant_map(spec: TenantSpec) -> Arc<VecTenants> {
    Arc::new(
        TenantMap::new(
            McCatch::builder().build().unwrap(),
            Euclidean,
            KdTreeBuilder::default(),
            spec,
        )
        .unwrap(),
    )
}

fn logged_points(log: &Path) -> Vec<Vec<f64>> {
    ReplayReader::open(log)
        .unwrap()
        .read_all::<Vec<f64>>()
        .unwrap()
        .into_iter()
        .map(|e| e.point)
        .collect()
}

#[test]
fn kill_and_restart_serves_byte_identical_scores() {
    let dir = std::env::temp_dir().join(format!("mccatch-warm-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot_path = dir.join("model.mcsn");
    let replay_log = dir.join("ingest.ndjson");
    let default_log = shard_file_path(&replay_log, DEFAULT_TENANT, 0);
    // Two shards per named tenant: the default tenant has one anyway.
    let spec = tenant_spec_with_capacity(2, 101, &replay_log);
    let server_config = ServerConfig {
        snapshot_path: Some(snapshot_path.clone()),
        ..ServerConfig::default()
    };

    // ---- First life: ingest traffic, refit, snapshot, die. ----
    let map = tenant_map(spec.clone());
    let default = map.create_default(grid(0.0)).unwrap();
    assert_eq!(default.shards(), 1);
    let server = serve(
        "127.0.0.1:0",
        server_config.clone(),
        default,
        map,
        ndjson::vector_parser(Some(2)),
        "kd",
    )
    .unwrap();
    let addr = server.local_addr();

    // The shifted grid displaces the seed completely (capacity == batch
    // size), and every accepted event lands in the replay log after the
    // seed window it started with.
    let traffic = grid(3000.0);
    let ingested = post(addr, "/ingest", ndjson_body(&traffic).as_bytes()).unwrap();
    assert_eq!(ingested.status, 200);
    let last_seq = ingested.text().unwrap().lines().map(seq_of).max().unwrap();
    assert_eq!(
        logged_points(&default_log),
        [grid(0.0), traffic.clone()].concat()
    );

    let refit = post(addr, "/admin/refit", b"").unwrap();
    assert_eq!(refit.header("x-mccatch-generation"), Some("1"));

    let score_body = "[3004.5, 4.5]\n[4.5, 4.5]\n[-777.0, 12.0]\n";
    let before = post(addr, "/score", score_body.as_bytes()).unwrap();
    assert_eq!(before.header("x-mccatch-generation"), Some("1"));
    let baseline = before.text().unwrap();

    let snapped = post(addr, "/admin/snapshot", b"").unwrap();
    assert_eq!(snapped.status, 200);
    assert!(snapped.text().unwrap().contains("model.mcsn.default.*"));
    assert!(shard_file_path(&snapshot_path, DEFAULT_TENANT, 0).is_file());
    assert!(
        !snapshot_path.exists(),
        "nothing is written at the bare path"
    );
    // The snapshot rotated the default tenant's log down to the window:
    // the seed events it held are gone, so the log cannot grow without
    // bound across snapshots.
    assert_eq!(logged_points(&default_log), traffic);
    server.shutdown();

    // ---- Second life: snapshot set + replay log -> a new process. ----
    let map = tenant_map(spec);
    assert!(
        map.restore_tenants(&snapshot_path).unwrap().is_empty(),
        "the default tenant's set is not a named tenant"
    );
    let restored = map.restore_default(&snapshot_path).unwrap();
    let stats = restored.restore_stats().unwrap();
    assert_eq!((stats.shards, stats.generation), (1, 1));
    assert_eq!(stats.replayed_events, traffic.len() as u64);
    let server = serve(
        "127.0.0.1:0",
        server_config,
        Arc::clone(&restored),
        map,
        ndjson::vector_parser(Some(2)),
        "kd",
    )
    .unwrap();
    let addr = server.local_addr();

    // Byte-identical scoring at the restored generation.
    let after = post(addr, "/score", score_body.as_bytes()).unwrap();
    assert_eq!(after.header("x-mccatch-generation"), Some("1"));
    assert_eq!(
        after.text().unwrap(),
        baseline,
        "scores changed across restart"
    );
    let metrics = get(addr, "/metrics").unwrap();
    let metrics = metrics.text().unwrap();
    assert!(metrics.contains("mccatch_model_generation 1"), "{metrics}");
    assert!(metrics.contains("mccatch_tenants 0"), "{metrics}");

    // The stream position continues instead of restarting: the next
    // accepted event takes the next sequence number.
    let next = post(addr, "/ingest", b"[3004.0, 4.0]\n").unwrap();
    let next_seq = next.text().unwrap().lines().map(seq_of).next().unwrap();
    assert_eq!(next_seq, last_seq + 1);

    // And the replayed window is the real one: it holds exactly the
    // first life's traffic (shifted one slot by the event above — the
    // window was already at capacity, so the oldest replayed event was
    // evicted to admit it).
    server.shutdown();
    let window = restored.shard_detector(0).unwrap().window_points();
    assert_eq!(window.len(), 101);
    assert_eq!(window[..100], traffic[1..]);
    assert_eq!(window[100], vec![3004.0, 4.0]);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The default tenant's 1-shard set lives next to the named tenants'
/// sets under one base path: its name is reserved over the wire, it
/// never lists as a named tenant, and a 2-shard map's `restore_tenants`
/// skips it instead of failing on its shard count.
#[test]
fn the_default_name_is_reserved_and_restore_tenants_skips_its_set() {
    let dir = std::env::temp_dir().join(format!("mccatch-default-set-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("model.mcsn");
    let log = dir.join("ingest.ndjson");

    let map = tenant_map(tenant_spec(2, &log));
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            snapshot_path: Some(snap.clone()),
            ..ServerConfig::default()
        },
        map.create_default(grid(0.0)).unwrap(),
        Arc::clone(&map),
        ndjson::vector_parser(Some(2)),
        "kd",
    )
    .unwrap();
    let addr = server.local_addr();
    let mut conn = Connection::open(addr).unwrap();
    let resp = conn.request("PUT", "/admin/tenants/default", b"").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().unwrap().contains("reserved"));
    let seed = ndjson_body(&grid(1000.0));
    let resp = conn
        .request("PUT", "/admin/tenants/acme", seed.as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200);
    let listed = conn.request("GET", "/admin/tenants", b"").unwrap();
    assert_eq!(listed.text().unwrap(), "{\"tenants\": [\"acme\"]}\n");
    assert_eq!(
        post(addr, "/t/acme/admin/snapshot", b"").unwrap().status,
        200
    );
    assert_eq!(post(addr, "/admin/snapshot", b"").unwrap().status, 200);
    server.shutdown();
    drop(map);

    let map = tenant_map(tenant_spec(2, &log));
    let restored = map.restore_tenants(&snap).unwrap();
    assert_eq!(
        restored.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(),
        ["acme"]
    );
    assert_eq!(restored[0].stats.shards, 2);
    assert_eq!(map.names(), ["acme"]);
    assert_eq!(map.restore_default(&snap).unwrap().shards(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Multi-tenant warm restart: the whole fleet survives a hard kill.
// ---------------------------------------------------------------------

/// Two tenants × two shards with distinct windows, snapshotted, then
/// hard-killed mid-stream: a fresh process restores the whole fleet
/// from `{snap}.{tenant}.{shard}` + `{log}.{tenant}.{shard}` and serves
/// byte-identical `/t/{tenant}/score` responses at the resumed
/// generation, with every tenant's stream position continuing.
#[test]
fn multi_tenant_kill_and_restart_serves_byte_identical_scores() {
    let dir = std::env::temp_dir().join(format!("mccatch-tenant-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("model.mcsn");
    let log = dir.join("ingest.ndjson");
    let server_config = ServerConfig {
        snapshot_path: Some(snap.clone()),
        ..ServerConfig::default()
    };

    // ---- First life: two tenants with distinct windows. ----
    let map = tenant_map(tenant_spec(2, &log));
    let server = serve(
        "127.0.0.1:0",
        server_config.clone(),
        map.create_default(grid(0.0)).unwrap(),
        Arc::clone(&map),
        ndjson::vector_parser(Some(2)),
        "kd",
    )
    .unwrap();
    let addr = server.local_addr();
    let mut conn = Connection::open(addr).unwrap();
    for (tenant, shift) in [("acme", 1000.0), ("beta", 2000.0)] {
        let body: String = grid(shift)
            .iter()
            .map(|p| format!("[{}, {}]\n", p[0], p[1]))
            .collect();
        let resp = conn
            .request("PUT", &format!("/admin/tenants/{tenant}"), body.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 200);
        let refit = post(addr, &format!("/t/{tenant}/admin/refit"), b"").unwrap();
        assert_eq!(refit.status, 200);
        let snapped = post(addr, &format!("/t/{tenant}/admin/snapshot"), b"").unwrap();
        assert_eq!(snapped.status, 200);
    }

    // Post-snapshot traffic lives only in the per-tenant replay logs.
    let mut last_seq = Vec::new();
    for (tenant, shift) in [("acme", 1000.0), ("beta", 2000.0)] {
        let tail = format!("[{}, {}]\n", 4.25 + shift, 4.25);
        let resp = post(addr, &format!("/t/{tenant}/ingest"), tail.as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
        last_seq.push(seq_of(resp.text().unwrap().lines().next().unwrap()));
    }

    let score_body = "[1004.5, 4.5]\n[2004.5, 4.5]\n[-777.0, 12.0]\n";
    let mut baselines = Vec::new();
    for tenant in ["acme", "beta"] {
        let resp = post(addr, &format!("/t/{tenant}/score"), score_body.as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
        baselines.push((
            resp.header("x-mccatch-generation").unwrap().to_owned(),
            resp.text().unwrap().to_owned(),
        ));
    }
    // "kill -9": no orderly checkpoint — only the snapshots taken above
    // and the fsynced replay logs survive.
    server.shutdown();
    drop(map);

    // ---- Second life: rediscover and restore the whole fleet. ----
    let map = tenant_map(tenant_spec(2, &log));
    let mut restored = map.restore_tenants(&snap).unwrap();
    restored.sort_by(|a, b| a.name.cmp(&b.name));
    assert_eq!(
        restored.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(),
        ["acme", "beta"]
    );
    for t in &restored {
        assert_eq!(t.stats.shards, 2);
        assert!(t.stats.replayed_events > 0, "{t:?}");
        assert_eq!(t.stats.generation, 2, "two shards refit once each");
    }
    let server = serve(
        "127.0.0.1:0",
        server_config,
        map.create_default(grid(0.0)).unwrap(),
        Arc::clone(&map),
        ndjson::vector_parser(Some(2)),
        "kd",
    )
    .unwrap();
    let addr = server.local_addr();

    for (tenant, (generation, baseline)) in ["acme", "beta"].iter().zip(&baselines) {
        let resp = post(addr, &format!("/t/{tenant}/score"), score_body.as_bytes()).unwrap();
        assert_eq!(
            resp.header("x-mccatch-generation"),
            Some(generation.as_str())
        );
        assert_eq!(
            &resp.text().unwrap(),
            baseline,
            "tenant {tenant} scores changed across restart"
        );
    }

    // Each tenant's stream position continues: re-ingesting the same
    // point routes to the same shard and takes the next seq.
    for ((tenant, shift), last) in [("acme", 1000.0), ("beta", 2000.0)].iter().zip(&last_seq) {
        let tail = format!("[{}, {}]\n", 4.25 + shift, 4.25);
        let resp = post(addr, &format!("/t/{tenant}/ingest"), tail.as_bytes()).unwrap();
        let seq = seq_of(resp.text().unwrap().lines().next().unwrap());
        assert_eq!(seq, last + 1, "tenant {tenant} seq restarted");
    }

    // The restore counters are exported per tenant.
    let metrics = get(addr, "/metrics").unwrap();
    let metrics = metrics.text().unwrap();
    for tenant in ["acme", "beta"] {
        assert!(
            metrics.contains(&format!(
                "mccatch_tenant_restored_shards{{tenant=\"{tenant}\"}} 2"
            )),
            "{metrics}"
        );
        assert!(
            metrics.contains(&format!(
                "mccatch_tenant_restore_generation{{tenant=\"{tenant}\"}} 2"
            )),
            "{metrics}"
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds a 2-shard tenant `t`, snapshots it, and returns the scratch
/// dir — the raw material the negative restore tests corrupt.
fn snapshotted_tenant(tag: &str) -> (std::path::PathBuf, Arc<VecTenants>) {
    let dir = std::env::temp_dir().join(format!(
        "mccatch-tenant-restore-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = tenant_spec(2, &dir.join("ingest.ndjson"));
    let map = tenant_map(spec.clone());
    let tenant = map.create_seeded("t", grid(0.0)).unwrap();
    tenant.refit_now().unwrap();
    tenant.save_snapshot(&dir.join("model.mcsn")).unwrap();
    drop(tenant);
    drop(map);
    (dir, tenant_map(spec))
}

/// A manifest-certified shard file that vanished is a typed
/// [`TenantPersistError::MissingShard`] — never a panic, and nothing is
/// registered in the map.
#[test]
fn missing_shard_file_restore_is_a_typed_error() {
    let (dir, map) = snapshotted_tenant("missing-shard");
    let snap = dir.join("model.mcsn");
    std::fs::remove_file(shard_file_path(&snap, "t", 1)).unwrap();

    let err = map.restore_tenants(&snap).unwrap_err();
    assert!(
        matches!(
            err,
            TenantPersistError::MissingShard {
                ref tenant,
                shard: 1,
                ..
            } if tenant == "t"
        ),
        "{err}"
    );
    assert!(map.get("t").is_none(), "failed restore must not register");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard file whose bytes disagree with the manifest CRC (torn or
/// mixed snapshot set) is a typed [`TenantPersistError::CrcMismatch`].
#[test]
fn corrupt_shard_file_restore_is_a_typed_error() {
    let (dir, map) = snapshotted_tenant("corrupt-shard");
    let snap = dir.join("model.mcsn");
    let shard0 = shard_file_path(&snap, "t", 0);
    let bytes = std::fs::read(&shard0).unwrap();
    std::fs::write(&shard0, &bytes[..bytes.len() - 7]).unwrap();

    let err = map.restore_tenants(&snap).unwrap_err();
    assert!(
        matches!(
            err,
            TenantPersistError::CrcMismatch {
                ref tenant,
                shard: 0,
                ..
            } if tenant == "t"
        ),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shard files without their manifest are a partial snapshot — a crash
/// landed between the shard writes and the manifest commit — and must
/// be refused with [`TenantPersistError::MissingManifest`].
#[test]
fn missing_manifest_restore_is_a_typed_partial_snapshot_error() {
    let (dir, map) = snapshotted_tenant("missing-manifest");
    let snap = dir.join("model.mcsn");
    std::fs::remove_file(mccatch_tenant::tenant_manifest_path(&snap, "t")).unwrap();

    let err = map.restore_tenants(&snap).unwrap_err();
    assert!(
        matches!(
            err,
            TenantPersistError::MissingManifest { ref tenant, .. } if tenant == "t"
        ),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replay log whose final line was torn mid-write by the kill is
/// tolerated: the restore succeeds and serves the checkpointed state
/// bit-identically, dropping only the torn event.
#[test]
fn torn_final_replay_line_is_tolerated() {
    let (dir, map) = snapshotted_tenant("torn-log");
    let snap = dir.join("model.mcsn");
    let log0 = shard_file_path(&dir.join("ingest.ndjson"), "t", 0);
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&log0)
        .unwrap();
    f.write_all(b"{\"seq\": 999, \"tick\": 4, \"point").unwrap();
    drop(f);

    let restored = map.restore_tenants(&snap).unwrap();
    assert_eq!(restored.len(), 1);
    let twin = map.get("t").unwrap();
    let queries = [vec![4.5, 4.5], vec![500.0, 500.0], vec![-3.0, 9.0]];
    // Rebuild an uncorrupted twin to compare against.
    let (clean_dir, clean_map) = snapshotted_tenant("torn-log-clean");
    clean_map
        .restore_tenants(&clean_dir.join("model.mcsn"))
        .unwrap();
    let clean = clean_map.get("t").unwrap();
    for q in &queries {
        assert_eq!(twin.score(q).to_bits(), clean.score(q).to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}
