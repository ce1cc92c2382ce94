//! Snapshot codec cost on the http-10k model, across all four index
//! backends: how long a save takes, how many bytes it produces, and how
//! long a verified load (header + points + full refit + bit-compare
//! against the stored witness) takes to rebuild a serving model.
//!
//! Save is pure serialization — microseconds, dominated by the point
//! payload. Load deliberately re-fits (that is the determinism
//! verification), so its cost tracks the backend's fit cost; the
//! interesting comparison is load-vs-fit overhead, which should be
//! serialization noise.
//!
//! Besides the criterion timings, a fixed headline run per backend
//! prints save/load summary lines and appends machine-readable results
//! to `BENCH_persist.json` at the workspace root, so the perf
//! trajectory accumulates across sessions. A tenant-restore headline
//! (two tenants × two shards, snapshot set + manifest + replay logs →
//! `TenantMap::restore_tenants`) rides along as its own JSON row.

use criterion::{criterion_group, criterion_main, Criterion};
use mccatch_bench::append_bench_line;
use mccatch_core::{McCatch, Model};
use mccatch_data::http;
use mccatch_index::{
    BruteForceBuilder, IndexBuilder, KdTreeBuilder, SlimTreeBuilder, VpTreeBuilder,
};
use mccatch_metric::{Euclidean, Metric};
use mccatch_persist::{load_model, save_model, FsyncPolicy};
use mccatch_stream::{RefitPolicy, StreamConfig};
use mccatch_tenant::{ReplaySpec, TenantMap, TenantSpec};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 10_000;

fn points() -> Vec<Vec<f64>> {
    http(N, 1).points
}

/// Fits the http-10k model on one backend and erases it for the codec.
fn fitted<B>(builder: B) -> Arc<dyn Model<Vec<f64>>>
where
    B: IndexBuilder<Vec<f64>, Euclidean> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    McCatch::builder()
        .build()
        .expect("defaults are valid")
        .fit(points(), Euclidean, builder)
        .expect("http-10k fits")
        .into_model()
}

/// One headline save + verified load, wall-clock timed.
fn headline<M, B>(model: &dyn Model<Vec<f64>>, metric: M, builder: B) -> (Duration, Duration, u64)
where
    M: Metric<Vec<f64>> + 'static,
    B: IndexBuilder<Vec<f64>, M> + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    // Warm the model's lazily-computed stats (outlier/microcluster
    // counts) so the save number measures serialization, not the first
    // detection pass.
    let _ = black_box(model.stats());
    let t0 = Instant::now();
    let mut buf = Vec::new();
    let bytes = save_model(model, 0, N as u64, &mut buf).expect("exportable model");
    let save = t0.elapsed();
    let t0 = Instant::now();
    let loaded = load_model(buf.as_slice(), metric, builder).expect("verified load");
    let load = t0.elapsed();
    assert_eq!(loaded.fitted.stats().num_points, N);
    (save, load, bytes)
}

/// Appends the headline codec numbers, one object per run.
fn emit_json(rows: &[(&str, Duration, Duration, u64)]) {
    let backends: Vec<String> = rows
        .iter()
        .map(|(name, save, load, bytes)| {
            format!(
                "\"{name}\": {{\"save_ms\": {:.3}, \"load_ms\": {:.1}, \"bytes\": {bytes}}}",
                save.as_secs_f64() * 1e3,
                load.as_secs_f64() * 1e3,
            )
        })
        .collect();
    append_bench_line(
        "BENCH_persist.json",
        &format!(
            "{{\"bench\": \"persist_codec\", \"workload\": \"http-10k\", \"points\": {N}, {}}}",
            backends.join(", ")
        ),
    );
}

/// Headline tenant restore: two tenants × two kd shards on http-10k,
/// snapshotted (per-shard files + manifest + replay-log rotation) and
/// rebuilt through `TenantMap::restore_tenants` — the boot-time warm
/// restart of a whole fleet, wall-clock timed.
fn tenant_restore_headline() {
    const TENANTS: usize = 2;
    const SHARDS: usize = 2;
    let dir = std::env::temp_dir().join(format!("mccatch-bench-tenant-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let snap = dir.join("model.mcsn");
    let spec = TenantSpec {
        shards: SHARDS,
        stream: StreamConfig {
            capacity: 8192,
            policy: RefitPolicy::Manual,
            ..StreamConfig::default()
        },
        replay: Some(ReplaySpec {
            base: dir.join("ingest.ndjson"),
            fsync: FsyncPolicy::Never,
        }),
        ..TenantSpec::default()
    };
    let map: TenantMap<Vec<f64>, Euclidean, KdTreeBuilder> = TenantMap::new(
        McCatch::builder().build().expect("defaults are valid"),
        Euclidean,
        KdTreeBuilder::default(),
        spec.clone(),
    )
    .expect("spec is valid");
    for name in ["a", "b"].iter().take(TENANTS) {
        map.create_seeded(name, points()).expect("seeded tenant");
    }

    let t0 = Instant::now();
    let mut bytes = 0;
    for name in ["a", "b"].iter().take(TENANTS) {
        let stats = map
            .get(name)
            .expect("tenant exists")
            .save_snapshot(&snap)
            .expect("snapshot");
        bytes += stats.bytes;
    }
    let save = t0.elapsed();
    drop(map);

    let map: TenantMap<Vec<f64>, Euclidean, KdTreeBuilder> = TenantMap::new(
        McCatch::builder().build().expect("defaults are valid"),
        Euclidean,
        KdTreeBuilder::default(),
        spec,
    )
    .expect("spec is valid");
    let t0 = Instant::now();
    let restored = map.restore_tenants(&snap).expect("restore");
    let restore = t0.elapsed();
    assert_eq!(restored.len(), TENANTS);
    let replayed: u64 = restored.iter().map(|t| t.stats.replayed_events).sum();

    println!(
        "persist_http10k/tenant_restore_{TENANTS}x{SHARDS}: save {:.1} ms, restore {:.1} ms, \
         {bytes} bytes, {replayed} replayed events",
        save.as_secs_f64() * 1e3,
        restore.as_secs_f64() * 1e3,
    );
    append_bench_line(
        "BENCH_persist.json",
        &format!(
            "{{\"bench\": \"persist_tenant_restore\", \"workload\": \"http-10k\", \
         \"tenants\": {TENANTS}, \"shards\": {SHARDS}, \"save_ms\": {:.1}, \
         \"restore_ms\": {:.1}, \"bytes\": {bytes}, \"replayed_events\": {replayed}}}",
            save.as_secs_f64() * 1e3,
            restore.as_secs_f64() * 1e3,
        ),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_persist_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist_http10k");
    group.sample_size(10);

    // Criterion loops: save on every backend (serialization only, the
    // backend affects just the name in the header), verified load on
    // the kd fast path (the other backends' loads are dominated by
    // their fit cost — see the headline rows).
    let kd_model = fitted(KdTreeBuilder::default());
    group.bench_function("save_kd", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(256 * 1024);
            save_model(black_box(kd_model.as_ref()), 0, N as u64, &mut buf).unwrap();
            black_box(buf)
        })
    });
    let mut snapshot = Vec::new();
    save_model(kd_model.as_ref(), 0, N as u64, &mut snapshot).unwrap();
    group.bench_function("load_verified_kd", |b| {
        b.iter(|| {
            black_box(
                load_model::<Vec<f64>, _, _, _>(
                    snapshot.as_slice(),
                    Euclidean,
                    KdTreeBuilder::default(),
                )
                .unwrap(),
            )
        })
    });
    group.finish();

    // Headline: one timed save + verified load per backend.
    let mut rows = Vec::new();
    let (save, load, bytes) = headline(kd_model.as_ref(), Euclidean, KdTreeBuilder::default());
    rows.push(("kd", save, load, bytes));
    let model = fitted(VpTreeBuilder::default());
    let (save, load, bytes) = headline(model.as_ref(), Euclidean, VpTreeBuilder::default());
    rows.push(("vp", save, load, bytes));
    let model = fitted(SlimTreeBuilder::default());
    let (save, load, bytes) = headline(model.as_ref(), Euclidean, SlimTreeBuilder::default());
    rows.push(("slim", save, load, bytes));
    let model = fitted(BruteForceBuilder);
    let (save, load, bytes) = headline(model.as_ref(), Euclidean, BruteForceBuilder);
    rows.push(("brute", save, load, bytes));
    for (name, save, load, bytes) in &rows {
        println!(
            "persist_http10k/{name}: save {:.3} ms, verified load {:.1} ms, {bytes} bytes",
            save.as_secs_f64() * 1e3,
            load.as_secs_f64() * 1e3,
        );
    }
    emit_json(&rows);
    tenant_restore_headline();
}

criterion_group!(benches, bench_persist_codec);
criterion_main!(benches);
