//! The tenant persistence gate: snapshot → restore of a K-shard tenant
//! is **bit-identical** to the live tenant.
//!
//! For random seeds and ingest streams, `Tenant::save_snapshot` →
//! `TenantMap::restore_tenants` must reproduce the exact serving state:
//! same ensemble score bits on fresh queries, same per-shard
//! generations, same per-shard window contents — including events that
//! landed *after* the snapshot and therefore only survive through the
//! per-shard replay logs. Checked for K ∈ {1, 2, 4} on every index
//! backend, for both `Vec<f64>` and `String` points.

use mccatch_core::McCatch;
use mccatch_index::{BruteForceBuilder, IndexBuilder, KdTreeBuilder, SlimTreeBuilder};
use mccatch_metric::{Euclidean, Levenshtein, Metric};
use mccatch_persist::{FsyncPolicy, PersistPoint};
use mccatch_stream::{RefitPolicy, StreamConfig};
use mccatch_tenant::{ReplaySpec, RouteKey, TenantMap, TenantSpec};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh scratch directory per round trip, so concurrent proptest
/// cases never collide on snapshot or log files.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mccatch-tenant-roundtrip-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn spec(shards: usize, log: PathBuf) -> TenantSpec {
    TenantSpec {
        shards,
        stream: StreamConfig {
            capacity: 32,
            policy: RefitPolicy::Manual,
            ..StreamConfig::default()
        },
        replay: Some(ReplaySpec {
            base: log,
            fsync: FsyncPolicy::Never,
        }),
        ..TenantSpec::default()
    }
}

/// Live tenant vs. its restored twin: seed → ingest → refit → snapshot
/// → ingest more (replay-log only) → restore into a fresh map, then
/// demand bit-identical scores and identical per-shard state.
fn assert_tenant_round_trip<P, M, B>(
    metric: M,
    builder: B,
    shards: usize,
    seed: &[P],
    mid: &[P],
    post: &[P],
    queries: &[P],
) -> Result<(), TestCaseError>
where
    P: RouteKey + PersistPoint + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    let dir = scratch_dir();
    let snap = dir.join("model.snap");
    let log = dir.join("ingest.ndjson");

    let detector = McCatch::builder().build().expect("defaults are valid");
    let live_map = TenantMap::new(
        detector.clone(),
        metric.clone(),
        builder.clone(),
        spec(shards, log.clone()),
    )
    .expect("spec is valid");
    let live = live_map
        .create_seeded("t", seed.to_vec())
        .expect("create_seeded");
    for p in mid {
        live.ingest(p.clone()).expect("ingest");
    }
    live.refit_now().expect("refit");
    live.save_snapshot(&snap).expect("save_snapshot");
    // These events exist only in the rotated replay logs — restoring
    // them proves the log path, not just the snapshot path.
    for p in post {
        live.ingest(p.clone()).expect("ingest after snapshot");
    }

    let expected_scores: Vec<u64> = queries.iter().map(|q| live.score(q).to_bits()).collect();
    let expected_shards: Vec<(u64, Vec<P>)> = (0..shards)
        .map(|s| {
            let d = live.shard_detector(s).expect("shard");
            (d.generation(), d.window_points())
        })
        .collect();
    drop(live);
    drop(live_map);

    let restored_map =
        TenantMap::new(detector, metric, builder, spec(shards, log)).expect("spec is valid");
    let restored = restored_map
        .restore_tenants(&snap)
        .expect("restore_tenants");
    prop_assert_eq!(restored.len(), 1);
    prop_assert_eq!(restored[0].name.as_str(), "t");
    prop_assert_eq!(restored[0].stats.shards, shards);

    let twin = restored_map.get("t").expect("restored tenant registered");
    prop_assert_eq!(twin.restore_stats(), Some(restored[0].stats));
    let got_scores: Vec<u64> = queries.iter().map(|q| twin.score(q).to_bits()).collect();
    prop_assert_eq!(got_scores, expected_scores);
    for (s, (generation, window)) in expected_shards.iter().enumerate() {
        let d = twin.shard_detector(s).expect("shard");
        prop_assert_eq!(d.generation(), *generation);
        prop_assert_eq!(&d.window_points(), window);
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// `(seed, mid-stream ingest, post-snapshot ingest, queries)`.
type Streams<P> = (Vec<P>, Vec<P>, Vec<P>, Vec<P>);

fn vector_streams() -> impl Strategy<Value = Streams<Vec<f64>>> {
    let point = prop::collection::vec(-100.0..100.0f64, 3);
    (
        prop::collection::vec(point.clone(), 24..48),
        prop::collection::vec(point.clone(), 4..12),
        prop::collection::vec(point.clone(), 1..8),
        prop::collection::vec(point, 1..6),
    )
}

fn string_streams() -> impl Strategy<Value = Streams<String>> {
    let word = "[a-d]{2,8}";
    (
        prop::collection::vec(word, 24..48),
        prop::collection::vec(word, 4..12),
        prop::collection::vec(word, 1..8),
        prop::collection::vec(word, 1..6),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn vector_tenants_restore_bit_identically_on_all_backends(
        (seed, mid, post, queries) in vector_streams(),
        shards in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
    ) {
        assert_tenant_round_trip(
            Euclidean, BruteForceBuilder, shards, &seed, &mid, &post, &queries,
        )?;
        assert_tenant_round_trip(
            Euclidean, KdTreeBuilder::default(), shards, &seed, &mid, &post, &queries,
        )?;
        assert_tenant_round_trip(
            Euclidean, SlimTreeBuilder::default(), shards, &seed, &mid, &post, &queries,
        )?;
    }

    #[test]
    fn string_tenants_restore_bit_identically(
        (seed, mid, post, queries) in string_streams(),
        shards in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
    ) {
        // Every metric-only backend; the kd-tree is Euclidean-only and
        // cannot index string points.
        assert_tenant_round_trip(
            Levenshtein, BruteForceBuilder, shards, &seed, &mid, &post, &queries,
        )?;
        assert_tenant_round_trip(
            Levenshtein, SlimTreeBuilder::default(), shards, &seed, &mid, &post, &queries,
        )?;
    }
}
