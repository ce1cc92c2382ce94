//! The persistence correctness gate: a snapshot round trip is
//! **bit-identical** on every index backend.
//!
//! For random datasets, `save_model` → `load_model` must reproduce the
//! exact fitted model: same `ModelStats` to the bit, same radius grid,
//! same `score_batch` bits on fresh queries, same `top_k`, same
//! `score_cutoff`. The same contract is property-checked for the
//! serving-store and streaming-detector glue, including window recovery
//! through the replay log.

use mccatch_core::{McCatch, McCatchOutput, Microcluster, Model, ModelExport, ModelStats, Params};
use mccatch_index::{BruteForceBuilder, IndexBuilder, KdTreeBuilder, SlimTreeBuilder};
use mccatch_metric::{Euclidean, Levenshtein};
use mccatch_persist::{
    load_model, load_store, read_info, restore_stream, save_model, save_store, FsyncPolicy,
    PersistError, ReplayReader, ReplayWriter,
};
use mccatch_stream::{RefitPolicy, StreamConfig, StreamDetector};
use proptest::prelude::*;

fn datasets() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<f64>>)> {
    let point = prop::collection::vec(-100.0..100.0f64, 3);
    (
        prop::collection::vec(point.clone(), 8..80),
        prop::collection::vec(point, 1..10),
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_stats_bit_equal(a: &ModelStats, b: &ModelStats) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.num_points, b.num_points);
    prop_assert_eq!(a.diameter.to_bits(), b.diameter.to_bits());
    prop_assert_eq!(a.num_radii, b.num_radii);
    prop_assert_eq!(a.cutoff_d.to_bits(), b.cutoff_d.to_bits());
    prop_assert_eq!(a.num_outliers, b.num_outliers);
    prop_assert_eq!(a.num_microclusters, b.num_microclusters);
    prop_assert_eq!(a.distance_evals, b.distance_evals);
    prop_assert_eq!(a.degenerate, b.degenerate);
    Ok(())
}

/// Fit → save → load on one backend; every observable output must come
/// back bit-identical.
fn assert_round_trip<B>(
    builder: B,
    points: &[Vec<f64>],
    queries: &[Vec<f64>],
) -> Result<(), TestCaseError>
where
    B: IndexBuilder<Vec<f64>, Euclidean> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    let fitted = McCatch::new(Params::default())
        .expect("defaults are valid")
        .fit(points.to_vec(), Euclidean, builder.clone())
        .expect("fit");

    let mut buf = Vec::new();
    let bytes = save_model(&fitted, 3, 41, &mut buf).expect("save");
    prop_assert_eq!(bytes as usize, buf.len());

    let info = read_info(&buf[..]).expect("info");
    prop_assert_eq!(info.num_points as usize, points.len());
    prop_assert_eq!(info.generation, 3);
    prop_assert_eq!(info.seq, 41);
    prop_assert_eq!(&info.backend, builder.backend_name());

    let loaded = load_model(&buf[..], Euclidean, builder).expect("load");
    prop_assert_eq!(loaded.generation, 3);
    prop_assert_eq!(loaded.seq, 41);

    assert_stats_bit_equal(&fitted.stats(), &loaded.fitted.stats())?;
    prop_assert_eq!(
        bits(&fitted.score_batch(queries)),
        bits(&loaded.fitted.score_batch(queries))
    );
    prop_assert_eq!(
        fitted.score_cutoff().to_bits(),
        loaded.fitted.score_cutoff().to_bits()
    );
    prop_assert_eq!(fitted.top_k(5), loaded.fitted.top_k(5));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn round_trip_is_bit_identical_on_all_backends((points, queries) in datasets()) {
        assert_round_trip(BruteForceBuilder, &points, &queries)?;
        assert_round_trip(KdTreeBuilder::default(), &points, &queries)?;
        assert_round_trip(SlimTreeBuilder::default(), &points, &queries)?;
    }

    #[test]
    fn store_round_trip_resumes_generation_and_seq((points, queries) in datasets()) {
        let fitted = McCatch::new(Params::default()).unwrap()
            .fit(points, Euclidean, SlimTreeBuilder::default()).unwrap();
        let expected = bits(&fitted.score_batch(&queries));
        let store = mccatch_core::ModelStore::with_generation(fitted.into_model(), 9);

        let mut buf = Vec::new();
        save_store(&store, 1234, &mut buf).expect("save_store");
        let loaded = load_store(&buf[..], Euclidean, SlimTreeBuilder::default())
            .expect("load_store");
        prop_assert_eq!(loaded.store.generation(), 9);
        prop_assert_eq!(loaded.seq, 1234);
        prop_assert_eq!(bits(&loaded.store.score_batch(&queries)), expected);
    }
}

#[test]
fn string_models_round_trip_bit_identically() {
    let data = mccatch_data::fingerprints(40, 6, 7).points;
    let fitted = McCatch::new(Params::default())
        .unwrap()
        .fit(data.clone(), Levenshtein, BruteForceBuilder)
        .unwrap();
    let mut buf = Vec::new();
    save_model(&fitted, 0, 0, &mut buf).unwrap();
    let loaded = load_model::<String, _, _, _>(&buf[..], Levenshtein, BruteForceBuilder).unwrap();
    assert_eq!(
        bits(&fitted.score_batch(&data)),
        bits(&loaded.fitted.score_batch(&data))
    );
    assert_eq!(fitted.top_k(3), loaded.fitted.top_k(3));
}

#[test]
fn backend_mismatch_is_refused() {
    let points: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64, (i % 5) as f64]).collect();
    let fitted = McCatch::new(Params::default())
        .unwrap()
        .fit(points, Euclidean, KdTreeBuilder::default())
        .unwrap();
    let mut buf = Vec::new();
    save_model(&fitted, 0, 0, &mut buf).unwrap();
    let err = load_model::<Vec<f64>, _, _, _>(&buf[..], Euclidean, SlimTreeBuilder::default())
        .unwrap_err();
    assert!(matches!(err, PersistError::BackendMismatch { .. }), "{err}");
}

/// A kd model whose reported summary is edited before it is saved: the
/// witness a build with different counting behavior would have written.
struct EditedStats<'a> {
    inner: &'a dyn Model<Vec<f64>>,
    edit: fn(&mut ModelStats),
}

impl Model<Vec<f64>> for EditedStats<'_> {
    fn detect_output(&self) -> McCatchOutput {
        self.inner.detect_output()
    }

    fn score_batch(&self, queries: &[Vec<f64>]) -> Vec<f64> {
        self.inner.score_batch(queries)
    }

    fn top_k(&self, k: usize) -> Vec<Microcluster> {
        self.inner.top_k(k)
    }

    fn stats(&self) -> ModelStats {
        let mut stats = self.inner.stats();
        (self.edit)(&mut stats);
        stats
    }

    fn export(&self) -> Option<ModelExport<Vec<f64>>> {
        self.inner.export()
    }
}

/// Saves `fitted` with `edit` applied to its reported stats and asserts
/// the verified load refuses it on `field`.
fn assert_refused_on(fitted: &dyn Model<Vec<f64>>, edit: fn(&mut ModelStats), field: &str) {
    let mut buf = Vec::new();
    save_model(
        &EditedStats {
            inner: fitted,
            edit,
        },
        0,
        0,
        &mut buf,
    )
    .unwrap();
    let err =
        load_model::<Vec<f64>, _, _, _>(&buf[..], Euclidean, KdTreeBuilder::default()).unwrap_err();
    assert!(
        matches!(err, PersistError::RebuildDiverged { field: f } if f == field),
        "{field}: {err}"
    );
}

#[test]
fn diverged_witness_is_refused_by_field() {
    let mut points: Vec<Vec<f64>> = (0..60)
        .map(|i| vec![(i % 10) as f64, (i / 10) as f64, 0.0])
        .collect();
    points.push(vec![80.0, 80.0, 80.0]);
    let fitted = McCatch::new(Params::default())
        .unwrap()
        .fit(points, Euclidean, KdTreeBuilder::default())
        .unwrap();
    // What a kd snapshot saved before the per-leaf eval accounting looks
    // like: the same fit with a different eval count.
    assert_refused_on(&fitted, |s| s.distance_evals += 1, "distance_evals");
    assert_refused_on(
        &fitted,
        |s| s.cutoff_d = f64::from_bits(s.cutoff_d.to_bits() ^ 1),
        "cutoff_d",
    );
    // The unedited model loads.
    let mut buf = Vec::new();
    save_model(&fitted, 0, 0, &mut buf).unwrap();
    load_model::<Vec<f64>, _, _, _>(&buf[..], Euclidean, KdTreeBuilder::default()).unwrap();
}

#[test]
fn point_kind_mismatch_is_refused() {
    let points: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64]).collect();
    let fitted = McCatch::new(Params::default())
        .unwrap()
        .fit(points, Euclidean, BruteForceBuilder)
        .unwrap();
    let mut buf = Vec::new();
    save_model(&fitted, 0, 0, &mut buf).unwrap();
    let err = load_model::<String, _, _, _>(&buf[..], Levenshtein, BruteForceBuilder).unwrap_err();
    assert!(
        matches!(
            err,
            PersistError::PointKindMismatch {
                expected: 2,
                got: 1
            }
        ),
        "{err}"
    );
}

/// Kill-and-restart for the streaming path: checkpoint a live detector,
/// write its replay log, rebuild from both, and demand bit-identical
/// scoring plus resumed generation/seq/window.
#[test]
fn stream_checkpoint_restores_through_replay_log() {
    let dir = std::env::temp_dir().join(format!("mccatch-persist-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("ingest.ndjson");
    let _ = std::fs::remove_file(&log_path);

    let config = StreamConfig {
        capacity: 48,
        policy: RefitPolicy::Manual,
        ..StreamConfig::default()
    };
    let seed: Vec<Vec<f64>> = (0..48)
        .map(|i| vec![(i % 12) as f64, (i % 7) as f64])
        .collect();
    let detector = McCatch::new(Params::default()).unwrap();
    let stream = StreamDetector::new(
        config.clone(),
        detector,
        Euclidean,
        SlimTreeBuilder::default(),
        seed.clone(),
    )
    .unwrap();

    // Log the seed (at tick 0) and every subsequent event, exactly as a
    // serving process would.
    let mut log = ReplayWriter::open(&log_path, FsyncPolicy::EveryN(8)).unwrap();
    for (i, p) in seed.iter().enumerate() {
        log.append(i as u64, 0, p).unwrap();
    }
    for i in 0..40u64 {
        let p = vec![(i % 9) as f64 + 0.5, (i % 4) as f64];
        let ev = stream.ingest(p.clone());
        log.append(ev.seq, ev.tick, &p).unwrap();
    }
    stream.refit_now().unwrap();
    log.sync().unwrap();

    let mut snapshot = Vec::new();
    mccatch_persist::checkpoint_stream(&stream, &mut snapshot).unwrap();

    let queries: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.7, 2.0]).collect();
    let expected: Vec<u64> = queries.iter().map(|q| stream.score(q).to_bits()).collect();
    let expected_window = stream.window_points();
    let gen_before = stream.generation();
    let next_ev = stream.ingest(vec![100.0, 100.0]);
    let expected_next_seq = next_ev.seq;
    drop(stream);

    // "Restart": rebuild purely from the snapshot bytes + the log file.
    let entries = ReplayReader::open(&log_path)
        .unwrap()
        .read_all::<Vec<f64>>()
        .unwrap();
    let (restored, info) = restore_stream(
        config,
        Euclidean,
        SlimTreeBuilder::default(),
        &snapshot[..],
        Some(entries),
    )
    .unwrap();
    assert_eq!(info.generation, gen_before);
    assert_eq!(restored.generation(), gen_before);

    let got: Vec<u64> = queries
        .iter()
        .map(|q| restored.score(q).to_bits())
        .collect();
    assert_eq!(got, expected, "restored scores must be bit-identical");
    assert_eq!(restored.window_points(), expected_window);
    // The event ingested after the checkpoint was in the log's future;
    // seq numbering continues without reuse.
    let ev = restored.ingest(vec![100.0, 100.0]);
    assert_eq!(ev.seq, expected_next_seq);

    std::fs::remove_dir_all(&dir).ok();
}

/// Without a replay log the window is approximated from the model's
/// reference points — scoring must still be bit-identical.
#[test]
fn stream_restore_without_log_scores_identically() {
    let points: Vec<Vec<f64>> = (0..40)
        .map(|i| vec![(i % 8) as f64, i as f64 / 10.0])
        .collect();
    let fitted = McCatch::new(Params::default())
        .unwrap()
        .fit(points.clone(), Euclidean, KdTreeBuilder::default())
        .unwrap();
    let expected: Vec<u64> = points
        .iter()
        .map(|p| fitted.score_one(p).to_bits())
        .collect();

    let mut snapshot = Vec::new();
    save_model(&fitted, 2, 40, &mut snapshot).unwrap();

    let config = StreamConfig {
        capacity: 64,
        policy: RefitPolicy::Manual,
        ..StreamConfig::default()
    };
    let (restored, _) = restore_stream(
        config,
        Euclidean,
        KdTreeBuilder::default(),
        &snapshot[..],
        None,
    )
    .unwrap();
    assert_eq!(restored.generation(), 2);
    let got: Vec<u64> = points.iter().map(|p| restored.score(p).to_bits()).collect();
    assert_eq!(got, expected);
    assert_eq!(restored.window_points(), points);
}
