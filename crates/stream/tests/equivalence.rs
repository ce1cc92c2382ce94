//! The streaming subsystem's correctness contract: a paused stream is
//! bit-for-bit a batch run.
//!
//! For random event sequences, freezing the stream (no more ingest),
//! refitting, and scoring must equal a fresh `McCatch::fit` +
//! `score_points` on the frozen window — same scores, same detection
//! output — on at least the kd and Slim-tree backends (the brute-force
//! ground truth rides along for free). Eviction order, window
//! snapshotting, and the background swap machinery must never perturb a
//! single bit.

use mccatch_core::McCatch;
use mccatch_index::{BruteForceBuilder, IndexBuilder, KdTreeBuilder, SlimTreeBuilder};
use mccatch_metric::Euclidean;
use mccatch_stream::{RefitPolicy, StreamConfig, StreamDetector};
use proptest::prelude::*;
use std::sync::Arc;

fn events() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0..50.0f64, 2), 4..120)
}

/// Streams `events` through a window of `capacity`, freezes, refits, and
/// checks the served model against a fresh batch fit on the same window.
fn assert_frozen_stream_matches_batch<B>(
    builder: B,
    events: &[Vec<f64>],
    capacity: usize,
) -> Result<(), TestCaseError>
where
    B: IndexBuilder<Vec<f64>, Euclidean> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    let detector = McCatch::builder().build().expect("defaults are valid");
    let stream = StreamDetector::new(
        StreamConfig {
            capacity,
            policy: RefitPolicy::Manual,
            ..StreamConfig::default()
        },
        detector.clone(),
        Euclidean,
        builder.clone(),
        Vec::<Vec<f64>>::new(),
    )
    .expect("valid config");
    for e in events {
        stream.ingest(e.clone());
    }

    // Freeze: no more ingest. Pin the model to the window.
    stream.refit_now().expect("refit");
    let window = stream.window_points();
    prop_assert_eq!(window.len(), events.len().min(capacity));
    prop_assert_eq!(&window[..], &events[events.len() - window.len()..]);

    // The reference: an ordinary batch fit on the same points.
    let batch = detector
        .fit(window.clone(), Euclidean, builder)
        .expect("batch fit");

    // Scoring the frozen window (and some probes beyond it) must agree
    // bit for bit.
    let mut probes = window.clone();
    probes.push(vec![1000.0, -1000.0]);
    probes.push(vec![0.05, 0.05]);
    let model = stream.model();
    prop_assert_eq!(model.score_batch(&probes), batch.score_points(&probes));
    for p in probes.iter().take(8) {
        prop_assert_eq!(model.score_one(p), batch.score_one(p));
    }
    prop_assert_eq!(model.score_cutoff(), batch.score_cutoff());

    // So must the full detection output on the window.
    let stream_out = model.detect_output();
    let batch_out = batch.detect();
    prop_assert_eq!(&stream_out.outliers, &batch_out.outliers);
    prop_assert_eq!(&stream_out.point_scores, &batch_out.point_scores);
    prop_assert_eq!(&stream_out.microclusters, &batch_out.microclusters);
    prop_assert_eq!(stream_out.cutoff, batch_out.cutoff);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn frozen_stream_equals_batch_fit_kd(evs in events(), cap in 4usize..80) {
        assert_frozen_stream_matches_batch(KdTreeBuilder::default(), &evs, cap)?;
    }

    #[test]
    fn frozen_stream_equals_batch_fit_slim(evs in events(), cap in 4usize..80) {
        assert_frozen_stream_matches_batch(SlimTreeBuilder::default(), &evs, cap)?;
    }

    #[test]
    fn frozen_stream_equals_batch_fit_brute(evs in events(), cap in 4usize..80) {
        assert_frozen_stream_matches_batch(BruteForceBuilder, &evs, cap)?;
    }

    // (Every backend gives the same batch fit bit for bit, which
    // `mccatch-core`'s `backend_invariance` tests; the contract here is
    // stream == batch on each backend.)
}

/// Scoring while a swap lands must never observe a torn model: the
/// `(model, generation)` pair is read atomically, generation tags are
/// monotone per ingesting thread, and every score matches what that
/// tagged model produces.
#[test]
fn concurrent_scoring_never_observes_a_torn_model() {
    let reference: Vec<Vec<f64>> = (0..100)
        .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
        .collect();
    let stream = Arc::new(
        StreamDetector::new(
            StreamConfig {
                capacity: 4096,
                policy: RefitPolicy::Manual,
                ..StreamConfig::default()
            },
            McCatch::builder().build().unwrap(),
            Euclidean,
            SlimTreeBuilder::default(),
            reference,
        )
        .unwrap(),
    );

    const REFITS: u64 = 6;
    const EVENTS_PER_THREAD: usize = 300;
    let ingesters: Vec<_> = (0..4)
        .map(|t| {
            let stream = Arc::clone(&stream);
            std::thread::spawn(move || {
                let mut last_gen = 0u64;
                for i in 0..EVENTS_PER_THREAD {
                    let p = vec![(i % 25) as f64 * 0.4, t as f64 + (i / 25) as f64 * 0.2];
                    let e = stream.ingest(p);
                    // Generation tags never go backwards within a thread.
                    assert!(
                        e.generation >= last_gen,
                        "generation regressed: {} after {last_gen}",
                        e.generation
                    );
                    assert!(e.generation <= REFITS, "tag beyond any completed swap");
                    assert!(e.score.is_finite());
                    last_gen = e.generation;
                }
                last_gen
            })
        })
        .collect();

    // Meanwhile, keep swapping models in via synchronous refits.
    for expected_gen in 1..=REFITS {
        assert_eq!(stream.refit_now().unwrap(), expected_gen);
    }
    let final_gens: Vec<u64> = ingesters.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(final_gens.iter().all(|&g| g <= REFITS));
    assert_eq!(stream.generation(), REFITS);
    let stats = stream.stats();
    assert_eq!(stats.generation, REFITS);
    assert_eq!(stats.refits_completed, REFITS);
    assert_eq!(stats.events_scored, 4 * EVENTS_PER_THREAD as u64);
}
