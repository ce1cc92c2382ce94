//! One instrument: every timed region is a stage `Span`, so a call
//! moves the stage histograms by the same counts whether or not a trace
//! is current — and, traced, each stage count equals the number of
//! spans with that stage's name in the finished trace.
//!
//! This test has a binary of its own because the stage recorder is
//! process-global: no other test may record stages while it measures
//! count deltas.

use mccatch_core::McCatch;
use mccatch_index::KdTreeBuilder;
use mccatch_metric::Euclidean;
use mccatch_obs::trace::Trace;
use mccatch_obs::{global, StageId};
use mccatch_stream::{RefitPolicy, StreamConfig};
use mccatch_tenant::{Tenant, TenantSpec};

/// The count of every stage histogram, in `StageId` order.
fn counts() -> Vec<u64> {
    global().snapshot().iter().map(|(_, h)| h.count()).collect()
}

/// Stage counts moved by `f`.
fn delta(f: impl FnOnce()) -> Vec<u64> {
    let before = counts();
    f();
    counts().iter().zip(&before).map(|(a, b)| a - b).collect()
}

#[test]
fn stage_counts_match_traced_or_not_and_equal_the_trace_spans() {
    let grid: Vec<Vec<f64>> = (0..200)
        .map(|i| vec![(i % 20) as f64, (i / 20) as f64])
        .chain([vec![500.0, 500.0], vec![-400.0, 300.0]])
        .collect();
    let spec = TenantSpec {
        shards: 2,
        stream: StreamConfig {
            capacity: 512,
            policy: RefitPolicy::Manual,
            ..StreamConfig::default()
        },
        ..TenantSpec::default()
    };
    let tenant = Tenant::new(
        "t",
        &McCatch::builder().build().unwrap(),
        &Euclidean,
        &KdTreeBuilder::default(),
        &spec,
        grid,
    )
    .unwrap();
    let queries = vec![vec![4.5, 4.5], vec![250.0, -3.0]];
    let calls = || {
        tenant.score_batch(&queries);
        tenant.refit_now().unwrap();
    };

    let untraced = delta(calls);
    let mut expected = vec![0; StageId::ALL.len()];
    expected[StageId::TenantFanout.index()] = 1;
    expected[StageId::ShardScore.index()] = 2;
    for stage in [
        StageId::FitBuild,
        StageId::FitCounting,
        StageId::FitPlotting,
        StageId::FitGelling,
        StageId::FitScoring,
        StageId::StreamRefit,
        StageId::StreamSwap,
        StageId::ShardRefit,
    ] {
        expected[stage.index()] = 2;
    }
    assert_eq!(untraced, expected);

    let trace = Trace::start("request", None);
    let root = trace.root_span("request");
    let traced = delta(|| {
        let _cur = root.make_current();
        calls();
    });
    drop(root);
    let data = trace.finish(Vec::new());
    assert_eq!(traced, untraced, "tracing changes no stage count");
    assert_eq!(data.dropped_spans, 0);
    for stage in StageId::ALL {
        let spans = data.spans.iter().filter(|s| s.name == stage.name()).count();
        assert_eq!(
            traced[stage.index()],
            spans as u64,
            "{}: histogram count vs trace spans",
            stage.name()
        );
    }
}
