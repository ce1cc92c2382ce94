//! Stage spans: the one way the stack times a region. A [`Span`] is a
//! drop guard that records its wall-clock duration into the stage's
//! [`Histogram`] and, inside a traced region, is also a child span of
//! that trace.
//!
//! The stage names form a closed vocabulary ([`STAGES`]) spanning the
//! whole stack — the fit pipeline in `mccatch-core`, refit and model
//! swap in `mccatch-stream`, shard fan-out, shard refit and restore in
//! `mccatch-tenant`, snapshot save/load in `mccatch-persist`, and the
//! request path (route, handle, batch scoring and ingest) in
//! `mccatch-server`. All layers record into one process-global
//! [`StageRecorder`] ([`global()`]), which `/metrics` scrapes as the
//! `mccatch_stage_duration_seconds` family.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::trace::{self, CurrentGuard, TraceSpan};
use std::fmt::Display;
use std::time::{Duration, Instant};

/// Declares the stage vocabulary once: each `Variant = "name"` row
/// becomes a [`StageId`] variant (its discriminant is the histogram
/// index), a [`STAGES`] entry in the same position, and an arm of
/// [`StageId::name`].
macro_rules! stages {
    ($($(#[$doc:meta])* $id:ident = $name:literal,)+) => {
        /// Every stage name the stack records, in exposition order (the
        /// [`StageId`] order).
        pub const STAGES: &[&str] = &[$($name),+];

        /// The [`STAGES`] vocabulary as a compile-time enum: the
        /// discriminant *is* the histogram index, and a misspelled
        /// stage is a compile error rather than a silently empty
        /// series.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum StageId {
            $($(#[$doc])* $id,)+
        }

        impl StageId {
            /// Every stage, in [`STAGES`] (exposition) order.
            pub const ALL: [StageId; STAGES.len()] = [$(StageId::$id),+];

            /// The exposition name, the same `&'static str` as the
            /// matching [`STAGES`] entry (and the span name in traces).
            pub const fn name(self) -> &'static str {
                match self {
                    $(StageId::$id => $name,)+
                }
            }
        }
    };
}

stages! {
    /// `fit_build` — reference-tree construction (`mccatch-core`).
    FitBuild = "fit_build",
    /// `fit_counting` — neighbor counting over the radius grid.
    FitCounting = "fit_counting",
    /// `fit_plotting` — oracle-plot assembly and MDL plateau search.
    FitPlotting = "fit_plotting",
    /// `fit_gelling` — microcluster gelling (`spot_microclusters`).
    FitGelling = "fit_gelling",
    /// `fit_scoring` — per-microcluster scoring.
    FitScoring = "fit_scoring",
    /// `stream_refit` — one refit of a stream detector, fit and swap,
    /// successful or not (`mccatch-stream`).
    StreamRefit = "stream_refit",
    /// `stream_swap` — publishing the refit model into the store.
    StreamSwap = "stream_swap",
    /// `tenant_fanout` — scatter/gather of a query batch across shards
    /// (`mccatch-tenant`).
    TenantFanout = "tenant_fanout",
    /// `shard_score` — one shard's share of a fan-out.
    ShardScore = "shard_score",
    /// `shard_refit` — one shard's synchronous refit in a tenant-wide
    /// refit.
    ShardRefit = "shard_refit",
    /// `tenant_restore` — rebuilding one tenant at warm restart.
    TenantRestore = "tenant_restore",
    /// `persist_save` — serializing a model snapshot.
    PersistSave = "persist_save",
    /// `persist_load` — deserializing a model snapshot.
    PersistLoad = "persist_load",
    /// `route` — resolving a request to its tenant and endpoint
    /// (`mccatch-server`; failed routes included).
    Route = "route",
    /// `handle` — dispatching a routed request to its endpoint.
    Handle = "handle",
    /// `score_batch` — scoring one NDJSON `/score` body.
    ScoreBatch = "score_batch",
    /// `score_parse` — parsing the lines of one `/score` body into
    /// points.
    ScoreParse = "score_parse",
    /// `score_render` — rendering one `/score` body's response lines.
    ScoreRender = "score_render",
    /// `ingest_batch` — ingesting one non-empty NDJSON `/ingest` body.
    IngestBatch = "ingest_batch",
}

impl StageId {
    /// This stage's index into [`STAGES`] and the recorder's
    /// histograms.
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// The stage-timing sink: one [`Histogram`] per [`STAGES`] entry, fed
/// only by [`Span`]s.
#[derive(Debug)]
pub struct StageRecorder {
    hists: [Histogram; STAGES.len()],
}

impl StageRecorder {
    const fn new() -> Self {
        Self {
            hists: [const { Histogram::new() }; STAGES.len()],
        }
    }

    fn record(&self, stage: StageId, elapsed: Duration) {
        self.hists[stage.index()].record(elapsed);
    }

    /// Snapshots every stage histogram, in [`STAGES`] order.
    pub fn snapshot(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        STAGES
            .iter()
            .zip(&self.hists)
            .map(|(s, h)| (*s, h.snapshot()))
            .collect()
    }
}

/// The process-global stage recorder every [`Span`] records into and
/// `/metrics` scrapes.
pub fn global() -> &'static StageRecorder {
    static GLOBAL: StageRecorder = StageRecorder::new();
    &GLOBAL
}

/// Times a region as one stage: `let _span = Span::enter(StageId::PersistSave);`.
///
/// On drop — or on [`Span::finish`], which also returns the duration —
/// the elapsed time lands in the stage's histogram of the [`global()`]
/// recorder. When a trace span is current on the thread
/// ([`trace::current`]), the `Span` is also a child span named after
/// the stage in that trace, and is itself the thread's current span
/// until it closes, so spans opened inside it nest under it. With no
/// trace current it costs two clock reads and one histogram record.
#[derive(Debug)]
pub struct Span(Option<Open>);

#[derive(Debug)]
struct Open {
    stage: StageId,
    start: Instant,
    traced: Option<(TraceSpan, CurrentGuard)>,
}

impl Open {
    /// Records the stage; the trace span (if any) closes as `self`
    /// drops on return.
    fn close(self) -> Duration {
        let elapsed = self.start.elapsed();
        global().record(self.stage, elapsed);
        elapsed
    }
}

impl Span {
    /// Starts timing `stage` now.
    pub fn enter(stage: StageId) -> Self {
        let start = Instant::now();
        let traced = trace::current().map(|parent| {
            let span = parent.child(stage.name(), start);
            let current = span.make_current();
            (span, current)
        });
        Span(Some(Open {
            stage,
            start,
            traced,
        }))
    }

    /// Attaches a key=value attribute to the trace span. `value` is
    /// formatted only when a trace is active; untraced, this is a
    /// no-op.
    pub fn attr(&mut self, key: &'static str, value: impl Display) {
        if let Some(Open {
            traced: Some((span, _)),
            ..
        }) = &mut self.0
        {
            span.attr(key, value.to_string());
        }
    }

    /// Closes the span now, recording it, and returns its duration —
    /// the same `Duration` the stage histogram received.
    pub fn finish(mut self) -> Duration {
        self.0
            .take()
            .expect("only finish and drop close a span")
            .close()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            open.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_of(recorder: &StageRecorder, stage: StageId) -> u64 {
        recorder.snapshot()[stage.index()].1.count()
    }

    #[test]
    fn recorder_buckets_by_stage() {
        let r = StageRecorder::new();
        r.record(StageId::FitCounting, Duration::from_micros(5));
        r.record(StageId::FitCounting, Duration::from_micros(5));
        r.record(StageId::PersistSave, Duration::from_millis(1));
        let snap = r.snapshot();
        assert_eq!(snap.len(), STAGES.len());
        assert_eq!(count_of(&r, StageId::FitCounting), 2);
        assert_eq!(count_of(&r, StageId::PersistSave), 1);
        assert_eq!(count_of(&r, StageId::FitBuild), 0);
        assert_eq!(snap.iter().map(|(_, h)| h.count()).sum::<u64>(), 3);
    }

    #[test]
    fn span_records_on_drop_into_the_global_recorder() {
        // `stream_swap` is recorded by no other test in this binary, so
        // the delta is exact even with tests running in parallel.
        let before = count_of(global(), StageId::StreamSwap);
        {
            let _span = Span::enter(StageId::StreamSwap);
        }
        assert_eq!(count_of(global(), StageId::StreamSwap), before + 1);
        Span::enter(StageId::StreamSwap).finish();
        assert_eq!(
            count_of(global(), StageId::StreamSwap),
            before + 2,
            "finish records once, and the drop after it records nothing"
        );
    }

    #[test]
    fn stage_ids_mirror_the_stages_vocabulary_exactly() {
        assert_eq!(StageId::ALL.len(), STAGES.len());
        for (i, (id, name)) in StageId::ALL.iter().zip(STAGES).enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(id.name(), *name);
        }
        let mut names = STAGES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGES.len(), "stage names are unique");
    }

    #[test]
    fn a_traced_span_is_current_while_open_and_formats_attrs_only_then() {
        struct Loud;
        impl Display for Loud {
            fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                panic!("formatted an attribute with no trace active")
            }
        }
        Span::enter(StageId::Route).attr("k", Loud);

        let t = trace::Trace::start("request", None);
        let root = t.root_span("request");
        let _cur = root.make_current();
        let handle = Span::enter(StageId::Handle);
        assert_eq!(trace::current().map(|h| h.id()), Some(root.id() + 1));
        drop(handle);
        assert_eq!(trace::current().map(|h| h.id()), Some(root.id()));
    }
}
