//! Stage spans: named wall-clock timings of pipeline stages, recorded
//! into per-stage [`Histogram`]s.
//!
//! The stage names form a closed vocabulary ([`STAGES`]) spanning the
//! whole stack — the fit pipeline in `mccatch-core`, refit and model
//! swap in `mccatch-stream`, shard fan-out and restore in
//! `mccatch-tenant`, and snapshot save/load in `mccatch-persist`. All
//! layers record into one process-global [`StageRecorder`]
//! ([`global()`]), which `/metrics` scrapes as the
//! `mccatch_stage_duration_seconds` family.
//!
//! Recording sites that already measure a `Duration` call
//! [`record_stage`] directly; sites that bracket a region use the
//! [`Span`] guard, which records on drop.

use crate::hist::{Histogram, HistogramSnapshot};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Declares the stage vocabulary once: each `Variant = "name"` row
/// becomes a [`StageId`] variant (its discriminant is the histogram
/// index), a [`STAGES`] entry in the same position, and an arm of
/// [`StageId::name`] and [`StageId::from_name`].
macro_rules! stages {
    ($($(#[$doc:meta])* $id:ident = $name:literal,)+) => {
        /// Every stage name the stack records, in exposition order (the
        /// [`StageId`] order).
        pub const STAGES: &[&str] = &[$($name),+];

        /// The [`STAGES`] vocabulary as a compile-time enum: the
        /// discriminant *is* the histogram index, so hot recording sites
        /// resolve a stage to its slot with a jump table instead of a
        /// linear name scan.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum StageId {
            $($(#[$doc])* $id,)+
        }

        impl StageId {
            /// Every stage, in [`STAGES`] (exposition) order.
            pub const ALL: [StageId; STAGES.len()] = [$(StageId::$id),+];

            /// The exposition name, the same `&'static str` as the
            /// matching [`STAGES`] entry.
            pub const fn name(self) -> &'static str {
                match self {
                    $(StageId::$id => $name,)+
                }
            }

            /// Resolves a stage name to its id — a compiler-generated
            /// string match, not a linear scan. `None` for names outside
            /// the closed vocabulary.
            pub fn from_name(name: &str) -> Option<StageId> {
                match name {
                    $($name => Some(StageId::$id),)+
                    _ => None,
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
    /// `stream_refit` — a full background refit (`mccatch-stream`).
    StreamRefit = "stream_refit",
    /// `stream_swap` — publishing the refit model into the store.
    StreamSwap = "stream_swap",
    /// `tenant_fanout` — scatter/gather of a query across shards.
    TenantFanout = "tenant_fanout",
    /// `tenant_restore` — rebuilding one tenant at warm restart.
    TenantRestore = "tenant_restore",
    /// `persist_save` — serializing a model snapshot.
    PersistSave = "persist_save",
    /// `persist_load` — deserializing a model snapshot.
    PersistLoad = "persist_load",
}

impl StageId {
    /// This stage's index into [`STAGES`] and the recorder's
    /// histograms.
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// The stage-timing sink: one [`Histogram`] per [`STAGES`] entry.
#[derive(Debug)]
pub struct StageRecorder {
    hists: Vec<Histogram>,
}

impl Default for StageRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl StageRecorder {
    /// A recorder with one empty histogram per stage.
    pub fn new() -> Self {
        Self {
            hists: STAGES.iter().map(|_| Histogram::new()).collect(),
        }
    }

    /// Snapshots every stage histogram, in [`STAGES`] order.
    pub fn snapshot(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        STAGES
            .iter()
            .zip(&self.hists)
            .map(|(s, h)| (*s, h.snapshot()))
            .collect()
    }

    /// Records into `stage`'s histogram by index — no name resolution.
    pub fn record_stage_id(&self, stage: StageId, elapsed: Duration) {
        self.hists[stage.index()].record(elapsed);
    }

    /// Records that `stage` (a [`STAGES`] member) took `elapsed`. Name
    /// resolution is a compiler-generated string match
    /// ([`StageId::from_name`]), not a linear scan; unknown names are
    /// ignored.
    pub fn record_stage(&self, stage: &str, elapsed: Duration) {
        if let Some(id) = StageId::from_name(stage) {
            self.record_stage_id(id, elapsed);
        }
    }
}

/// The process-global stage recorder every layer records into and
/// `/metrics` scrapes.
pub fn global() -> &'static StageRecorder {
    static GLOBAL: OnceLock<StageRecorder> = OnceLock::new();
    GLOBAL.get_or_init(StageRecorder::new)
}

/// Records a pre-measured stage duration into the global recorder —
/// and, when the calling thread is inside a traced region, also
/// attaches it as a child span of the thread-current trace span (see
/// [`crate::trace::current`]). This is how the five `fit_*` stages
/// become children of whichever trace triggered the fit with zero
/// changes to the fit pipeline; with no trace active the behavior is
/// exactly the global histogram recording, as before.
pub fn record_stage(stage: &'static str, elapsed: Duration) {
    debug_assert!(
        StageId::from_name(stage).is_some(),
        "unknown stage name {stage:?}: not a STAGES member"
    );
    global().record_stage(stage, elapsed);
    crate::trace::attach_stage(stage, elapsed);
}

/// A drop guard that times a region into the global recorder:
/// `let _span = Span::enter("persist_save");`.
#[derive(Debug)]
pub struct Span {
    stage: &'static str,
    start: Instant,
}

impl Span {
    /// Starts timing `stage` now. Debug builds assert `stage` is a
    /// [`STAGES`] member, so a typo'd name fails loudly in tests
    /// instead of silently recording nothing.
    pub fn enter(stage: &'static str) -> Self {
        debug_assert!(
            StageId::from_name(stage).is_some(),
            "unknown stage name {stage:?}: not a STAGES member"
        );
        Self {
            stage,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        record_stage(self.stage, self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_buckets_by_stage_and_ignores_unknown_names() {
        let r = StageRecorder::new();
        r.record_stage("fit_counting", Duration::from_micros(5));
        r.record_stage("fit_counting", Duration::from_micros(5));
        r.record_stage("persist_save", Duration::from_millis(1));
        r.record_stage("not_a_stage", Duration::from_secs(1));
        let snap = r.snapshot();
        assert_eq!(snap.len(), STAGES.len());
        let count_of = |name: &str| {
            snap.iter()
                .find(|(s, _)| *s == name)
                .map(|(_, h)| h.count())
                .unwrap()
        };
        assert_eq!(count_of("fit_counting"), 2);
        assert_eq!(count_of("persist_save"), 1);
        assert_eq!(count_of("fit_build"), 0);
        assert_eq!(snap.iter().map(|(_, h)| h.count()).sum::<u64>(), 3);
    }

    #[test]
    fn span_records_on_drop_into_the_global_recorder() {
        let before: u64 = global()
            .snapshot()
            .iter()
            .find(|(s, _)| *s == "stream_swap")
            .map(|(_, h)| h.count())
            .unwrap();
        {
            let _span = Span::enter("stream_swap");
        }
        let after: u64 = global()
            .snapshot()
            .iter()
            .find(|(s, _)| *s == "stream_swap")
            .map(|(_, h)| h.count())
            .unwrap();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn stage_ids_mirror_the_stages_vocabulary_exactly() {
        assert_eq!(StageId::ALL.len(), STAGES.len());
        for (i, (id, name)) in StageId::ALL.iter().zip(STAGES).enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(id.name(), *name);
            assert_eq!(StageId::from_name(name), Some(*id));
        }
        assert_eq!(StageId::from_name("not_a_stage"), None);
        assert_eq!(StageId::from_name(""), None);
    }

    #[test]
    fn record_stage_id_and_record_stage_land_in_the_same_slot() {
        let r = StageRecorder::new();
        r.record_stage_id(StageId::TenantFanout, Duration::from_micros(7));
        r.record_stage("tenant_fanout", Duration::from_micros(7));
        let snap = r.snapshot();
        let (name, h) = &snap[StageId::TenantFanout.index()];
        assert_eq!(*name, "tenant_fanout");
        assert_eq!(h.count(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a STAGES member")]
    fn span_enter_rejects_typod_stage_names_in_debug_builds() {
        let _ = Span::enter("fit_buidl");
    }
}
