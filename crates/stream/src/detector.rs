//! The streaming detector: per-event scoring over a sliding window with
//! a background refit worker.

use crate::config::{RefitPolicy, StreamConfig};
use crate::error::StreamError;
use crate::stats::StreamStats;
use crate::window::Window;
use mccatch_core::serve::ModelStore;
use mccatch_core::{McCatch, McCatchError, Model};
use mccatch_index::IndexBuilder;
use mccatch_metric::Metric;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// One scored event, as returned by
/// [`StreamDetector::ingest`] / [`StreamDetector::ingest_at`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEvent {
    /// The event's position in the stream (0-based, seed points
    /// included).
    pub seq: u64,
    /// The event's logical time: the caller-supplied tick
    /// ([`ingest_at`](StreamDetector::ingest_at)) or the sequence number
    /// ([`ingest`](StreamDetector::ingest)).
    pub tick: u64,
    /// The serving-path score `⟨1 + g/r₁⟩` against the model snapshot
    /// taken at arrival (see `Fitted::score_points` in `mccatch-core`).
    pub score: f64,
    /// Generation of the model the score was computed against — 0 for
    /// the initial fit, +1 per completed refit. Tags are monotone
    /// **per ingesting thread**; with multiple concurrent ingesters, an
    /// event with a higher `seq` can carry a lower generation (its
    /// snapshot was taken just before a swap another thread already
    /// observed), so order by generation, not by `seq`, when attributing
    /// scores to reference sets.
    pub generation: u64,
    /// Whether the score exceeds the model's
    /// [`score_cutoff`](mccatch_core::Model::score_cutoff): the event
    /// sits farther from every reference inlier than the fitted MDL
    /// cutoff distance — it would have been flagged an outlier had it
    /// been part of the reference set.
    pub flagged: bool,
}

/// Commands the ingest path sends to the background refit worker over
/// the bounded queue.
enum Cmd {
    Refit,
    Shutdown,
}

/// A point-in-time capture of everything a restarted process needs to
/// resume a stream where this one left off, as returned by
/// [`StreamDetector::checkpoint`] and consumed by
/// [`StreamDetector::restore`]. The capture is taken under the refit
/// lock, so the model, its generation, and the window are mutually
/// consistent (no refit swaps in between the reads).
///
/// The `mccatch-persist` crate serializes the model half of a checkpoint
/// as a versioned snapshot and the window half as an NDJSON replay log;
/// this struct itself is plain in-memory data, so the streaming crate
/// stays codec-free.
pub struct StreamCheckpoint<P> {
    /// The model being served at capture time.
    pub model: Arc<dyn Model<P>>,
    /// The model's generation (0 for the initial fit, +1 per refit). A
    /// restore resumes the counter here, so generation tags never
    /// regress across a restart.
    pub generation: u64,
    /// Events accepted so far (seed included) — the stream position a
    /// restored detector continues numbering [`ScoredEvent::seq`] from.
    pub seq: u64,
    /// The retained window as `(tick, point)` in arrival order, ticks
    /// non-decreasing.
    pub entries: Vec<(u64, P)>,
    /// Whether `entries` are a seed snapshot "at stream start" (all at
    /// one fabricated tick) rather than real ingested events: a restore
    /// then re-marks them as seeds, so the first real tick re-adopts the
    /// stream's time base exactly as [`StreamDetector::new`] seeds do.
    /// [`StreamDetector::checkpoint`] sets this to `false`; it is for
    /// restores that rebuild the window from the model's reference
    /// points because no replay log survived.
    pub entries_are_seed: bool,
}

impl<P> std::fmt::Debug for StreamCheckpoint<P> {
    // Skips the model (not `Debug`, and its `stats()` runs pipeline
    // stages) and the raw entries; counters identify the capture.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamCheckpoint")
            .field("generation", &self.generation)
            .field("seq", &self.seq)
            .field("entries", &self.entries.len())
            .field("entries_are_seed", &self.entries_are_seed)
            .finish_non_exhaustive()
    }
}

/// A ring of the most recent flagged/unflagged verdicts, driving
/// [`RefitPolicy::Drift`]. `recent == 0` disables tracking (non-drift
/// policies).
#[derive(Debug)]
struct DriftRing {
    flags: VecDeque<bool>,
    flagged: usize,
    recent: usize,
}

impl DriftRing {
    fn new(recent: usize) -> Self {
        Self {
            flags: VecDeque::with_capacity(recent.min(4096)),
            flagged: 0,
            recent,
        }
    }

    fn push(&mut self, flag: bool) {
        if self.recent == 0 {
            return;
        }
        self.flags.push_back(flag);
        self.flagged += flag as usize;
        while self.flags.len() > self.recent {
            let old = self.flags.pop_front().expect("non-empty");
            self.flagged -= old as usize;
        }
    }

    fn is_full(&self) -> bool {
        self.recent > 0 && self.flags.len() == self.recent
    }

    fn fraction(&self) -> f64 {
        self.flagged as f64 / self.recent as f64
    }

    fn clear(&mut self) {
        self.flags.clear();
        self.flagged = 0;
    }
}

/// Everything the ingest path mutates per event, under one brief mutex:
/// the window itself, the stream counters, and the policy trackers.
/// Scoring and refitting never hold this lock.
struct StreamState<P> {
    window: Window<P>,
    /// Events accepted so far (seed included); doubles as the auto tick.
    seq: u64,
    /// Events scored so far (seed points are seeded, not scored).
    scored: u64,
    /// Events since the last `EveryN` trigger.
    since_refit: u64,
    drift: DriftRing,
}

/// State shared between the `StreamDetector` handle and its worker.
struct Shared<P, M, B> {
    config: StreamConfig,
    mccatch: McCatch,
    metric: M,
    builder: B,
    store: ModelStore<P>,
    state: Mutex<StreamState<P>>,
    /// Serializes whole refits (snapshot → fit → swap) across the
    /// worker and `refit_now`: without it, a slower in-flight refit
    /// fitted on an **older** window snapshot could swap in *after* a
    /// newer one and regress the served model while still advancing the
    /// generation. The scoring hot path never touches this lock.
    refit_lock: Mutex<()>,
    refits_requested: AtomicU64,
    refits_coalesced: AtomicU64,
    refits_completed: AtomicU64,
    refits_skipped: AtomicU64,
    refits_failed: AtomicU64,
    queue_depth: AtomicUsize,
    fit_distance_evals: AtomicU64,
    shutdown: AtomicBool,
}

impl<P, M, B> Shared<P, M, B> {
    fn state(&self) -> MutexGuard<'_, StreamState<P>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A continuously-operating MCCATCH detector: a sliding window over the
/// most recent events, immediate per-event scoring against the current
/// model snapshot, and a background worker that refits the model on the
/// window and swaps it in atomically.
///
/// Built entirely from the batch primitives — `McCatch::fit`,
/// `Fitted::into_model`, `ModelStore::swap` — so a refit on a frozen
/// window produces **bit-identical** scores to a fresh batch fit on the
/// same points (property-tested across index backends). Scoring is
/// lock-free on a model snapshot; the window mutex is held only for the
/// push and the policy bookkeeping.
///
/// All methods take `&self`: share a `StreamDetector` across ingest
/// threads via `Arc` (it is `Send + Sync` whenever its components are).
/// Dropping the handle shuts the worker down and joins it.
///
/// ```
/// use mccatch_core::McCatch;
/// use mccatch_index::KdTreeBuilder;
/// use mccatch_metric::Euclidean;
/// use mccatch_stream::{RefitPolicy, StreamConfig, StreamDetector};
///
/// // Seed the window with reference traffic (plus one known isolate so
/// // the cutoff is finite)…
/// let mut seed: Vec<Vec<f64>> = (0..100)
///     .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
///     .collect();
/// seed.push(vec![500.0, 500.0]);
///
/// let config = StreamConfig {
///     capacity: 256,
///     policy: RefitPolicy::EveryN(64),
///     ..StreamConfig::default()
/// };
/// let stream = StreamDetector::new(
///     config,
///     McCatch::builder().build()?,
///     Euclidean,
///     KdTreeBuilder::default(),
///     seed,
/// )?;
///
/// // …then score each arriving event immediately.
/// let ok = stream.ingest(vec![4.5, 4.5]);
/// let bad = stream.ingest(vec![900.0, 900.0]);
/// assert!(bad.score > ok.score);
/// assert!(bad.flagged && !ok.flagged);
/// assert_eq!((ok.generation, bad.generation), (0, 0));
/// assert_eq!(stream.stats().events_scored, 2);
/// # Ok::<(), mccatch_stream::StreamError>(())
/// ```
pub struct StreamDetector<P, M, B> {
    shared: Arc<Shared<P, M, B>>,
    tx: SyncSender<Cmd>,
    worker: Option<JoinHandle<()>>,
}

impl<P, M, B> StreamDetector<P, M, B>
where
    P: Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    /// Validates `config`, seeds the sliding window with `seed` (oldest
    /// first; if `seed` exceeds the capacity only the newest events are
    /// retained), fits the initial model on the seeded window
    /// (generation 0 — an empty seed yields a degenerate model that
    /// scores everything 0 until the first refit), and starts the
    /// background refit worker.
    ///
    /// Seeds are a snapshot "at stream start": they all carry the same
    /// logical tick, so `max_age_ticks` never evicts within the seed
    /// itself, and they age out together once later events move the
    /// horizon past the start (in whatever time base the stream adopts
    /// — see [`ingest_at`](Self::ingest_at)).
    ///
    /// `detector`, `metric`, and `index_builder` are stored and reused
    /// for every refit, exactly as a batch caller would pass them to
    /// [`McCatch::fit`].
    pub fn new(
        config: StreamConfig,
        detector: McCatch,
        metric: M,
        index_builder: B,
        seed: impl IntoIterator<Item = P>,
    ) -> Result<Self, StreamError> {
        config.validate()?;
        let mut window = Window::new(config.capacity, config.max_age_ticks);
        let mut seq = 0u64;
        for p in seed {
            // All seeds are stamped at tick 0 — "at stream start" — so
            // the age horizon never applies within the seed itself
            // (capacity eviction still keeps only the newest); they age
            // out together once real events pass the horizon. The first
            // caller-supplied tick re-stamps them into the caller's
            // time base (see `Window::adopt_time_base`).
            window.push(0, p);
            seq += 1;
        }
        window.mark_seeded();
        let (model, evals) =
            fit_and_warm(&detector, &metric, &index_builder, window.points_in_order())?;
        let drift_recent = match config.policy {
            RefitPolicy::Drift { recent, .. } => recent,
            _ => 0,
        };
        let refit_queue = config.refit_queue;
        let shared = Arc::new(Shared {
            config,
            mccatch: detector,
            metric,
            builder: index_builder,
            store: ModelStore::new(model),
            refit_lock: Mutex::new(()),
            state: Mutex::new(StreamState {
                window,
                seq,
                scored: 0,
                since_refit: 0,
                drift: DriftRing::new(drift_recent),
            }),
            refits_requested: AtomicU64::new(0),
            refits_coalesced: AtomicU64::new(0),
            refits_completed: AtomicU64::new(0),
            refits_skipped: AtomicU64::new(0),
            refits_failed: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            fit_distance_evals: AtomicU64::new(evals),
            shutdown: AtomicBool::new(false),
        });
        Ok(Self::start(shared, refit_queue))
    }

    /// Rebuilds a detector from a [`StreamCheckpoint`] — the warm
    /// restart path. Unlike [`new`](Self::new) this performs **no
    /// initial fit**: the checkpoint's model starts serving immediately
    /// at its original generation, the window is rebuilt from the
    /// checkpoint's `(tick, point)` entries (capacity and age eviction
    /// apply under the *new* `config`, so a restore may legitimately
    /// retain fewer events than were captured), and `seq` resumes the
    /// stream position. Counters (`events_scored`, refit totals,
    /// `fit_distance_evals`) restart at zero — they are per-process
    /// observability, not stream state.
    ///
    /// Entries with a decreasing tick are rejected with
    /// [`StreamError::NonMonotonicTick`] — a corrupt or hand-edited
    /// replay log must not violate the window's tick invariant.
    pub fn restore(
        config: StreamConfig,
        detector: McCatch,
        metric: M,
        index_builder: B,
        checkpoint: StreamCheckpoint<P>,
    ) -> Result<Self, StreamError> {
        config.validate()?;
        let StreamCheckpoint {
            model,
            generation,
            seq,
            entries,
            entries_are_seed,
        } = checkpoint;
        let mut window = Window::new(config.capacity, config.max_age_ticks);
        let mut last: Option<u64> = None;
        for (tick, point) in entries {
            if let Some(l) = last {
                if tick < l {
                    return Err(StreamError::NonMonotonicTick { last: l, got: tick });
                }
            }
            last = Some(tick);
            window.push(tick, point);
        }
        if entries_are_seed {
            window.mark_seeded();
        }
        let drift_recent = match config.policy {
            RefitPolicy::Drift { recent, .. } => recent,
            _ => 0,
        };
        let refit_queue = config.refit_queue;
        let shared = Arc::new(Shared {
            config,
            mccatch: detector,
            metric,
            builder: index_builder,
            store: ModelStore::with_generation(model, generation),
            refit_lock: Mutex::new(()),
            state: Mutex::new(StreamState {
                window,
                seq,
                scored: 0,
                since_refit: 0,
                drift: DriftRing::new(drift_recent),
            }),
            refits_requested: AtomicU64::new(0),
            refits_coalesced: AtomicU64::new(0),
            refits_completed: AtomicU64::new(0),
            refits_skipped: AtomicU64::new(0),
            refits_failed: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            fit_distance_evals: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        Ok(Self::start(shared, refit_queue))
    }

    /// Spawns the background refit worker over a fresh bounded queue and
    /// assembles the handle — the tail shared by [`new`](Self::new) and
    /// [`restore`](Self::restore).
    fn start(shared: Arc<Shared<P, M, B>>, refit_queue: usize) -> Self {
        let (tx, rx) = mpsc::sync_channel(refit_queue);
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mccatch-stream-refit".to_owned())
                .spawn(move || worker_loop(shared, rx))
                .expect("spawn refit worker thread")
        };
        Self {
            shared,
            tx,
            worker: Some(worker),
        }
    }

    /// Captures a [`StreamCheckpoint`]: the served model, its
    /// generation, the stream position, and the window's `(tick,
    /// point)` entries — taken under the refit lock so no swap lands
    /// between the reads and the pieces are mutually consistent. Ingest
    /// can proceed concurrently; events landing after the capture are
    /// simply not part of it (persist them through a replay log to close
    /// the gap).
    pub fn checkpoint(&self) -> StreamCheckpoint<P> {
        let _serialized = self
            .shared
            .refit_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let (model, generation) = self.shared.store.snapshot_tagged();
        let st = self.shared.state();
        StreamCheckpoint {
            model,
            generation,
            seq: st.seq,
            entries: st.window.entries_in_order(),
            entries_are_seed: false,
        }
    }

    /// Ingests one event: scores it immediately against the current
    /// model snapshot (tagging the result with the model generation),
    /// slides it into the window, and lets the refit policy decide
    /// whether to wake the background worker. The event's tick advances
    /// one past the newest tick in the window (0 for the very first
    /// event of an unseeded stream), so plain `ingest` streams are
    /// always tick-monotone, one tick per event — and seeds, which all
    /// sit at the stream-start tick, age out `max_age_ticks` events
    /// after the start rather than immediately.
    ///
    /// The score is **prequential** (test-then-train): the event is
    /// scored against the model fitted *before* its arrival, then
    /// becomes part of the window future refits learn from.
    pub fn ingest(&self, point: P) -> ScoredEvent {
        self.ingest_inner(None, point)
            .expect("auto ticks are always monotone")
    }

    /// Like [`ingest`](Self::ingest), with a caller-supplied logical
    /// tick (e.g. epoch millis) driving age-based eviction. Ticks must
    /// be non-decreasing; a smaller tick is rejected with
    /// [`StreamError::NonMonotonicTick`] and the event is not ingested.
    ///
    /// The first caller-supplied tick establishes the stream's time
    /// base: seed points (which carry fabricated sequence-number ticks)
    /// are re-stamped to it, so an epoch-scale first tick does not
    /// age-evict the whole seeded reference window, and a small-unit
    /// tick is not spuriously rejected against seed sequence numbers.
    pub fn ingest_at(&self, tick: u64, point: P) -> Result<ScoredEvent, StreamError> {
        self.ingest_inner(Some(tick), point)
    }

    fn ingest_inner(&self, tick: Option<u64>, point: P) -> Result<ScoredEvent, StreamError> {
        if let Some(t) = tick {
            // Adopt the time base and reject stale ticks *before*
            // paying for the scoring query below; the authoritative
            // re-check under the same lock as the push still guards
            // against concurrent producers advancing the clock
            // meanwhile.
            let mut st = self.shared.state();
            st.window.adopt_time_base(t);
            let last_tick = st.window.last_tick().unwrap_or(0);
            if t < last_tick {
                return Err(StreamError::NonMonotonicTick {
                    last: last_tick,
                    got: t,
                });
            }
        }

        // Score outside any lock, on a consistent (model, generation)
        // pair: a concurrent swap can land before or after, never "mid".
        let (model, generation) = self.shared.store.snapshot_tagged();
        let score = model.score_one(&point);
        let cutoff = model.score_cutoff();
        let flagged = score > cutoff;
        // An infinite cutoff means the model cannot discriminate at all
        // (degenerate cold start, or no MDL cut in the reference set).
        // The event itself is not flagged, but for the drift tracker
        // that *is* drift — otherwise a Drift-policy stream seeded cold
        // would score 0 forever and never earn its first refit.
        let drift_vote = flagged || cutoff.is_infinite();

        let mut want_refit = false;
        let (seq, tick) = {
            let mut st = self.shared.state();
            let last_tick = st.window.last_tick().unwrap_or(0);
            let tick = match tick {
                Some(t) => {
                    if t < last_tick {
                        return Err(StreamError::NonMonotonicTick {
                            last: last_tick,
                            got: t,
                        });
                    }
                    t
                }
                // Auto ticks advance one per event from the newest tick
                // in the window, not from the global sequence number:
                // seeds all sit at the stream-start tick, so counting
                // from `seq` (which includes the seed count) would jump
                // the clock by that count at the first event and
                // age-evict the whole seeded window at once.
                None => {
                    if st.window.last_tick().is_none() {
                        0
                    } else {
                        last_tick.saturating_add(1)
                    }
                }
            };
            let seq = st.seq;
            st.seq += 1;
            st.scored += 1;
            st.window.push(tick, point);
            match self.shared.config.policy {
                RefitPolicy::Manual => {}
                RefitPolicy::EveryN(n) => {
                    st.since_refit += 1;
                    if st.since_refit >= n {
                        st.since_refit = 0;
                        want_refit = true;
                    }
                }
                RefitPolicy::Drift { threshold, .. } => {
                    st.drift.push(drift_vote);
                    if st.drift.is_full() && st.drift.fraction() >= threshold {
                        st.drift.clear();
                        want_refit = true;
                    }
                }
            }
            (seq, tick)
        };
        if want_refit {
            self.request_refit();
        }
        Ok(ScoredEvent {
            seq,
            tick,
            score,
            generation,
            flagged,
        })
    }

    /// Asks the background worker to refit on the current window,
    /// without blocking. Returns `true` if the request was enqueued and
    /// `false` if it *coalesced* into a refit already pending (which
    /// will see this caller's events anyway — the worker snapshots the
    /// window when it starts fitting, not when the request was made).
    pub fn request_refit(&self) -> bool {
        self.shared.refits_requested.fetch_add(1, Ordering::AcqRel);
        // Increment *before* sending: the worker decrements as soon as
        // it pops the command, so incrementing after a successful send
        // could race it and wrap the counter below zero.
        self.shared.queue_depth.fetch_add(1, Ordering::AcqRel);
        match self.tx.try_send(Cmd::Refit) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::AcqRel);
                self.shared.refits_coalesced.fetch_add(1, Ordering::AcqRel);
                false
            }
            // The worker is gone (it only exits early if a fit
            // panicked): nothing is pending to merge into, so this is a
            // dropped refit, not a coalesced one — count it as failed
            // so a stale-model situation is visible in `StreamStats`.
            Err(TrySendError::Disconnected(_)) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::AcqRel);
                self.shared.refits_failed.fetch_add(1, Ordering::AcqRel);
                false
            }
        }
    }

    /// Refits on the current window **synchronously**, on the calling
    /// thread, and swaps the new model in. Returns the generation this
    /// refit produced. Unlike worker refits this ignores
    /// `min_refit_points` and fits whatever the window holds (an empty
    /// window yields a degenerate model) — it is the "freeze the stream
    /// and pin the model to the window" primitive the equivalence tests
    /// are built on.
    ///
    /// Refits are serialized: if a background refit is mid-fit, this
    /// call waits for it, then fits the current window — so after it
    /// returns, the served model is never older than the window this
    /// call saw. (A refit request still *queued* at that point will
    /// re-fit the then-current window afterwards; on a frozen stream
    /// that reproduces the identical model.)
    pub fn refit_now(&self) -> Result<u64, StreamError> {
        self.shared.refits_requested.fetch_add(1, Ordering::AcqRel);
        run_refit(&self.shared).map_err(StreamError::from)
    }

    /// Scores a query against the current model **without** ingesting
    /// it (a read-only tap — the window does not change).
    pub fn score(&self, query: &P) -> f64 {
        self.shared.store.score_one(query)
    }

    /// Scores a batch against one consistent snapshot of the current
    /// model, without ingesting (see `ModelStore::score_batch`).
    pub fn score_batch(&self, queries: &[P]) -> Vec<f64> {
        self.shared.store.score_batch(queries)
    }

    /// A consistent snapshot of the currently served model. The handle
    /// stays valid (and keeps its fit alive) across later refits.
    pub fn model(&self) -> Arc<dyn Model<P>> {
        self.shared.store.snapshot()
    }

    /// The underlying [`ModelStore`] this detector serves from — for
    /// serving tiers (e.g. an HTTP frontend) that need the store's
    /// atomic tagged snapshots (`snapshot_tagged`) or consistent batch
    /// scoring without going through ingest.
    ///
    /// Swapping models into the store directly is safe (swaps are
    /// atomic and snapshots drain) but bypasses the refit
    /// serialization this detector's own refits go through; prefer
    /// [`refit_now`](Self::refit_now) / [`request_refit`](Self::request_refit)
    /// to change the served model.
    pub fn store(&self) -> &ModelStore<P> {
        &self.shared.store
    }

    /// Generation of the currently served model: 0 for the initial fit,
    /// +1 per completed refit.
    pub fn generation(&self) -> u64 {
        self.shared.store.generation()
    }

    /// Number of events currently retained in the sliding window.
    pub fn window_len(&self) -> usize {
        self.shared.state().window.len()
    }

    /// The retained window contents in arrival order — exactly the
    /// dataset the next refit will fit.
    pub fn window_points(&self) -> Vec<P> {
        self.shared.state().window.points_in_order()
    }

    /// The configuration this detector was built with.
    pub fn config(&self) -> &StreamConfig {
        &self.shared.config
    }

    /// A consistent snapshot of the subsystem's counters plus the
    /// currently served model's summary.
    pub fn stats(&self) -> StreamStats {
        let (model, generation) = self.shared.store.snapshot_tagged();
        let model_stats = model.stats();
        let sh = &self.shared;
        let st = sh.state();
        StreamStats {
            events_ingested: st.seq,
            events_scored: st.scored,
            events_evicted: st.window.evicted(),
            window_len: st.window.len(),
            window_capacity: sh.config.capacity,
            generation,
            refits_requested: sh.refits_requested.load(Ordering::Acquire),
            refits_coalesced: sh.refits_coalesced.load(Ordering::Acquire),
            refits_completed: sh.refits_completed.load(Ordering::Acquire),
            refits_skipped: sh.refits_skipped.load(Ordering::Acquire),
            refits_failed: sh.refits_failed.load(Ordering::Acquire),
            refit_queue_depth: sh.queue_depth.load(Ordering::Acquire),
            fit_distance_evals: sh.fit_distance_evals.load(Ordering::Acquire),
            model: model_stats,
        }
    }
}

impl<P, M, B> Drop for StreamDetector<P, M, B> {
    /// Signals the worker to stop (any still-queued refit is popped and
    /// skipped), then joins it. A worker mid-fit finishes that fit
    /// first — swaps stay atomic even during shutdown.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.tx.send(Cmd::Shutdown);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl<P, M, B> std::fmt::Debug for StreamDetector<P, M, B> {
    // Cheap on purpose: counters only, never the model (whose `stats()`
    // runs pipeline stages on first use).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamDetector")
            .field("generation", &self.shared.store.generation())
            .field("window_capacity", &self.shared.config.capacity)
            .finish_non_exhaustive()
    }
}

/// Fits a model on `points` and warms every serving artifact (counting,
/// spotting, scoring, the inlier tree) *before* the model is swapped in,
/// so the first event scored against a fresh generation pays no lazy
/// initialization. Returns the erased model plus the fit's deterministic
/// distance-evaluation cost.
fn fit_and_warm<P, M, B>(
    mccatch: &McCatch,
    metric: &M,
    builder: &B,
    points: Vec<P>,
) -> Result<(Arc<dyn Model<P>>, u64), McCatchError>
where
    P: Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    let fitted = mccatch.fit(points, metric.clone(), builder.clone())?;
    let stats = fitted.stats();
    if let Some(first) = fitted.points().first() {
        // Builds the lazy inlier tree off the hot path.
        let _ = fitted.score_one(first);
    }
    Ok((fitted.into_model(), stats.distance_evals))
}

/// Snapshots the window, fits, warms, and swaps. Shared by the worker
/// and [`StreamDetector::refit_now`]; both paths keep the old model on
/// failure. The whole cycle runs under `refit_lock`, so concurrent
/// refits serialize: window snapshots are taken in swap order, a swap
/// never installs a model fitted on an older window than the one it
/// replaces, and the returned generation is the one *this* swap
/// produced.
fn run_refit<P, M, B>(shared: &Shared<P, M, B>) -> Result<u64, McCatchError>
where
    P: Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    use mccatch_obs::{trace, Span, StageId};
    let _serialized = shared.refit_lock.lock().unwrap_or_else(|e| e.into_inner());
    let points = shared.state().window.points_in_order();
    // A refit inside an already-traced request (synchronous
    // `refit_now`) nests its `stream_refit` span there; a background
    // refit gets a standalone trace under a `refit` root when the
    // process sampler is on, so slow or failing worker-thread refits
    // are tail-sampled too. The five `fit_*` stages inside
    // `fit_and_warm` and the `stream_swap` nest under `stream_refit`.
    let background = (trace::current().is_none() && trace::sampler().enabled())
        .then(|| trace::Trace::start("refit", None));
    let root = background.as_ref().map(|t| t.root_span("refit"));
    let root_cur = root.as_ref().map(trace::TraceSpan::make_current);
    let refit_span = Span::enter(StageId::StreamRefit);
    let outcome = fit_and_warm(&shared.mccatch, &shared.metric, &shared.builder, points);
    let result = match outcome {
        Ok((model, evals)) => {
            shared.fit_distance_evals.fetch_add(evals, Ordering::AcqRel);
            let swap_span = Span::enter(StageId::StreamSwap);
            shared.store.swap(model);
            drop(swap_span);
            // Still under the refit lock, so this is our swap's
            // generation, not a later one's.
            let generation = shared.store.generation();
            shared.refits_completed.fetch_add(1, Ordering::AcqRel);
            Ok(generation)
        }
        Err(e) => {
            shared.refits_failed.fetch_add(1, Ordering::AcqRel);
            Err(e)
        }
    };
    drop(refit_span);
    drop(root_cur);
    drop(root);
    if let Some(t) = background {
        // Correlate the standalone trace with the generation the swap
        // published (the same number `/metrics` and the stats endpoint
        // report), and tail-sample it like any request trace.
        let attrs = match &result {
            Ok(generation) => vec![("generation", generation.to_string())],
            Err(e) => {
                t.set_error();
                vec![("error", e.to_string())]
            }
        };
        let _ = trace::sampler().offer(t.finish(attrs));
    }
    result
}

/// The background worker: pops refit commands off the bounded queue and
/// rebuilds the model on the current window. Exits on `Shutdown` or when
/// every sender is gone.
fn worker_loop<P, M, B>(shared: Arc<Shared<P, M, B>>, rx: Receiver<Cmd>)
where
    P: Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Shutdown => break,
            Cmd::Refit => {
                shared.queue_depth.fetch_sub(1, Ordering::AcqRel);
                if shared.shutdown.load(Ordering::Acquire) {
                    continue;
                }
                if shared.state().window.len() < shared.config.min_refit_points {
                    shared.refits_skipped.fetch_add(1, Ordering::AcqRel);
                    continue;
                }
                // Failures are counted inside; the old model keeps
                // serving.
                let _ = run_refit(&shared);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_index::{KdTreeBuilder, SlimTreeBuilder};
    use mccatch_metric::Euclidean;
    use std::time::{Duration, Instant};

    fn grid_with_isolate() -> Vec<Vec<f64>> {
        let mut pts: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
            .collect();
        pts.push(vec![500.0, 500.0]);
        pts
    }

    fn manual_config(capacity: usize) -> StreamConfig {
        StreamConfig {
            capacity,
            policy: RefitPolicy::Manual,
            ..StreamConfig::default()
        }
    }

    fn stream_over(
        config: StreamConfig,
        seed: Vec<Vec<f64>>,
    ) -> StreamDetector<Vec<f64>, Euclidean, KdTreeBuilder> {
        StreamDetector::new(
            config,
            McCatch::builder().build().unwrap(),
            Euclidean,
            KdTreeBuilder::default(),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn checkpoint_restore_resumes_generation_window_and_seq() {
        let stream = stream_over(manual_config(64), grid_with_isolate());
        stream.ingest(vec![4.5, 4.5]);
        stream.ingest(vec![700.0, 700.0]);
        stream.refit_now().unwrap();
        stream.ingest(vec![5.5, 5.5]);
        let probe = vec![333.0, -21.0];
        let before = stream.score(&probe);

        let cp = stream.checkpoint();
        assert_eq!(cp.generation, 1);
        assert_eq!(cp.seq, 104); // 101 seeds + 3 events
        assert_eq!(cp.entries.len(), 64);
        assert!(!cp.entries_are_seed);
        drop(stream);

        let restored = StreamDetector::restore(
            manual_config(64),
            McCatch::builder().build().unwrap(),
            Euclidean,
            KdTreeBuilder::default(),
            cp,
        )
        .unwrap();
        // Same model, same generation, same window, same stream position.
        assert_eq!(restored.score(&probe), before);
        assert_eq!(restored.generation(), 1);
        assert_eq!(restored.window_len(), 64);
        let e = restored.ingest(vec![6.5, 6.5]);
        assert_eq!(e.seq, 104);
        assert_eq!(e.generation, 1);
        // Refits keep working after a restore and bump from the resumed
        // generation, not from zero.
        assert_eq!(restored.refit_now().unwrap(), 2);
    }

    #[test]
    fn restore_rejects_non_monotonic_entries() {
        let stream = stream_over(manual_config(16), grid_with_isolate());
        let mut cp = stream.checkpoint();
        cp.entries = vec![(5, vec![0.0, 0.0]), (3, vec![1.0, 1.0])];
        drop(stream);
        let err = StreamDetector::restore(
            manual_config(16),
            McCatch::builder().build().unwrap(),
            Euclidean,
            KdTreeBuilder::default(),
            cp,
        )
        .unwrap_err();
        assert_eq!(err, StreamError::NonMonotonicTick { last: 5, got: 3 });
    }

    /// Polls until `cond` holds or the deadline passes; background
    /// refits finish in well under a second on these tiny windows.
    fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    #[test]
    fn scores_and_tags_events_against_initial_fit() {
        let stream = stream_over(manual_config(512), grid_with_isolate());
        let ok = stream.ingest(vec![4.0, 4.0]);
        let bad = stream.ingest(vec![-300.0, 250.0]);
        assert_eq!(ok.score, 0.0, "a reference inlier scores 0");
        assert!(bad.score > 0.0);
        assert!(bad.flagged && !ok.flagged);
        assert_eq!((ok.generation, bad.generation), (0, 0));
        assert_eq!((ok.seq, bad.seq), (101, 102));
        let stats = stream.stats();
        assert_eq!(stats.events_ingested, 103);
        assert_eq!(stats.events_scored, 2);
        assert_eq!(stats.generation, 0);
        assert!(stats.fit_distance_evals > 0);
        assert_eq!(stats.model.num_points, 101);
    }

    #[test]
    fn prequential_scoring_matches_batch_model() {
        // Each event's score equals what the *current* batch model says,
        // and ingesting does not change the model until a refit.
        let stream = stream_over(manual_config(512), grid_with_isolate());
        let model = stream.model();
        for q in [vec![4.2, 4.2], vec![70.0, -3.0], vec![500.0, 499.0]] {
            let expected = model.score_one(&q);
            assert_eq!(stream.ingest(q).score, expected);
        }
        assert_eq!(stream.generation(), 0);
    }

    #[test]
    fn refit_now_pins_model_to_window() {
        let stream = stream_over(manual_config(64), grid_with_isolate());
        // Slide the window completely onto fresh traffic.
        for i in 0..64 {
            stream.ingest(vec![(i % 8) as f64 + 1000.0, (i / 8) as f64]);
        }
        assert_eq!(stream.window_len(), 64);
        let gen = stream.refit_now().unwrap();
        assert_eq!(gen, 1);
        // The new reference set is the shifted grid: its members are
        // inliers now, the old grid is far away.
        assert_eq!(stream.score(&vec![1003.0, 2.0]), 0.0);
        assert!(stream.score(&vec![3.0, 2.0]) > 0.0);
        let stats = stream.stats();
        assert_eq!(stats.refits_completed, 1);
        assert_eq!(stats.generation, 1);
    }

    #[test]
    fn every_n_policy_drives_background_refits() {
        let config = StreamConfig {
            capacity: 128,
            policy: RefitPolicy::EveryN(32),
            ..StreamConfig::default()
        };
        let stream = stream_over(config, grid_with_isolate());
        for i in 0..96 {
            stream.ingest(vec![(i % 10) as f64, (i / 10) as f64]);
        }
        // 96 events at EveryN(32) fire exactly 3 requests. Requests that
        // arrive while one is still queued coalesce into it (the refit
        // snapshots the window when it starts, so it sees their events);
        // every non-coalesced request is eventually processed.
        let requested = stream.stats().refits_requested;
        assert_eq!(requested, 3);
        assert!(
            wait_until(|| {
                let s = stream.stats();
                s.refits_completed + s.refits_skipped + s.refits_coalesced == requested
                    && s.refit_queue_depth == 0
            }),
            "worker never drained the EveryN refits: {:?}",
            stream.stats()
        );
        let stats = stream.stats();
        assert!(stats.refits_completed >= 1, "{stats:?}");
        assert_eq!(stats.refits_skipped, 0, "window is always large enough");
        assert_eq!(stats.generation, stats.refits_completed);
    }

    #[test]
    fn drift_policy_triggers_on_flagged_fraction() {
        let config = StreamConfig {
            capacity: 256,
            policy: RefitPolicy::Drift {
                recent: 16,
                threshold: 0.5,
            },
            ..StreamConfig::default()
        };
        let stream = stream_over(config, grid_with_isolate());
        // Healthy traffic: near-grid points (jittered off the reference
        // positions, well within the cutoff) never fill the drift ring
        // with flags.
        for i in 0..32 {
            stream.ingest(vec![(i % 10) as f64 + 0.3, (i / 10) as f64 + 0.3]);
        }
        assert_eq!(stream.stats().refits_requested, 0);
        // A tight burst of far-away traffic: every event is flagged, so
        // the ring fills and fires. The burst is denser than the grid
        // and larger than the microcluster cap `c`, so once refit onto
        // the window it becomes ordinary reference inliers.
        let burst: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![2000.0 + (i % 6) as f64 * 0.1, 2000.0 + (i / 6) as f64 * 0.1])
            .collect();
        for p in &burst {
            stream.ingest(p.clone());
        }
        let stats = stream.stats();
        assert!(stats.refits_requested >= 1, "{stats:?}");
        assert!(
            wait_until(|| stream.stats().refits_completed >= 1),
            "drift-triggered refit never completed: {:?}",
            stream.stats()
        );
        // After the refit the (early) burst is part of the reference set.
        assert!(
            wait_until(|| stream.score(&burst[2]) == 0.0),
            "burst member still scores {} at generation {}",
            stream.score(&burst[2]),
            stream.generation()
        );
    }

    #[test]
    fn drift_policy_escapes_a_cold_start() {
        // An empty-seed Drift stream serves a degenerate model (cutoff
        // infinite, every score 0). It must still earn its first refit:
        // an undiscriminating model counts every event as drift.
        let config = StreamConfig {
            capacity: 256,
            policy: RefitPolicy::Drift {
                recent: 12,
                threshold: 0.5,
            },
            ..StreamConfig::default()
        };
        let stream = stream_over(config, vec![]);
        assert_eq!(stream.score_batch(&[vec![9.0, 9.0]]), vec![0.0]);
        for i in 0..12 {
            let e = stream.ingest(vec![(i % 4) as f64, (i / 4) as f64]);
            assert!(!e.flagged, "cold-start events are not themselves flagged");
        }
        assert!(stream.stats().refits_requested >= 1, "{:?}", stream.stats());
        assert!(
            wait_until(|| stream.stats().refits_completed >= 1),
            "cold-start drift refit never completed: {:?}",
            stream.stats()
        );
        assert!(!stream.stats().model.degenerate);
    }

    #[test]
    fn window_capacity_and_age_evict() {
        let config = StreamConfig {
            capacity: 8,
            max_age_ticks: Some(3),
            policy: RefitPolicy::Manual,
            ..StreamConfig::default()
        };
        let stream = stream_over(config, vec![]);
        for t in 0..10u64 {
            stream.ingest_at(t * 2, vec![t as f64, 0.0]).unwrap();
        }
        // Age horizon of 3 ticks at tick 18 keeps ticks 16 and 18 only.
        assert_eq!(stream.window_len(), 2);
        assert_eq!(stream.window_points(), vec![vec![8.0, 0.0], vec![9.0, 0.0]]);
        assert_eq!(stream.stats().events_evicted, 8);
        // Regressing ticks are rejected without ingesting.
        let err = stream.ingest_at(5, vec![0.0, 0.0]).unwrap_err();
        assert_eq!(err, StreamError::NonMonotonicTick { last: 18, got: 5 });
        assert_eq!(stream.window_len(), 2);
    }

    #[test]
    fn seeding_is_never_age_evicted_at_construction() {
        // A seed longer than the age horizon must survive construction
        // intact: seeds are a snapshot at stream start, not a sequence
        // spread across fabricated time.
        let config = StreamConfig {
            capacity: 10_000,
            max_age_ticks: Some(10),
            policy: RefitPolicy::Manual,
            ..StreamConfig::default()
        };
        let stream = stream_over(config, grid_with_isolate());
        assert_eq!(stream.window_len(), 101);
        assert_eq!(stream.stats().events_evicted, 0);
        assert_eq!(stream.stats().model.num_points, 101);
    }

    #[test]
    fn regressing_ticks_stay_rejected_after_seeds_rotate_out() {
        // Capacity eviction can keep the window length equal to the
        // seed count; the time base must still not be re-adopted over
        // real events, so a regressing ingest_at stays an error.
        let config = StreamConfig {
            capacity: 4,
            policy: RefitPolicy::Manual,
            min_refit_points: 2,
            ..StreamConfig::default()
        };
        let stream = stream_over(config, vec![vec![0.0, 0.0]; 4]);
        for _ in 0..3 {
            stream.ingest(vec![1.0, 1.0]); // auto ticks 1..=3
        }
        let err = stream.ingest_at(1, vec![2.0, 2.0]).unwrap_err();
        assert_eq!(err, StreamError::NonMonotonicTick { last: 3, got: 1 });
    }

    #[test]
    fn auto_tick_streams_age_seeds_gradually() {
        // With auto ticks (one per event), seeds at the stream-start
        // tick must survive until max_age_ticks events have passed —
        // not vanish at the first event because the clock jumped by the
        // seed count.
        let config = StreamConfig {
            capacity: 10_000,
            max_age_ticks: Some(50),
            policy: RefitPolicy::Manual,
            ..StreamConfig::default()
        };
        let stream = stream_over(config, grid_with_isolate());
        for i in 0..50 {
            let e = stream.ingest(vec![i as f64, 0.0]);
            assert_eq!(e.tick, i + 1, "one tick per event");
        }
        // Horizon is still at the start: seeds survive 50 events in.
        assert_eq!(stream.window_len(), 151);
        // One more event pushes the horizon past the start: the seed
        // snapshot ages out together.
        stream.ingest(vec![0.0, 0.0]);
        assert_eq!(stream.window_len(), 51);
        assert_eq!(stream.stats().events_evicted, 101);
    }

    #[test]
    fn first_real_tick_adopts_the_time_base_for_seeds() {
        let config = StreamConfig {
            capacity: 256,
            max_age_ticks: Some(60_000),
            policy: RefitPolicy::Manual,
            ..StreamConfig::default()
        };
        // Epoch-scale ticks: the 101 seeds must survive the first real
        // event's age horizon instead of being mass-evicted.
        let stream = stream_over(config.clone(), grid_with_isolate());
        let epoch = 1_700_000_000_000u64;
        stream.ingest_at(epoch, vec![4.0, 4.0]).unwrap();
        assert_eq!(stream.window_len(), 102);
        assert_eq!(stream.stats().events_evicted, 0);
        // The adopted base still drives aging afterwards: everything at
        // the base tick (seeds and the first event) falls off the
        // horizon together.
        stream.ingest_at(epoch + 60_001, vec![5.0, 5.0]).unwrap();
        assert_eq!(stream.window_len(), 1, "seeds aged out in caller units");

        // Small-unit ticks: not rejected against seed sequence numbers.
        let stream = stream_over(config, grid_with_isolate());
        let e = stream.ingest_at(3, vec![4.0, 4.0]).unwrap();
        assert_eq!(e.tick, 3);
        assert_eq!(stream.window_len(), 102);
    }

    #[test]
    fn empty_seed_cold_start_is_degenerate_until_refit() {
        let stream = stream_over(manual_config(32), vec![]);
        let e = stream.ingest(vec![1.0, 1.0]);
        assert_eq!(e.score, 0.0);
        assert!(!e.flagged);
        assert!(stream.stats().model.degenerate);
        for i in 0..31 {
            stream.ingest(vec![(i % 8) as f64, (i / 8) as f64]);
        }
        stream.refit_now().unwrap();
        assert!(!stream.stats().model.degenerate);
        assert!(stream.score(&vec![900.0, 900.0]) > 0.0);
    }

    #[test]
    fn invalid_config_is_rejected_before_spawning() {
        let err = StreamDetector::<Vec<f64>, _, _>::new(
            StreamConfig {
                capacity: 0,
                ..StreamConfig::default()
            },
            McCatch::builder().build().unwrap(),
            Euclidean,
            KdTreeBuilder::default(),
            vec![],
        )
        .err()
        .unwrap();
        assert_eq!(err, StreamError::InvalidCapacity { got: 0 });
    }

    #[test]
    fn works_on_the_slim_tree_general_path() {
        let stream = StreamDetector::new(
            manual_config(256),
            McCatch::builder().build().unwrap(),
            Euclidean,
            SlimTreeBuilder::default(),
            grid_with_isolate(),
        )
        .unwrap();
        let ok = stream.ingest(vec![5.0, 5.0]);
        let bad = stream.ingest(vec![-400.0, 0.0]);
        assert!(bad.score > ok.score);
    }

    #[test]
    fn request_refit_coalesces_when_queue_is_full() {
        let stream = stream_over(manual_config(64), grid_with_isolate());
        let mut enqueued = 0u32;
        let mut coalesced = 0u32;
        // Fire many requests back to back; the bounded queue (depth 1)
        // must coalesce most of them rather than pile them up.
        for _ in 0..50 {
            if stream.request_refit() {
                enqueued += 1;
            } else {
                coalesced += 1;
            }
        }
        assert!(enqueued >= 1);
        let stats = stream.stats();
        assert_eq!(stats.refits_requested, 50);
        assert_eq!(stats.refits_coalesced as u32, coalesced);
        assert!(wait_until(|| {
            let s = stream.stats();
            s.refits_completed + s.refits_skipped == enqueued as u64 && s.refit_queue_depth == 0
        }));
    }
}
