//! Serving utilities: hold a fitted model behind a swappable handle.
//!
//! The serving story MCCATCH's staging enables (fit once — the expensive
//! tree, diameter, and radius-grid stages of Alg. 1 — then answer cheaply
//! forever) needs one more piece for a real service: the model must be
//! **replaceable** while requests are in flight. Reference data changes,
//! a periodic refit job produces a fresh model, and readers must never
//! block on the writer or see a half-updated fit.
//!
//! [`ModelStore`] is that piece: an atomic snapshot/swap cell over the
//! type-erased [`Model`] handle.
//!
//! * **Readers** call [`ModelStore::snapshot`] (or the scoring
//!   conveniences) and get an `Arc<dyn Model<P>>` — a consistent model
//!   that stays alive for as long as they hold it, even if a swap happens
//!   mid-request. Readers that tag their answers with the model version
//!   (e.g. the `mccatch-stream` per-event scorer) use
//!   [`ModelStore::snapshot_tagged`], which pairs the model with its
//!   generation atomically.
//! * **The refit job** fits a new model on fresh data and calls
//!   [`ModelStore::swap`]; subsequent snapshots see the new model, old
//!   snapshots drain naturally, and the old model is freed when the last
//!   reader drops it.
//!
//! ```
//! use mccatch_core::serve::ModelStore;
//! use mccatch_core::McCatch;
//! use mccatch_index::KdTreeBuilder;
//! use mccatch_metric::Euclidean;
//!
//! let detector = McCatch::builder().build()?;
//! let day1: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
//!     .collect();
//! let store = ModelStore::new(
//!     detector
//!         .fit(day1, Euclidean, KdTreeBuilder::default())?
//!         .into_model(),
//! );
//!
//! // Serve...
//! let scores = store.score_batch(&[vec![4.5, 4.5], vec![500.0, 500.0]]);
//! assert!(scores[1] > scores[0]);
//!
//! // ...refit on fresh data and swap atomically; readers never block.
//! let day2: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![(i % 10) as f64 + 500.0, (i / 10) as f64])
//!     .collect();
//! let old = store.swap(
//!     detector
//!         .fit(day2, Euclidean, KdTreeBuilder::default())?
//!         .into_model(),
//! );
//! assert_eq!(old.stats().num_points, 100);
//! assert_eq!(store.generation(), 1);
//! let scores = store.score_batch(&[vec![504.0, 4.0]]);
//! assert_eq!(scores[0], 0.0); // an inlier of the *new* reference set
//! # Ok::<(), mccatch_core::McCatchError>(())
//! ```

use crate::model::Model;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A thread-safe cell holding the current fitted model of a service,
/// supporting lock-brief snapshots and atomic swap-on-refit.
///
/// The store itself is `Send + Sync` (share it via `Arc<ModelStore<P>>`
/// or a `static`); every method takes `&self`. The inner lock is held
/// only for the instant of cloning or replacing the `Arc` — scoring and
/// detection always run lock-free on a snapshot.
///
/// The snapshot/swap-on-refit cycle, end to end:
///
/// ```
/// use mccatch_core::serve::ModelStore;
/// use mccatch_core::McCatch;
/// use mccatch_index::KdTreeBuilder;
/// use mccatch_metric::Euclidean;
///
/// let detector = McCatch::builder().build()?;
/// let fit = |shift: f64| {
///     let pts: Vec<Vec<f64>> = (0..100)
///         .map(|i| vec![(i % 10) as f64 + shift, (i / 10) as f64])
///         .collect();
///     detector
///         .fit(pts, Euclidean, KdTreeBuilder::default())
///         .map(|fitted| fitted.into_model())
/// };
/// let store = ModelStore::new(fit(0.0)?);
///
/// // A reader takes a snapshot: a consistent model that stays valid
/// // (and alive) across any number of later swaps.
/// let snapshot = store.snapshot();
/// let before = snapshot.score_batch(&[vec![4.5, 4.5]])[0];
///
/// // The refit job swaps in a model fitted on fresh data; the old
/// // model is returned for logging or diffing.
/// let old = store.swap(fit(1000.0)?);
/// assert_eq!(old.stats().num_points, 100);
/// assert_eq!(store.generation(), 1);
///
/// // The reader's snapshot still answers identically; new snapshots
/// // see the new reference set.
/// assert_eq!(snapshot.score_batch(&[vec![4.5, 4.5]])[0], before);
/// assert!(store.score_batch(&[vec![4.5, 4.5]])[0] > before);
/// # Ok::<(), mccatch_core::McCatchError>(())
/// ```
pub struct ModelStore<P> {
    current: RwLock<Arc<dyn Model<P>>>,
    generation: AtomicU64,
}

impl<P> ModelStore<P> {
    /// Creates a store serving `model` (generation 0).
    pub fn new(model: Arc<dyn Model<P>>) -> Self {
        Self {
            current: RwLock::new(model),
            generation: AtomicU64::new(0),
        }
    }

    /// Creates a store serving `model` at an explicit starting
    /// generation — the warm-restart constructor: a process that loads a
    /// persisted snapshot resumes the generation counter where the saved
    /// process left off, so clients correlating answers by the
    /// `X-Mccatch-Generation` tag never see it regress across a restart.
    pub fn with_generation(model: Arc<dyn Model<P>>, generation: u64) -> Self {
        Self {
            current: RwLock::new(model),
            generation: AtomicU64::new(generation),
        }
    }

    /// The current model. The returned `Arc` stays valid (and keeps the
    /// model alive) across any number of later swaps.
    pub fn snapshot(&self) -> Arc<dyn Model<P>> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The current model paired with its generation, read atomically:
    /// the returned generation is exactly the number of swaps that
    /// produced the returned model. Use this when answers are tagged
    /// with the model version (e.g. per-event streaming scores), where
    /// a separate [`snapshot`](Self::snapshot) +
    /// [`generation`](Self::generation) pair could straddle a
    /// concurrent [`swap`](Self::swap) and mislabel the model.
    pub fn snapshot_tagged(&self) -> (Arc<dyn Model<P>>, u64) {
        let slot = self.current.read().unwrap_or_else(|e| e.into_inner());
        // `swap` bumps the generation while holding the write lock, so
        // reading it under the read lock pairs it with the model.
        (Arc::clone(&slot), self.generation.load(Ordering::Acquire))
    }

    /// Replaces the served model, returning the previous one (so the
    /// refit job can log its final stats or diff the two). Increments
    /// [`generation`](Self::generation). In-flight snapshots of the old
    /// model keep working until dropped.
    pub fn swap(&self, next: Arc<dyn Model<P>>) -> Arc<dyn Model<P>> {
        let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
        let old = std::mem::replace(&mut *slot, next);
        self.generation.fetch_add(1, Ordering::AcqRel);
        old
    }

    /// Number of [`swap`](Self::swap)s performed so far; 0 for a freshly
    /// created store. Useful for staleness checks and health endpoints.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Scores a batch against one consistent snapshot of the current
    /// model. The model splits a batch whose queries project enough work
    /// into parallel chunks (up to its fit's resolved thread count), so
    /// this is the right call for large batches that must be scored
    /// against a single model version.
    pub fn score_batch(&self, queries: &[P]) -> Vec<f64> {
        self.snapshot().score_batch(queries)
    }

    /// Scores a single query against the current model without
    /// allocating a one-element batch — the per-event serving path (see
    /// [`Model::score_one`]).
    pub fn score_one(&self, query: &P) -> f64 {
        self.snapshot().score_one(query)
    }

    /// Scores a long, interruptible batch in chunks of `chunk_size`
    /// queries, re-snapshotting before each chunk: a [`swap`](Self::swap)
    /// lands between chunks instead of waiting for the whole batch.
    /// Prefer [`score_batch`](Self::score_batch) when the batch must be
    /// consistent against one model version.
    pub fn score_chunked(&self, queries: &[P], chunk_size: usize) -> Vec<f64> {
        let chunk = chunk_size.max(1);
        let mut out = Vec::with_capacity(queries.len());
        for c in queries.chunks(chunk) {
            out.extend(self.snapshot().score_batch(c));
        }
        out
    }
}

impl<P> std::fmt::Debug for ModelStore<P> {
    // Deliberately does NOT touch the model: `stats()` runs the detection
    // pipeline on first use, and debug-formatting must stay cheap and
    // side-effect free.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelStore")
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::McCatch;
    use mccatch_index::SlimTreeBuilder;
    use mccatch_metric::Euclidean;

    fn model_over(shift: f64) -> Arc<dyn Model<Vec<f64>>> {
        let pts: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64 + shift, (i / 10) as f64])
            .collect();
        McCatch::builder()
            .build()
            .unwrap()
            .fit(pts, Euclidean, SlimTreeBuilder::default())
            .unwrap()
            .into_model()
    }

    #[test]
    fn snapshot_survives_swap() {
        let store = ModelStore::new(model_over(0.0));
        let before = store.snapshot();
        let q = vec![vec![4.5, 4.5]];
        let score_before = before.score_batch(&q)[0];
        store.swap(model_over(1000.0));
        // The old snapshot still answers identically.
        assert_eq!(before.score_batch(&q)[0], score_before);
        // The store now answers from the new model.
        assert!(store.score_batch(&q)[0] > score_before);
        assert_eq!(store.generation(), 1);
    }

    #[test]
    fn snapshot_tagged_pairs_model_with_generation() {
        let store = ModelStore::new(model_over(0.0));
        let (m0, g0) = store.snapshot_tagged();
        assert_eq!(g0, 0);
        store.swap(model_over(500.0));
        let (m1, g1) = store.snapshot_tagged();
        assert_eq!(g1, 1);
        // The tagged pairs answer from their own model versions.
        let q = vec![4.5, 4.5];
        assert!(m1.score_one(&q) > m0.score_one(&q));
    }

    #[test]
    fn with_generation_resumes_the_counter() {
        let store = ModelStore::with_generation(model_over(0.0), 7);
        assert_eq!(store.generation(), 7);
        let (_, g) = store.snapshot_tagged();
        assert_eq!(g, 7);
        store.swap(model_over(1.0));
        assert_eq!(store.generation(), 8);
    }

    #[test]
    fn score_one_matches_score_batch() {
        let store = ModelStore::new(model_over(0.0));
        for q in [vec![4.5, 4.5], vec![2000.0, -3.0], vec![0.0, 0.0]] {
            assert_eq!(
                store.score_one(&q),
                store.score_batch(std::slice::from_ref(&q))[0]
            );
        }
    }

    #[test]
    fn concurrent_readers_and_swaps() {
        let store = Arc::new(ModelStore::new(model_over(0.0)));
        let q = vec![vec![4.5, 4.5], vec![2000.0, 2000.0]];
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let q = q.clone();
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let s = store.score_batch(&q);
                        // Every observed model version agrees the far point
                        // is at least as strange as the near one.
                        assert!(s[1] >= s[0]);
                    }
                })
            })
            .collect();
        for gen in 0..3 {
            store.swap(model_over(gen as f64 * 10.0));
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(store.generation(), 3);
    }

    #[test]
    fn score_chunked_matches_batch_without_swaps() {
        let store = ModelStore::new(model_over(0.0));
        let queries: Vec<Vec<f64>> = (0..57).map(|i| vec![i as f64 * 0.3, 1.0]).collect();
        assert_eq!(
            store.score_chunked(&queries, 10),
            store.score_batch(&queries)
        );
        // chunk_size 0 is clamped, not a panic or an empty result.
        assert_eq!(
            store.score_chunked(&queries, 0),
            store.score_batch(&queries)
        );
    }
}
