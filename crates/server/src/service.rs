//! The bridge between the HTTP layer and the serving primitives: a
//! type-erased [`Service`] over one [`Tenant`]'s shard set.
//!
//! The HTTP machinery (parser, pool, routing) is deliberately
//! non-generic — it talks to `dyn Service`, the same erasure move
//! `Arc<dyn Model<P>>` makes one layer down. [`TenantService`] is the
//! one implementation, for the default tenant behind the bare endpoints
//! and for every named tenant alike: it scores batches against one
//! tagged snapshot per shard, routes ingests through the tenant's
//! bounded per-shard admission (driving the drift/every-N refit
//! policies exactly as a library caller would), persists the tenant's
//! snapshot set, and exposes the counters `/metrics` renders.

use crate::ndjson::{body_lines, write_json_f64, write_scored_event_json, LineParser};
use mccatch_core::ModelStats;
use mccatch_index::IndexBuilder;
use mccatch_metric::Metric;
use mccatch_obs::json_escape;
use mccatch_persist::PersistPoint;
use mccatch_stream::StreamStats;
use mccatch_tenant::{
    shard_file_path, RouteKey, ShardQueue, Tenant, TenantError, TenantMap, TenantRestoreStats,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Result of processing one NDJSON request body: the response body
/// (one JSON object per input line) plus the generation tag and the
/// per-line accounting for the request counters.
pub(crate) struct NdjsonOutcome {
    /// The model generation this request is attributed to (the
    /// `X-Mccatch-Generation` response header).
    pub generation: u64,
    /// The NDJSON response body.
    pub body: String,
    /// Lines that parsed and were scored/ingested.
    pub lines_ok: u64,
    /// Lines answered with a per-line error object.
    pub lines_err: u64,
}

/// Result of `POST /admin/snapshot`.
pub(crate) enum SnapshotOutcome {
    /// No snapshot path configured — answered `409`.
    Unconfigured,
    /// The snapshot was written atomically.
    Saved {
        /// Generation of the persisted model.
        generation: u64,
        /// Stream position (events accepted) at capture time.
        seq: u64,
        /// Snapshot size on disk.
        bytes: u64,
        /// Where it was written.
        path: String,
    },
    /// Capturing or writing the snapshot failed — answered `500`.
    Failed(String),
}

/// Result of `GET /admin/snapshot/info`.
pub(crate) enum SnapshotInfoOutcome {
    /// No snapshot path configured — answered `409`.
    Unconfigured,
    /// Configured, but no snapshot has been written yet — answered
    /// `404`.
    Missing {
        /// The configured path that does not exist.
        path: String,
    },
    /// Header metadata of the snapshot on disk, as a JSON object.
    Info(String),
    /// The file exists but its header cannot be parsed — answered
    /// `500`.
    Failed(String),
}

/// What the HTTP layer needs from the scoring backend, erased over the
/// point, metric, and index types.
pub(crate) trait Service: Send + Sync {
    /// `POST /score`: scores every line against **one** tagged model
    /// snapshot per shard; the windows are untouched.
    fn score_ndjson(&self, body: &[u8]) -> NdjsonOutcome;
    /// `POST /ingest`: routes every line to its shard's stream detector
    /// (prequential scoring + window push + refit policy).
    fn ingest_ndjson(&self, body: &[u8]) -> NdjsonOutcome;
    /// `POST /admin/refit`: synchronous refit, returning the new
    /// generation.
    fn refit_now(&self) -> Result<u64, String>;
    /// Current served-model generation: the sum of the shard
    /// generations (monotone).
    fn generation(&self) -> u64;
    /// Stream counters for `/metrics`.
    fn stream_stats(&self) -> StreamStats;
    /// Summary of the currently served model for `/metrics`.
    fn model_stats(&self) -> ModelStats;
    /// Live distance evaluations of the served model's reference tree
    /// (fit **plus** serving queries so far) for `/metrics`.
    fn live_distance_evals(&self) -> u64;
    /// `POST /admin/snapshot`: persists the tenant's snapshot set under
    /// the configured base path.
    fn save_snapshot(&self) -> SnapshotOutcome;
    /// `GET /admin/snapshot/info`: header metadata of the snapshot on
    /// disk.
    fn snapshot_info(&self) -> SnapshotInfoOutcome;
    /// Per-shard ingest-admission gauges for `/metrics`.
    fn shard_queues(&self) -> Vec<ShardQueue>;
    /// What this tenant's warm restart recovered, for the per-tenant
    /// restore counters on `/metrics` — `None` for a tenant created
    /// live rather than restored from disk.
    fn restore_stats(&self) -> Option<TenantRestoreStats>;
}

/// Renders one per-line error object.
fn error_line(line_no: usize, message: &str) -> String {
    format!(
        "{{\"line\": {line_no}, \"error\": \"{}\"}}",
        json_escape(message)
    )
}

/// Reads the snapshot header at `path` into the `/admin/snapshot/info`
/// outcome.
fn snapshot_info_at(path: &Path) -> SnapshotInfoOutcome {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return SnapshotInfoOutcome::Missing {
                path: path.display().to_string(),
            }
        }
        Err(e) => return SnapshotInfoOutcome::Failed(e.to_string()),
    };
    let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
    match mccatch_persist::read_info(std::io::BufReader::new(file)) {
        Ok(info) => SnapshotInfoOutcome::Info(format!(
            "{{\"version\": {}, \"backend\": \"{}\", \"point_kind\": {}, \"dim\": {}, \
             \"num_points\": {}, \"generation\": {}, \"seq\": {}, \"bytes\": {bytes}, \
             \"path\": \"{}\"}}\n",
            info.version,
            json_escape(&info.backend),
            info.point_kind,
            info.dim,
            info.num_points,
            info.generation,
            info.seq,
            json_escape(&path.display().to_string()),
        )),
        Err(e) => SnapshotInfoOutcome::Failed(e.to_string()),
    }
}

/// Sums per-shard stream counters into one tenant-level view for
/// `/metrics`: counters and lengths add; the generation is the tenant
/// generation (sum of shard generations). The embedded model summary is
/// aggregated by [`aggregate_model_stats`].
fn aggregate_stream_stats(shards: &[StreamStats]) -> StreamStats {
    let mut agg = StreamStats::default();
    for s in shards {
        agg.events_ingested += s.events_ingested;
        agg.events_scored += s.events_scored;
        agg.events_evicted += s.events_evicted;
        agg.window_len += s.window_len;
        agg.window_capacity += s.window_capacity;
        agg.generation += s.generation;
        agg.refits_requested += s.refits_requested;
        agg.refits_coalesced += s.refits_coalesced;
        agg.refits_completed += s.refits_completed;
        agg.refits_skipped += s.refits_skipped;
        agg.refits_failed += s.refits_failed;
        agg.refit_queue_depth += s.refit_queue_depth;
        agg.fit_distance_evals += s.fit_distance_evals;
    }
    agg.model = aggregate_model_stats(shards.iter().map(|s| &s.model));
    agg
}

/// Folds per-shard model summaries into one tenant-level view: sizes
/// and costs add, the cutoff is the ensemble-relevant **minimum**
/// (scores serve the shard minimum), the diameter/radii report the
/// widest shard, and the ensemble is degenerate only when every shard
/// is.
fn aggregate_model_stats<'a>(shards: impl Iterator<Item = &'a ModelStats>) -> ModelStats {
    let mut agg = ModelStats {
        cutoff_d: f64::INFINITY,
        degenerate: true,
        ..ModelStats::default()
    };
    for m in shards {
        agg.num_points += m.num_points;
        agg.diameter = agg.diameter.max(m.diameter);
        agg.num_radii = agg.num_radii.max(m.num_radii);
        agg.cutoff_d = agg.cutoff_d.min(m.cutoff_d);
        agg.num_outliers += m.num_outliers;
        agg.num_microclusters += m.num_microclusters;
        agg.distance_evals += m.distance_evals;
        agg.degenerate &= m.degenerate;
    }
    agg
}

/// The [`Service`] over one tenant's shard set: scoring fanned out to
/// the shard ensemble (element-wise minimum) and ingest routed by point
/// key through the tenant's bounded per-shard admission. The default
/// tenant has one shard, so its `/score` bodies are byte-identical to a
/// plain detector's (the tenant layer's bit-equality property).
pub(crate) struct TenantService<P, M, B> {
    tenant: Arc<Tenant<P, M, B>>,
    parse: LineParser<P>,
    /// Snapshots live at `{base}.{tenant}.{shard}` (the tenant crate's
    /// [`shard_file_path`] layout); `None` answers `409`.
    snapshot_base: Option<PathBuf>,
}

impl<P, M, B> TenantService<P, M, B> {
    pub fn new(
        tenant: Arc<Tenant<P, M, B>>,
        parse: LineParser<P>,
        snapshot_base: Option<PathBuf>,
    ) -> Self {
        Self {
            tenant,
            parse,
            snapshot_base,
        }
    }
}

impl<P, M, B> Service for TenantService<P, M, B>
where
    P: PersistPoint + RouteKey + Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    fn score_ndjson(&self, body: &[u8]) -> NdjsonOutcome {
        // One tagged snapshot per shard for the whole batch (the
        // tenant's `score_batch` contract): the generation tag is the
        // summed shard generations of that consistent snapshot set.
        let mut parsed: Vec<Result<(), (usize, String)>> = Vec::new();
        let mut points: Vec<P> = Vec::new();
        for (line_no, raw) in body_lines(body) {
            let entry = match std::str::from_utf8(raw) {
                Err(_) => Err((line_no, "invalid UTF-8".to_owned())),
                Ok(text) => match (self.parse)(text) {
                    Ok(p) => {
                        points.push(p);
                        Ok(())
                    }
                    Err(e) => Err((line_no, e)),
                },
            };
            parsed.push(entry);
        }
        let (scores, generation) = self.tenant.score_batch(&points);
        let mut body = String::new();
        let (mut lines_ok, mut lines_err) = (0u64, 0u64);
        let mut next_score = scores.into_iter();
        for entry in &parsed {
            match entry {
                Ok(_) => {
                    let s = next_score.next().expect("one score per parsed point");
                    body.push_str("{\"score\": ");
                    write_json_f64(&mut body, s);
                    body.push_str("}\n");
                    lines_ok += 1;
                }
                Err((line_no, msg)) => {
                    body.push_str(&error_line(*line_no, msg));
                    body.push('\n');
                    lines_err += 1;
                }
            }
        }
        NdjsonOutcome {
            generation,
            body,
            lines_ok,
            lines_err,
        }
    }

    fn ingest_ndjson(&self, body: &[u8]) -> NdjsonOutcome {
        let mut out = String::new();
        let (mut lines_ok, mut lines_err) = (0u64, 0u64);
        for (line_no, raw) in body_lines(body) {
            match std::str::from_utf8(raw)
                .map_err(|_| "invalid UTF-8".to_owned())
                .and_then(|text| (self.parse)(text))
            {
                // Routed ingest: the point's shard scores-then-learns it
                // alone. A saturated shard degrades per line — the
                // rejection becomes this line's error object while the
                // rest of the batch proceeds (backpressure is per
                // shard, not per batch).
                Ok(point) => match self.tenant.ingest(point) {
                    Ok(event) => {
                        write_scored_event_json(&mut out, &event);
                        out.push('\n');
                        lines_ok += 1;
                    }
                    Err(e) => {
                        out.push_str(&error_line(line_no, &e.to_string()));
                        out.push('\n');
                        lines_err += 1;
                    }
                },
                Err(msg) => {
                    out.push_str(&error_line(line_no, &msg));
                    out.push('\n');
                    lines_err += 1;
                }
            }
        }
        NdjsonOutcome {
            // The tenant generation (summed shard generations) is the
            // batch tag: monotone per tenant, so a client watching
            // `X-Mccatch-Generation` never sees it regress.
            generation: self.tenant.generation(),
            body: out,
            lines_ok,
            lines_err,
        }
    }

    fn refit_now(&self) -> Result<u64, String> {
        self.tenant.refit_now().map_err(|e| e.to_string())
    }

    fn generation(&self) -> u64 {
        self.tenant.generation()
    }

    fn stream_stats(&self) -> StreamStats {
        aggregate_stream_stats(&self.tenant.shard_stats())
    }

    fn model_stats(&self) -> ModelStats {
        let stats: Vec<ModelStats> = (0..self.tenant.shards())
            .filter_map(|i| self.tenant.shard_detector(i))
            .map(|d| d.model().stats())
            .collect();
        aggregate_model_stats(stats.iter())
    }

    fn live_distance_evals(&self) -> u64 {
        (0..self.tenant.shards())
            .filter_map(|i| self.tenant.shard_detector(i))
            .map(|d| d.model().distance_stats().evals)
            .sum()
    }

    fn save_snapshot(&self) -> SnapshotOutcome {
        let Some(base) = &self.snapshot_base else {
            return SnapshotOutcome::Unconfigured;
        };
        // The tenant crate owns the whole per-tenant layout: one atomic
        // snapshot file per shard, replay-log rotation under the ingest
        // lock, and the manifest written last so the *set* is atomic.
        // The reported path is the per-tenant pattern; generation/seq
        // are the tenant-level sums of the captured checkpoints.
        match self.tenant.save_snapshot(base) {
            Ok(stats) => SnapshotOutcome::Saved {
                generation: stats.generation,
                seq: stats.seq,
                bytes: stats.bytes,
                path: format!("{}.{}.*", base.display(), self.tenant.name()),
            },
            Err(e) => SnapshotOutcome::Failed(e.to_string()),
        }
    }

    fn snapshot_info(&self) -> SnapshotInfoOutcome {
        let Some(base) = &self.snapshot_base else {
            return SnapshotInfoOutcome::Unconfigured;
        };
        // Shard 0 is the representative header (all shards are written
        // by the same save call); its path is what the JSON reports.
        snapshot_info_at(&shard_file_path(base, self.tenant.name(), 0))
    }

    fn shard_queues(&self) -> Vec<ShardQueue> {
        self.tenant.queue_stats()
    }

    fn restore_stats(&self) -> Option<TenantRestoreStats> {
        self.tenant.restore_stats()
    }
}

/// What the router needs from the tenant registry, erased over the
/// point, metric, and index types (the same move [`Service`] makes for
/// one tenant).
pub(crate) trait TenantRegistry: Send + Sync {
    /// The per-tenant [`Service`] facade of `name`, if the tenant
    /// exists.
    fn get(&self, name: &str) -> Option<Arc<dyn Service>>;
    /// `PUT /admin/tenants/{name}`: creates the tenant, seeded from the
    /// request body (the same NDJSON lines as `/ingest`; empty body =
    /// cold start). `Ok(true)` created it, `Ok(false)` found it already
    /// present (idempotent PUT); `Err` is a client-visible message.
    fn create(&self, name: &str, seed_body: &[u8]) -> Result<bool, String>;
    /// `DELETE /admin/tenants/{name}`: unlinks the tenant; `false` when
    /// it did not exist. In-flight requests holding its service finish.
    fn delete(&self, name: &str) -> bool;
    /// Live tenant names, sorted.
    fn names(&self) -> Vec<String>;
    /// Shards every tenant is stamped with (for lifecycle responses).
    fn shards(&self) -> usize;
}

/// The [`TenantRegistry`] over a [`TenantMap`], stamping a
/// [`TenantService`] per lookup (the service is a thin handle: an
/// `Arc`, a parser `Arc`, and a path clone).
pub(crate) struct MapRegistry<P, M, B> {
    map: Arc<TenantMap<P, M, B>>,
    parse: LineParser<P>,
    snapshot_base: Option<PathBuf>,
}

impl<P, M, B> MapRegistry<P, M, B> {
    pub fn new(
        map: Arc<TenantMap<P, M, B>>,
        parse: LineParser<P>,
        snapshot_base: Option<PathBuf>,
    ) -> Self {
        Self {
            map,
            parse,
            snapshot_base,
        }
    }
}

impl<P, M, B> TenantRegistry for MapRegistry<P, M, B>
where
    P: PersistPoint + RouteKey + Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    fn get(&self, name: &str) -> Option<Arc<dyn Service>> {
        self.map.get(name).map(|tenant| {
            Arc::new(TenantService::new(
                tenant,
                Arc::clone(&self.parse),
                self.snapshot_base.clone(),
            )) as Arc<dyn Service>
        })
    }

    fn create(&self, name: &str, seed_body: &[u8]) -> Result<bool, String> {
        // Creation is all-or-nothing: any unparsable seed line rejects
        // the whole PUT (unlike /ingest's per-line degradation) so a
        // tenant never boots from a silently truncated seed.
        let mut seed = Vec::new();
        for (line_no, raw) in body_lines(seed_body) {
            let text = std::str::from_utf8(raw)
                .map_err(|_| format!("seed line {line_no}: invalid UTF-8"))?;
            seed.push((self.parse)(text).map_err(|e| format!("seed line {line_no}: {e}"))?);
        }
        match self.map.create_seeded(name, seed) {
            Ok(_) => Ok(true),
            Err(TenantError::AlreadyExists { .. }) => Ok(false),
            Err(e) => Err(e.to_string()),
        }
    }

    fn delete(&self, name: &str) -> bool {
        self.map.remove(name).is_ok()
    }

    fn names(&self) -> Vec<String> {
        self.map.names()
    }

    fn shards(&self) -> usize {
        self.map.spec().shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndjson::parse_vector_line;
    use mccatch_core::McCatch;
    use mccatch_index::KdTreeBuilder;
    use mccatch_metric::Euclidean;
    use mccatch_stream::{RefitPolicy, StreamConfig};

    type VecMap = TenantMap<Vec<f64>, Euclidean, KdTreeBuilder>;

    fn map(shards: usize) -> VecMap {
        TenantMap::new(
            McCatch::builder().build().unwrap(),
            Euclidean,
            KdTreeBuilder::default(),
            mccatch_tenant::TenantSpec {
                shards,
                stream: StreamConfig {
                    capacity: 512,
                    policy: RefitPolicy::Manual,
                    ..StreamConfig::default()
                },
                ingest_queue: 64,
                replay: None,
            },
        )
        .unwrap()
    }

    fn seed() -> Vec<Vec<f64>> {
        let mut seed: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
            .collect();
        seed.push(vec![500.0, 500.0]);
        seed
    }

    /// The default tenant's service — one shard, whatever the map's
    /// shard count — exactly as the server mounts it on the bare paths.
    fn service() -> TenantService<Vec<f64>, Euclidean, KdTreeBuilder> {
        let default = map(2).create_default(seed()).unwrap();
        TenantService::new(default, Arc::new(parse_vector_line), None)
    }

    #[test]
    fn score_interleaves_results_with_per_line_errors() {
        let svc = service();
        let out = svc.score_ndjson(b"[4.5, 4.5]\nnot json\n[900.0, 900.0]\n\xff\xfe\n");
        assert_eq!(out.generation, 0);
        assert_eq!((out.lines_ok, out.lines_err), (2, 2));
        let lines: Vec<&str> = out.body.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"score\": "));
        assert!(lines[1].contains("\"line\": 2") && lines[1].contains("error"));
        assert!(lines[2].starts_with("{\"score\": "));
        assert!(lines[3].contains("\"line\": 4") && lines[3].contains("UTF-8"));
        // Scoring does not ingest: the window is untouched.
        assert_eq!(svc.stream_stats().events_scored, 0);
    }

    #[test]
    fn score_is_bit_identical_to_the_model_store() {
        let svc = service();
        let queries = vec![vec![4.5, 4.5], vec![250.0, -3.0]];
        let store = svc.tenant.shard_detector(0).unwrap().store();
        let direct = store.score_batch(&queries);
        let out = svc.score_ndjson(b"[4.5, 4.5]\n[250.0, -3.0]\n");
        let served: Vec<f64> = out
            .body
            .lines()
            .map(|l| {
                l.strip_prefix("{\"score\": ")
                    .and_then(|l| l.strip_suffix('}'))
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(
            direct, served,
            "wire scores must round-trip bit-identically"
        );
    }

    #[test]
    fn ingest_returns_scored_events_and_feeds_the_window() {
        let svc = service();
        let before = svc.stream_stats().events_ingested;
        let out = svc.ingest_ndjson(b"[4.0, 4.0]\nbroken\n[900.0, 900.0]\n");
        assert_eq!((out.lines_ok, out.lines_err), (2, 1));
        let lines: Vec<&str> = out.body.lines().collect();
        assert!(lines[0].contains("\"seq\": ") && lines[0].contains("\"flagged\": false"));
        assert!(lines[2].contains("\"flagged\": true"));
        assert_eq!(svc.stream_stats().events_ingested, before + 2);
        // Ingest goes through the bounded admission, which drained.
        let queues = svc.shard_queues();
        assert_eq!(queues.len(), 1);
        assert_eq!((queues[0].depth, queues[0].rejected), (0, 0));
    }

    #[test]
    fn refit_now_advances_the_generation() {
        let svc = service();
        assert_eq!(svc.generation(), 0);
        assert_eq!(svc.refit_now(), Ok(1));
        assert_eq!(svc.generation(), 1);
    }

    fn registry(shards: usize) -> MapRegistry<Vec<f64>, Euclidean, KdTreeBuilder> {
        MapRegistry::new(Arc::new(map(shards)), Arc::new(parse_vector_line), None)
    }

    fn seed_body() -> Vec<u8> {
        seed()
            .iter()
            .map(|p| format!("[{}, {}]\n", p[0], p[1]))
            .collect::<String>()
            .into_bytes()
    }

    #[test]
    fn registry_lifecycle_is_idempotent_and_validating() {
        let reg = registry(2);
        assert_eq!(reg.create("a", b""), Ok(true));
        assert_eq!(reg.create("a", b""), Ok(false), "idempotent PUT");
        assert_eq!(reg.names(), vec!["a".to_owned()]);
        assert_eq!(reg.shards(), 2);
        // A bad seed line rejects the whole create: all-or-nothing.
        let err = reg.create("b", b"[1.0, 2.0]\nnot json\n").unwrap_err();
        assert!(err.contains("seed line 2"), "{err}");
        assert!(reg.get("b").is_none(), "failed create must not register");
        assert!(reg.delete("a") && !reg.delete("a"));
        assert!(reg.get("a").is_none());
    }

    #[test]
    fn tenant_ingest_reports_saturation_per_line() {
        let reg = registry(1);
        reg.create("t", &seed_body()).unwrap();
        let svc = reg.get("t").unwrap();
        let out = svc.ingest_ndjson(b"[4.0, 4.0]\nbroken\n[900.0, 900.0]\n");
        assert_eq!((out.lines_ok, out.lines_err), (2, 1));
        assert!(out
            .body
            .lines()
            .nth(2)
            .unwrap()
            .contains("\"flagged\": true"));
        // The aggregated stats see both ingests; queues drained.
        assert_eq!(svc.stream_stats().events_ingested, 103);
        let queues = svc.shard_queues();
        assert_eq!(queues.len(), 1);
        assert_eq!((queues[0].depth, queues[0].rejected), (0, 0));
    }

    #[test]
    fn aggregated_stats_sum_counters_and_min_the_cutoff() {
        let a = StreamStats {
            events_ingested: 10,
            window_len: 5,
            generation: 2,
            model: ModelStats {
                num_points: 5,
                cutoff_d: 3.0,
                degenerate: false,
                ..ModelStats::default()
            },
            ..StreamStats::default()
        };
        let b = StreamStats {
            events_ingested: 7,
            window_len: 4,
            generation: 1,
            model: ModelStats {
                num_points: 4,
                cutoff_d: 1.5,
                degenerate: true,
                ..ModelStats::default()
            },
            ..StreamStats::default()
        };
        let agg = aggregate_stream_stats(&[a, b]);
        assert_eq!(agg.events_ingested, 17);
        assert_eq!(agg.window_len, 9);
        assert_eq!(agg.generation, 3);
        assert_eq!(agg.model.num_points, 9);
        assert_eq!(agg.model.cutoff_d, 1.5);
        assert!(!agg.model.degenerate, "one live shard un-degenerates");
    }

    #[test]
    fn tenant_snapshot_paths_append_tenant_and_shard() {
        let p = shard_file_path(Path::new("/tmp/snap.bin"), "acme", 3);
        assert_eq!(p, PathBuf::from("/tmp/snap.bin.acme.3"));
    }
}
