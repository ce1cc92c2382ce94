//! Request counters and the Prometheus text exposition for `/metrics`.

use crate::obs::ServerObs;
use crate::service::Service;
use mccatch_core::ModelStats;
use mccatch_obs::{render_histogram, HistogramSnapshot};
use mccatch_stream::StreamStats;
use mccatch_tenant::{ShardQueue, TenantRestoreStats};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The endpoints with per-endpoint request counters and latency
/// histograms. Routing resolves each request to one of these **once**;
/// counters and histograms then index by the discriminant — no string
/// lookups on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// `POST /score`.
    Score,
    /// `POST /ingest`.
    Ingest,
    /// `POST /admin/refit`.
    Refit,
    /// `POST /admin/snapshot`.
    Snapshot,
    /// `GET /admin/snapshot/info`.
    SnapshotInfo,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// The `/admin/tenants` lifecycle routes.
    Tenants,
    /// `GET /admin/debug/trace`.
    DebugTrace,
}

impl Endpoint {
    /// Every endpoint, in exposition order (matches the discriminants).
    pub const ALL: [Endpoint; 9] = [
        Endpoint::Score,
        Endpoint::Ingest,
        Endpoint::Refit,
        Endpoint::Snapshot,
        Endpoint::SnapshotInfo,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Tenants,
        Endpoint::DebugTrace,
    ];

    /// Number of endpoints (the counter/histogram array length).
    pub const COUNT: usize = Self::ALL.len();

    /// The endpoints reachable under a `/t/{tenant}/…` scope.
    pub const SCOPED: [Endpoint; 5] = [
        Endpoint::Score,
        Endpoint::Ingest,
        Endpoint::Refit,
        Endpoint::Snapshot,
        Endpoint::SnapshotInfo,
    ];

    /// The array index of this endpoint.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The `endpoint` label value in the exposition.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Score => "score",
            Endpoint::Ingest => "ingest",
            Endpoint::Refit => "refit",
            Endpoint::Snapshot => "snapshot",
            Endpoint::SnapshotInfo => "snapshot_info",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Tenants => "tenants",
            Endpoint::DebugTrace => "debug_trace",
        }
    }
}

/// The status codes this server can emit, in exposition order.
pub(crate) const STATUSES: &[u16] = &[200, 400, 404, 405, 409, 413, 431, 500, 503];

/// The [`STATUSES`] index of `status`, resolved by a jump table rather
/// than a scan.
fn status_index(status: u16) -> Option<usize> {
    Some(match status {
        200 => 0,
        400 => 1,
        404 => 2,
        405 => 3,
        409 => 4,
        413 => 5,
        431 => 6,
        500 => 7,
        503 => 8,
        _ => return None,
    })
}

/// Lock-free counters of the HTTP layer, updated by the acceptor and
/// every worker; scraped (and unit-tested) through
/// [`render_prometheus`].
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Requests routed to each endpoint (indexed by [`Endpoint`]).
    pub requests: [AtomicU64; Endpoint::COUNT],
    /// Responses written per status code (parallel to [`STATUSES`]).
    pub responses: [AtomicU64; 9],
    /// Connections handed to the worker pool.
    pub connections_accepted: AtomicU64,
    /// Connections answered `503` because the queue was full.
    pub connections_rejected: AtomicU64,
    /// Accepted connections currently waiting for a worker.
    pub queue_depth: AtomicUsize,
    /// NDJSON lines scored or ingested successfully.
    pub lines_ok: AtomicU64,
    /// NDJSON lines answered with a per-line error object.
    pub lines_err: AtomicU64,
}

impl Counters {
    /// Bumps the request counter of `endpoint` — a direct array index,
    /// resolved once at routing.
    pub fn count_request(&self, endpoint: Endpoint) {
        self.requests[endpoint.index()].fetch_add(1, Ordering::AcqRel);
    }

    /// Bumps the response counter of `status` (a [`STATUSES`] member).
    pub fn count_response(&self, status: u16) {
        if let Some(i) = status_index(status) {
            self.responses[i].fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// Escapes a label **value** per the Prometheus text exposition format:
/// backslash, double quote, and newline must be escaped inside the
/// quoted value (`\\`, `\"`, `\n`); everything else passes through.
pub(crate) fn prom_label_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` the Prometheus exposition way (`+Inf`/`-Inf`/`NaN`
/// instead of JSON's `null`).
fn prom_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else if v.is_nan() {
        "NaN".to_owned()
    } else {
        format!("{v}")
    }
}

/// One tenant's scrape snapshot, collected by the router before
/// rendering so every family reads a single consistent sample per
/// tenant.
pub(crate) struct TenantScrape {
    /// The tenant's name (becomes the `tenant` label value, escaped).
    pub name: String,
    /// Aggregated stream counters across the tenant's shards.
    pub stream: StreamStats,
    /// Aggregated served-model summary across the tenant's shards.
    pub model: ModelStats,
    /// Aggregated live distance evaluations across the shards.
    pub live_evals: u64,
    /// Per-shard ingest-admission gauges.
    pub queues: Vec<ShardQueue>,
    /// What this tenant's warm restart recovered (`None` for a tenant
    /// created live rather than restored from disk at boot).
    pub restore: Option<TenantRestoreStats>,
}

impl TenantScrape {
    /// Samples one tenant's service facade.
    pub fn collect(name: String, service: &dyn Service) -> Self {
        Self {
            name,
            stream: service.stream_stats(),
            model: service.model_stats(),
            live_evals: service.live_distance_evals(),
            queues: service.shard_queues(),
            restore: service.restore_stats(),
        }
    }
}

/// Renders the full `/metrics` payload: server counters, stream
/// counters, the served model's summary, and the live per-backend
/// distance-evaluation total.
///
/// The default tenant's series (`service`) stay **unlabeled**, and each
/// named tenant in `scrapes` adds a `{tenant="…"}` series under the same
/// family, so single-tenant deployments and their scrape rules never
/// see a label they did not ask for.
pub(crate) fn render_prometheus(
    counters: &Counters,
    obs: &ServerObs,
    service: &dyn Service,
    index_label: &str,
    uptime: std::time::Duration,
    scrapes: &[TenantScrape],
) -> String {
    let stream = service.stream_stats();
    let model = service.model_stats();
    let mut out = String::with_capacity(4096);
    let mut metric = |name: &str, kind: &str, help: &str, series: &[(String, String)]| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (labels, value) in series {
            out.push_str(name);
            out.push_str(labels);
            out.push(' ');
            out.push_str(value);
            out.push('\n');
        }
    };
    let plain = |v: String| vec![(String::new(), v)];
    let tenant_label = |name: &str| format!("{{tenant=\"{}\"}}", prom_label_escape(name));
    // A family with the default tenant unlabeled plus one labeled
    // series per named tenant.
    let with_tenants = |default: String, per: &dyn Fn(&TenantScrape) -> String| {
        let mut v = vec![(String::new(), default)];
        for t in scrapes {
            v.push((tenant_label(&t.name), per(t)));
        }
        v
    };

    metric(
        "mccatch_server_requests_total",
        "counter",
        "Requests routed to each endpoint.",
        &Endpoint::ALL
            .iter()
            .zip(&counters.requests)
            .map(|(e, c)| {
                (
                    format!("{{endpoint=\"{}\"}}", e.name()),
                    c.load(Ordering::Acquire).to_string(),
                )
            })
            .collect::<Vec<_>>(),
    );
    metric(
        "mccatch_server_responses_total",
        "counter",
        "Responses written, by status code.",
        &STATUSES
            .iter()
            .zip(&counters.responses)
            .map(|(s, c)| {
                (
                    format!("{{status=\"{s}\"}}"),
                    c.load(Ordering::Acquire).to_string(),
                )
            })
            .collect::<Vec<_>>(),
    );
    metric(
        "mccatch_server_connections_accepted_total",
        "counter",
        "Connections handed to the worker pool.",
        &plain(
            counters
                .connections_accepted
                .load(Ordering::Acquire)
                .to_string(),
        ),
    );
    metric(
        "mccatch_server_connections_rejected_total",
        "counter",
        "Connections answered 503 under backpressure.",
        &plain(
            counters
                .connections_rejected
                .load(Ordering::Acquire)
                .to_string(),
        ),
    );
    metric(
        "mccatch_server_queue_depth",
        "gauge",
        "Accepted connections currently waiting for a worker.",
        &plain(counters.queue_depth.load(Ordering::Acquire).to_string()),
    );
    metric(
        "mccatch_server_ndjson_lines_total",
        "counter",
        "NDJSON request lines processed, by outcome.",
        &[
            (
                "{outcome=\"ok\"}".to_owned(),
                counters.lines_ok.load(Ordering::Acquire).to_string(),
            ),
            (
                "{outcome=\"error\"}".to_owned(),
                counters.lines_err.load(Ordering::Acquire).to_string(),
            ),
        ],
    );

    metric(
        "mccatch_uptime_seconds",
        "gauge",
        "Seconds since this server process started serving.",
        &plain(prom_f64(uptime.as_secs_f64())),
    );
    metric(
        "mccatch_log_dropped_lines_total",
        "counter",
        "Structured log lines that cleared the level gate but failed to reach the sink.",
        &plain(obs.logger.dropped_lines().to_string()),
    );
    let sampler = mccatch_obs::trace::sampler();
    metric(
        "mccatch_traces_finished_total",
        "counter",
        "Traces offered to the tail sampler (0 while tracing is disabled).",
        &plain(sampler.seen().to_string()),
    );
    metric(
        "mccatch_traces_sampled_total",
        "counter",
        "Traces kept by the tail sampler (slow or ending in error).",
        &plain(sampler.kept().to_string()),
    );

    metric(
        "mccatch_stream_events_ingested_total",
        "counter",
        "Events accepted into the sliding window (seed included).",
        &with_tenants(stream.events_ingested.to_string(), &|t| {
            t.stream.events_ingested.to_string()
        }),
    );
    metric(
        "mccatch_stream_events_scored_total",
        "counter",
        "Events scored at arrival.",
        &with_tenants(stream.events_scored.to_string(), &|t| {
            t.stream.events_scored.to_string()
        }),
    );
    metric(
        "mccatch_stream_events_evicted_total",
        "counter",
        "Events evicted from the window by capacity or age.",
        &with_tenants(stream.events_evicted.to_string(), &|t| {
            t.stream.events_evicted.to_string()
        }),
    );
    metric(
        "mccatch_stream_window_len",
        "gauge",
        "Events currently retained in the sliding window.",
        &with_tenants(stream.window_len.to_string(), &|t| {
            t.stream.window_len.to_string()
        }),
    );
    metric(
        "mccatch_stream_window_capacity",
        "gauge",
        "Configured window capacity.",
        &with_tenants(stream.window_capacity.to_string(), &|t| {
            t.stream.window_capacity.to_string()
        }),
    );
    let refit_outcomes = |s: &StreamStats| {
        [
            ("requested", s.refits_requested),
            ("coalesced", s.refits_coalesced),
            ("completed", s.refits_completed),
            ("skipped", s.refits_skipped),
            ("failed", s.refits_failed),
        ]
    };
    let mut refits: Vec<(String, String)> = refit_outcomes(&stream)
        .iter()
        .map(|(o, v)| (format!("{{outcome=\"{o}\"}}"), v.to_string()))
        .collect();
    for t in scrapes {
        for (o, v) in refit_outcomes(&t.stream) {
            refits.push((
                format!(
                    "{{outcome=\"{o}\",tenant=\"{}\"}}",
                    prom_label_escape(&t.name)
                ),
                v.to_string(),
            ));
        }
    }
    metric(
        "mccatch_stream_refits_total",
        "counter",
        "Refit requests, by outcome.",
        &refits,
    );
    metric(
        "mccatch_stream_refit_queue_depth",
        "gauge",
        "Refit requests waiting in the bounded command queue.",
        &with_tenants(stream.refit_queue_depth.to_string(), &|t| {
            t.stream.refit_queue_depth.to_string()
        }),
    );
    metric(
        "mccatch_stream_fit_distance_evals_total",
        "counter",
        "Distance evaluations spent across all completed fits.",
        &with_tenants(stream.fit_distance_evals.to_string(), &|t| {
            t.stream.fit_distance_evals.to_string()
        }),
    );

    metric(
        "mccatch_model_generation",
        "gauge",
        "Generation of the currently served model.",
        &with_tenants(stream.generation.to_string(), &|t| {
            t.stream.generation.to_string()
        }),
    );
    metric(
        "mccatch_model_points",
        "gauge",
        "Reference points in the served model.",
        &with_tenants(model.num_points.to_string(), &|t| {
            t.model.num_points.to_string()
        }),
    );
    metric(
        "mccatch_model_outliers",
        "gauge",
        "Outliers flagged in the served model's reference set.",
        &with_tenants(model.num_outliers.to_string(), &|t| {
            t.model.num_outliers.to_string()
        }),
    );
    metric(
        "mccatch_model_microclusters",
        "gauge",
        "Microclusters gelled in the served model's reference set.",
        &with_tenants(model.num_microclusters.to_string(), &|t| {
            t.model.num_microclusters.to_string()
        }),
    );
    metric(
        "mccatch_model_cutoff_d",
        "gauge",
        "The served model's MDL cutoff distance d.",
        &with_tenants(prom_f64(model.cutoff_d), &|t| prom_f64(t.model.cutoff_d)),
    );
    metric(
        "mccatch_model_degenerate",
        "gauge",
        "1 when the served model is degenerate (cold start).",
        &with_tenants((model.degenerate as u8).to_string(), &|t| {
            (t.model.degenerate as u8).to_string()
        }),
    );
    metric(
        "mccatch_model_fit_distance_evals",
        "gauge",
        "Distance evaluations the served model's fit cost.",
        &with_tenants(model.distance_evals.to_string(), &|t| {
            t.model.distance_evals.to_string()
        }),
    );
    let mut evals = vec![(
        format!("{{index=\"{}\"}}", prom_label_escape(index_label)),
        service.live_distance_evals().to_string(),
    )];
    for t in scrapes {
        evals.push((
            format!(
                "{{index=\"{}\",tenant=\"{}\"}}",
                prom_label_escape(index_label),
                prom_label_escape(&t.name)
            ),
            t.live_evals.to_string(),
        ));
    }
    metric(
        "mccatch_index_distance_evals_total",
        "counter",
        "Live distance evaluations of the served reference tree (fit plus serving queries), by index backend.",
        &evals,
    );

    metric(
        "mccatch_tenants",
        "gauge",
        "Live tenants in the registry.",
        &plain(scrapes.len().to_string()),
    );
    let (mut depth, mut capacity, mut rejected) = (Vec::new(), Vec::new(), Vec::new());
    for t in scrapes {
        for q in &t.queues {
            let labels = format!(
                "{{tenant=\"{}\",shard=\"{}\"}}",
                prom_label_escape(&t.name),
                q.shard
            );
            depth.push((labels.clone(), q.depth.to_string()));
            capacity.push((labels.clone(), q.capacity.to_string()));
            rejected.push((labels, q.rejected.to_string()));
        }
    }
    metric(
        "mccatch_tenant_shard_queue_depth",
        "gauge",
        "Ingest calls currently in flight per tenant shard (bounded admission).",
        &depth,
    );
    metric(
        "mccatch_tenant_shard_queue_capacity",
        "gauge",
        "Configured per-shard in-flight ingest bound.",
        &capacity,
    );
    metric(
        "mccatch_tenant_shard_ingest_rejected_total",
        "counter",
        "Ingest calls rejected with shard-saturated backpressure.",
        &rejected,
    );
    // Per-tenant restore counters: 0 everywhere for a tenant that
    // was created live, the recovered figures for one rebuilt from
    // snapshots + replay logs at boot.
    let (mut restored, mut replayed, mut restored_gen) = (Vec::new(), Vec::new(), Vec::new());
    for t in scrapes {
        let labels = tenant_label(&t.name);
        let (shards, events, generation) = t.restore.map_or((0, 0, 0), |r| {
            (r.shards as u64, r.replayed_events, r.generation)
        });
        restored.push((labels.clone(), shards.to_string()));
        replayed.push((labels.clone(), events.to_string()));
        restored_gen.push((labels, generation.to_string()));
    }
    metric(
        "mccatch_tenant_restored_shards",
        "gauge",
        "Shard detectors this tenant rebuilt from snapshots at boot (0 = created live).",
        &restored,
    );
    metric(
        "mccatch_tenant_restore_replayed_events",
        "counter",
        "Replay-log events re-ingested to rebuild this tenant's windows at boot.",
        &replayed,
    );
    metric(
        "mccatch_tenant_restore_generation",
        "gauge",
        "The tenant generation resumed from its snapshot set at boot.",
        &restored_gen,
    );

    // Latency histograms. The default tenant's request series carry
    // only the `endpoint` label — the same unlabeled-tenant convention
    // as every family above — and named tenants add
    // `{endpoint=…,tenant=…}` series for the scoped endpoints they
    // have served.
    let mut request_series: Vec<(String, HistogramSnapshot)> = obs
        .requests
        .snapshot()
        .into_iter()
        .map(|(e, h)| (format!("endpoint=\"{}\"", e.name()), h))
        .collect();
    for (tenant, hists) in obs.tenant_snapshots() {
        for (e, h) in hists {
            if Endpoint::SCOPED.contains(&e) {
                request_series.push((
                    format!(
                        "endpoint=\"{}\",tenant=\"{}\"",
                        e.name(),
                        prom_label_escape(&tenant)
                    ),
                    h,
                ));
            }
        }
    }
    render_histogram(
        &mut out,
        "mccatch_request_duration_seconds",
        "End-to-end request service time, by endpoint (plus tenant-labeled series for scoped requests).",
        &request_series,
    );
    render_histogram(
        &mut out,
        "mccatch_line_duration_seconds",
        "Per-NDJSON-line service time of /score and /ingest, amortized over each batch.",
        &[
            ("endpoint=\"score\"".to_owned(), obs.line_score.snapshot()),
            ("endpoint=\"ingest\"".to_owned(), obs.line_ingest.snapshot()),
        ],
    );
    let stage_series: Vec<(String, HistogramSnapshot)> = mccatch_obs::global()
        .snapshot()
        .into_iter()
        .map(|(stage, h)| (format!("stage=\"{stage}\""), h))
        .collect();
    render_histogram(
        &mut out,
        "mccatch_stage_duration_seconds",
        "Wall-clock time of every stage span, sampled or not: request routing, handling and NDJSON batches, shard fan-out, shard refit, fit stages, refit and swap, restore, snapshot I/O.",
        &stage_series,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_ignore_unknown_statuses_and_count_known_ones() {
        let c = Counters::default();
        c.count_request(Endpoint::Score);
        c.count_request(Endpoint::Score);
        c.count_response(200);
        c.count_response(999);
        assert_eq!(
            c.requests[Endpoint::Score.index()].load(Ordering::Acquire),
            2
        );
        assert_eq!(c.responses[0].load(Ordering::Acquire), 1);
    }

    #[test]
    fn endpoint_indices_match_exposition_order() {
        for (i, e) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(e.index(), i, "{}", e.name());
        }
        // The jump table agrees with the STATUSES slice it replaced.
        for (i, s) in STATUSES.iter().enumerate() {
            assert_eq!(status_index(*s), Some(i));
        }
        assert_eq!(status_index(302), None);
    }

    #[test]
    fn prom_f64_spells_nonfinite_the_prometheus_way() {
        assert_eq!(prom_f64(f64::INFINITY), "+Inf");
        assert_eq!(prom_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(prom_f64(f64::NAN), "NaN");
        assert_eq!(prom_f64(1.5), "1.5");
    }

    #[test]
    fn tenants_endpoint_has_a_request_counter() {
        let c = Counters::default();
        c.count_request(Endpoint::Tenants);
        assert_eq!(
            c.requests[Endpoint::Tenants.index()].load(Ordering::Acquire),
            1
        );
    }

    #[test]
    fn label_values_escape_backslash_quote_and_newline() {
        assert_eq!(prom_label_escape("plain-name_0"), "plain-name_0");
        assert_eq!(prom_label_escape("a\\b"), "a\\\\b");
        assert_eq!(prom_label_escape("a\"b"), "a\\\"b");
        assert_eq!(prom_label_escape("a\nb"), "a\\nb");
        assert_eq!(prom_label_escape("\\\"\n"), "\\\\\\\"\\n");
    }
}
