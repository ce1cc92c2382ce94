//! Per-server observability state: request/line latency histograms and
//! the structured access logger.
//!
//! One [`ServerObs`] lives in the server's `Shared` state. Workers
//! record into it after writing each response; `/metrics` snapshots it
//! into the `mccatch_request_duration_seconds` and
//! `mccatch_line_duration_seconds` histogram families.

use crate::config::{AccessLog, ServerConfig};
use crate::error::ServerError;
use crate::metrics::Endpoint;
use mccatch_obs::{Histogram, HistogramSnapshot, Level, Logger};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// One latency histogram per endpoint (indexed by [`Endpoint`]).
pub(crate) struct RequestHists {
    hists: [Histogram; Endpoint::COUNT],
}

impl RequestHists {
    pub fn new() -> Self {
        Self {
            hists: [const { Histogram::new() }; Endpoint::COUNT],
        }
    }

    /// Records one served request on `endpoint`.
    pub fn record(&self, endpoint: Endpoint, elapsed: Duration) {
        self.hists[endpoint.index()].record(elapsed);
    }

    /// Snapshots every endpoint histogram, in [`Endpoint::ALL`] order.
    pub fn snapshot(&self) -> Vec<(Endpoint, HistogramSnapshot)> {
        Endpoint::ALL
            .iter()
            .map(|e| (*e, self.hists[e.index()].snapshot()))
            .collect()
    }
}

/// Everything one server records about its own latency and requests.
pub(crate) struct ServerObs {
    /// Default-tenant request latency (the unlabeled `/metrics` series).
    pub requests: RequestHists,
    /// Per-named-tenant request latency, created on a tenant's first
    /// scoped request. Entries outlive tenant deletion — histogram
    /// counters are cumulative, like every other series.
    tenants: RwLock<HashMap<String, Arc<RequestHists>>>,
    /// Per-NDJSON-line latency of `/score`, amortized over each batch.
    pub line_score: Histogram,
    /// Per-NDJSON-line latency of `/ingest`, amortized over each batch.
    pub line_ingest: Histogram,
    /// The structured logger behind the access log.
    pub logger: Logger,
}

impl ServerObs {
    /// Builds the observability state for one server from its config
    /// (opens the access-log file when one is configured).
    pub fn open(config: &ServerConfig) -> Result<Self, ServerError> {
        let logger = match &config.access_log {
            AccessLog::Off => Logger::off(),
            AccessLog::Stderr => Logger::stderr(Level::Info),
            AccessLog::File(path) => {
                Logger::file(path, Level::Info).map_err(|e| ServerError::AccessLog {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })?
            }
        };
        // Tracing is opt-in and process-global (the same sampler ring
        // also receives background refit traces from the stream
        // layer): a config with tracing off leaves the sampler alone,
        // so a second tracing-off server in the same process never
        // disables tracing the first one enabled.
        if let Some(slow_ms) = config.trace_slow_ms {
            mccatch_obs::trace::sampler().configure(slow_ms, config.trace_capacity);
        }
        Ok(Self {
            requests: RequestHists::new(),
            tenants: RwLock::new(HashMap::new()),
            line_score: Histogram::new(),
            line_ingest: Histogram::new(),
            logger,
        })
    }

    /// Records one served request: into the default (unlabeled)
    /// histograms for bare requests, into the tenant's own set for
    /// `/t/{tenant}/…`-scoped ones.
    pub fn record_request(&self, tenant: Option<&str>, endpoint: Endpoint, elapsed: Duration) {
        match tenant {
            None => self.requests.record(endpoint, elapsed),
            Some(name) => self.tenant_hists(name).record(endpoint, elapsed),
        }
    }

    /// The named tenant's histogram set, created on first use.
    fn tenant_hists(&self, name: &str) -> Arc<RequestHists> {
        if let Some(h) = self
            .tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(h);
        }
        let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(RequestHists::new())),
        )
    }

    /// Snapshots every tenant's histogram set, sorted by tenant name so
    /// the exposition is deterministic.
    pub fn tenant_snapshots(&self) -> Vec<(String, Vec<(Endpoint, HistogramSnapshot)>)> {
        let mut out: Vec<_> = self
            .tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// A process-unique request id: a per-boot prefix (from the wall clock,
/// taken once) plus a monotone counter — `{boot:08x}-{seq:x}`.
pub(crate) fn next_request_id() -> String {
    static BOOT: OnceLock<u64> = OnceLock::new();
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let boot = *BOOT.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            ^ (std::process::id() as u64) << 32
    });
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{:08x}-{seq:x}", boot as u32)
}

/// Echoes a client-supplied `X-Mccatch-Request-Id` when it is sane
/// (visible ASCII, at most 128 bytes — never CR/LF, so it cannot split
/// headers), otherwise generates a fresh id.
pub(crate) fn request_id(client: Option<&str>) -> String {
    match client {
        Some(id)
            if !id.is_empty()
                && id.len() <= 128
                && id.bytes().all(|b| (0x21..=0x7e).contains(&b)) =>
        {
            id.to_owned()
        }
        _ => next_request_id(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_tenant_requests_record_separately() {
        let obs = ServerObs::open(&ServerConfig::default()).unwrap();
        obs.record_request(None, Endpoint::Score, Duration::from_micros(10));
        obs.record_request(Some("a"), Endpoint::Score, Duration::from_micros(10));
        obs.record_request(Some("a"), Endpoint::Ingest, Duration::from_micros(10));
        obs.record_request(Some("b"), Endpoint::Score, Duration::from_micros(10));

        let default = obs.requests.snapshot();
        let score = default
            .iter()
            .find(|(e, _)| *e == Endpoint::Score)
            .unwrap()
            .1;
        assert_eq!(score.count(), 1);

        let tenants = obs.tenant_snapshots();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].0, "a"); // sorted
        assert_eq!(tenants[1].0, "b");
        let a_total: u64 = tenants[0].1.iter().map(|(_, h)| h.count()).sum();
        assert_eq!(a_total, 2);
    }

    #[test]
    fn request_ids_echo_sane_values_and_generate_otherwise() {
        assert_eq!(request_id(Some("abc-123")), "abc-123");
        let generated = request_id(None);
        assert!(generated.contains('-'), "{generated}");
        assert_ne!(request_id(None), generated, "ids are unique");
        // Unsafe or empty values are replaced, not echoed.
        for bad in ["", " ", "a b", "x\u{7f}", &"x".repeat(129)] {
            let id = request_id(Some(bad));
            assert_ne!(id, bad);
        }
    }
}
