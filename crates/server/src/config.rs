//! Configuration of the HTTP server: pool shape, request limits, and
//! backpressure knobs.

use crate::error::ServerError;
use std::path::PathBuf;
use std::time::Duration;

/// Where the structured access log (one JSON object per request) goes.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum AccessLog {
    /// No access log (the default — embedded servers and tests stay
    /// quiet).
    #[default]
    Off,
    /// One NDJSON line per request to stderr.
    Stderr,
    /// One NDJSON line per request appended to this file.
    File(PathBuf),
}

/// Configuration of a [`ServerHandle`](crate::ServerHandle), validated
/// up front exactly like `StreamConfig` in the stream crate: an invalid
/// configuration never binds a socket or spawns a thread.
///
/// ```
/// use mccatch_server::ServerConfig;
///
/// let config = ServerConfig {
///     workers: 8,
///     queue: 128,
///     ..ServerConfig::default()
/// };
/// assert!(config.validate().is_ok());
/// assert!(ServerConfig { workers: 0, ..ServerConfig::default() }
///     .validate()
///     .is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Number of worker threads handling connections (`>= 1`). Each
    /// worker owns one connection at a time (keep-alive included), so
    /// this is also the maximum number of concurrently-served clients.
    pub workers: usize,
    /// Bounded capacity of the accepted-connection queue between the
    /// acceptor and the workers (`>= 1`). A connection arriving while
    /// every worker is busy and the queue is full is answered `503`
    /// with a `Retry-After` header and closed — explicit backpressure,
    /// never unbounded buffering.
    pub queue: usize,
    /// Largest request body accepted, in bytes (`>= 1`). A
    /// `Content-Length` beyond this is answered `413` without reading
    /// the body.
    pub max_body_bytes: usize,
    /// Largest request head (request line + headers) accepted, in bytes
    /// (`>= 128`). A head growing beyond this is answered `431`.
    pub max_header_bytes: usize,
    /// Socket read timeout. A keep-alive connection idle longer than
    /// this is closed, which also bounds how long a graceful shutdown
    /// can wait on an idle client. `None` disables the timeout — then
    /// an idle keep-alive connection can delay shutdown indefinitely.
    pub read_timeout: Option<Duration>,
    /// Seconds advertised in the `Retry-After` header of backpressure
    /// `503` responses.
    pub retry_after_secs: u64,
    /// The base path `POST /admin/snapshot` persists tenant snapshot
    /// sets under: `{path}.{tenant}.{shard}` plus a
    /// `{path}.{tenant}.manifest` written last — the default tenant
    /// behind the bare endpoints as `{path}.default.0` +
    /// `{path}.default.manifest`. Every file is written atomically
    /// (`mccatch_persist::atomic_write`). `None` (the default) answers
    /// the snapshot endpoints `409`: persistence is opt-in. Replay logs
    /// are configured on the tenant map
    /// ([`TenantSpec::replay`](mccatch_tenant::TenantSpec::replay)).
    pub snapshot_path: Option<PathBuf>,
    /// Structured access-log destination (`--access-log` in the CLI).
    pub access_log: AccessLog,
    /// Per-request tracing threshold (`--trace-slow-ms` in the CLI) —
    /// the server's one slow-request mechanism. `Some(ms)` enables
    /// span collection on every request and tail-samples traces at
    /// least `ms` milliseconds long — or ending in error — into the
    /// ring served at `GET /admin/debug/trace` (`0` keeps every
    /// trace); each kept trace is also one `"trace"` line in the
    /// access log. `None` (the default) disables tracing: the
    /// per-request cost collapses to one atomic load.
    ///
    /// Tracing state is process-global (background refit traces from
    /// the stream layer land in the same ring), so a server with
    /// `None` never *disables* tracing another server in the same
    /// process enabled.
    pub trace_slow_ms: Option<u64>,
    /// How many sampled traces the trace ring retains (oldest evicted
    /// first; `--trace-capacity` in the CLI).
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue: 64,
            max_body_bytes: 4 << 20,
            max_header_bytes: 8 << 10,
            read_timeout: Some(Duration::from_secs(5)),
            retry_after_secs: 1,
            snapshot_path: None,
            access_log: AccessLog::Off,
            trace_slow_ms: None,
            trace_capacity: 64,
        }
    }
}

impl ServerConfig {
    /// Checks every knob, returning the first violation as a typed
    /// [`ServerError`]. Called by [`serve`](crate::serve), so an invalid
    /// configuration can never start listening.
    pub fn validate(&self) -> Result<(), ServerError> {
        if self.workers == 0 {
            return Err(ServerError::InvalidWorkers { got: 0 });
        }
        if self.queue == 0 {
            return Err(ServerError::InvalidQueue { got: 0 });
        }
        if self.max_body_bytes == 0 {
            return Err(ServerError::InvalidBodyLimit { got: 0 });
        }
        if self.max_header_bytes < 128 {
            return Err(ServerError::InvalidHeaderLimit {
                got: self.max_header_bytes,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ServerConfig::default().validate().is_ok());
    }

    #[test]
    fn each_knob_is_checked() {
        let base = ServerConfig::default;
        assert_eq!(
            ServerConfig {
                workers: 0,
                ..base()
            }
            .validate(),
            Err(ServerError::InvalidWorkers { got: 0 })
        );
        assert_eq!(
            ServerConfig { queue: 0, ..base() }.validate(),
            Err(ServerError::InvalidQueue { got: 0 })
        );
        assert_eq!(
            ServerConfig {
                max_body_bytes: 0,
                ..base()
            }
            .validate(),
            Err(ServerError::InvalidBodyLimit { got: 0 })
        );
        assert_eq!(
            ServerConfig {
                max_header_bytes: 64,
                ..base()
            }
            .validate(),
            Err(ServerError::InvalidHeaderLimit { got: 64 })
        );
    }
}
