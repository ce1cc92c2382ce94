//! Typed errors of the HTTP serving subsystem.

/// Everything that can go wrong configuring or starting a
/// [`ServerHandle`](crate::ServerHandle). Mirrors the stream crate's
/// convention: invalid input is a value, never a panic.
///
/// Per-request problems (malformed HTTP, oversized bodies, unparsable
/// NDJSON lines) are **not** `ServerError`s — they are answered on the
/// wire with the proper status code (400/404/405/413/431/503) or as
/// per-line error objects, and the server keeps running.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The worker pool must have at least one thread.
    InvalidWorkers {
        /// The rejected worker count.
        got: usize,
    },
    /// The pending-connection queue must hold at least one connection.
    InvalidQueue {
        /// The rejected queue capacity.
        got: usize,
    },
    /// The request-body limit must be at least one byte.
    InvalidBodyLimit {
        /// The rejected limit.
        got: usize,
    },
    /// The request-head limit must leave room for a request line and a
    /// couple of headers (at least 128 bytes).
    InvalidHeaderLimit {
        /// The rejected limit.
        got: usize,
    },
    /// Binding the listening socket failed.
    Bind {
        /// The address that was requested.
        addr: String,
        /// The I/O error kind reported by the OS.
        kind: std::io::ErrorKind,
        /// The OS error message.
        message: String,
    },
    /// Opening the configured access-log file for appending failed.
    AccessLog {
        /// The configured log path.
        path: String,
        /// The underlying error message.
        message: String,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidWorkers { got } => {
                write!(f, "worker pool must have >= 1 thread, got {got}")
            }
            Self::InvalidQueue { got } => {
                write!(f, "pending-connection queue must hold >= 1, got {got}")
            }
            Self::InvalidBodyLimit { got } => {
                write!(f, "max_body_bytes must be >= 1, got {got}")
            }
            Self::InvalidHeaderLimit { got } => {
                write!(f, "max_header_bytes must be >= 128, got {got}")
            }
            Self::Bind {
                addr,
                kind,
                message,
            } => write!(f, "failed to bind {addr}: {message} ({kind:?})"),
            Self::AccessLog { path, message } => {
                write!(f, "failed to open access log {path}: {message}")
            }
        }
    }
}

impl std::error::Error for ServerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ServerError::InvalidWorkers { got: 0 }
            .to_string()
            .contains("worker"));
        let bind = ServerError::Bind {
            addr: "127.0.0.1:80".into(),
            kind: std::io::ErrorKind::PermissionDenied,
            message: "permission denied".into(),
        };
        assert!(bind.to_string().contains("127.0.0.1:80"));
        assert!(bind.to_string().contains("permission denied"));
    }
}
