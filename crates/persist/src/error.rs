//! The persistence subsystem's typed failure values.

use mccatch_core::McCatchError;
use mccatch_stream::StreamError;

/// Everything that can go wrong saving or loading a snapshot or replay
/// log. Corrupt, truncated, or mismatched inputs are **values of this
/// type, never panics** — a damaged snapshot file must not take a
/// restarting server down with it.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying I/O operation failed (other than a clean
    /// end-of-file mid-field, which is [`Truncated`](Self::Truncated)).
    Io(std::io::Error),
    /// The input does not start with the snapshot magic `MCSN` — it is
    /// not a McCatch snapshot at all.
    BadMagic {
        /// The four bytes found where the magic was expected.
        got: [u8; 4],
    },
    /// The snapshot declares a format version this build cannot read.
    UnsupportedVersion {
        /// The declared version.
        got: u16,
    },
    /// The input ended in the middle of a field — a partial write or a
    /// truncated copy.
    Truncated {
        /// Which field was being read when the input ran out.
        context: &'static str,
    },
    /// The trailing CRC-32 does not match the bytes read: the snapshot
    /// was corrupted in storage or transit.
    ChecksumMismatch {
        /// The checksum recorded in the file.
        expected: u32,
        /// The checksum computed over the bytes actually read.
        got: u32,
    },
    /// The snapshot stores a different point encoding than the caller
    /// asked to decode (e.g. a string-point snapshot loaded as `f64`
    /// vectors).
    PointKindMismatch {
        /// The kind tag the caller's point type decodes.
        expected: u8,
        /// The kind tag recorded in the snapshot.
        got: u8,
    },
    /// A stored point's dimensionality disagrees with the snapshot
    /// header's declared (uniform) dimensionality.
    DimMismatch {
        /// The header's dimensionality.
        expected: u32,
        /// The offending point's dimensionality.
        got: u32,
    },
    /// The snapshot was fitted with a different index backend than the
    /// one supplied for the rebuild. Every backend gives the same answers,
    /// but the verified load compares the rebuilt fit's distance
    /// evaluations, which count the tree's work, so another backend would
    /// be refused on them anyway.
    BackendMismatch {
        /// The supplied builder's `backend_name()`.
        expected: String,
        /// The backend name recorded in the snapshot.
        got: String,
    },
    /// A field holds a structurally invalid value (unknown flag bits,
    /// an out-of-range enum byte, invalid UTF-8, …).
    Corrupt {
        /// Which field was invalid.
        context: &'static str,
    },
    /// The model does not support export (`Model::export` returned
    /// `None`) — only models that expose their reference points and
    /// resolved parameters can be snapshotted.
    NotExportable,
    /// The deterministic rebuild produced a model whose named summary
    /// field differs from the one recorded at save time — the snapshot
    /// was written by an incompatible (e.g. older-algorithm) build, and
    /// serving the rebuilt model would silently change scores.
    RebuildDiverged {
        /// The first summary field that disagreed.
        field: &'static str,
    },
    /// Refitting the snapshot's points failed in `McCatch::fit`.
    Fit(McCatchError),
    /// A replay-log line before the tail is malformed (the final line
    /// alone may be truncated mid-write and is tolerated).
    Replay {
        /// 1-based line number of the offending line.
        line: u64,
        /// What was wrong with it.
        message: String,
    },
    /// Rebuilding the streaming detector from an otherwise valid
    /// checkpoint failed (e.g. the restore config is invalid).
    Restore(StreamError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            Self::BadMagic { got } => {
                write!(f, "not a McCatch snapshot (magic bytes {got:02x?})")
            }
            Self::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported snapshot format version {got} (this build reads version {})",
                    crate::snapshot::FORMAT_VERSION
                )
            }
            Self::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            Self::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot checksum mismatch: file says {expected:#010x}, content hashes to {got:#010x}"
                )
            }
            Self::PointKindMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot stores point kind {got}, caller decodes kind {expected}"
                )
            }
            Self::DimMismatch { expected, got } => {
                write!(
                    f,
                    "point dimensionality {got} disagrees with the snapshot's declared {expected}"
                )
            }
            Self::BackendMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot was fitted with index backend {got:?}, rebuild requested {expected:?}"
                )
            }
            Self::Corrupt { context } => write!(f, "snapshot field {context} is invalid"),
            Self::NotExportable => {
                write!(
                    f,
                    "model does not support export (Model::export returned None)"
                )
            }
            Self::RebuildDiverged { field } => {
                write!(
                    f,
                    "rebuilt model diverges from the snapshot on {field} — snapshot written by an incompatible build"
                )
            }
            Self::Replay { line, message } => {
                write!(f, "replay log line {line} is malformed: {message}")
            }
            Self::Restore(e) => write!(f, "restoring the stream detector failed: {e}"),
            Self::Fit(e) => write!(f, "refitting the snapshot's points failed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Fit(e) => Some(e),
            Self::Restore(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    /// Maps a clean end-of-file to [`Truncated`](Self::Truncated) with
    /// no context; prefer the codec helpers, which attach the field
    /// being read.
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Self::Truncated { context: "input" }
        } else {
            Self::Io(e)
        }
    }
}

impl From<McCatchError> for PersistError {
    fn from(e: McCatchError) -> Self {
        Self::Fit(e)
    }
}

impl From<StreamError> for PersistError {
    fn from(e: StreamError) -> Self {
        Self::Restore(e)
    }
}
