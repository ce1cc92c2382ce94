//! The NDJSON ingest replay log: one line per accepted stream event,
//! appended as it happens, so a warm restart can rebuild the sliding
//! window exactly instead of approximating it from the model's
//! reference points.
//!
//! Each line is a self-describing JSON object:
//!
//! ```text
//! {"seq":104,"tick":40,"point":[0.25,-1.5]}
//! ```
//!
//! Floats are written with Rust's shortest round-trip formatting, so
//! replayed points are **bit-identical** to the ingested ones. Lines are
//! read as strict JSON by [`mccatch_obs::json`], the same grammar the
//! NDJSON wire uses. The reader tolerates a truncated or malformed
//! *final* line — the expected shape of a crash mid-append, which may
//! tear a multi-byte character — but reports any earlier malformation
//! as a hard [`PersistError::Replay`], since silently skipping interior
//! events would corrupt the window.

use crate::error::PersistError;
use crate::point::PersistPoint;
use mccatch_obs::json::{self, Json};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// How eagerly the replay log is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended event: no accepted event is ever
    /// lost, at the cost of one sync per ingest.
    Always,
    /// `fsync` after every N appended events (values of 0 behave as 1):
    /// bounds the loss window to the last N events.
    EveryN(u64),
    /// Never `fsync` explicitly; rely on OS write-back. Fastest, loses
    /// whatever the OS had not yet flushed at crash time.
    Never,
}

/// An append-only writer for the replay log. Opens the file in append
/// mode, so restarting a server keeps extending the same log.
#[derive(Debug)]
pub struct ReplayWriter {
    file: BufWriter<File>,
    policy: FsyncPolicy,
    pending: u64,
}

impl ReplayWriter {
    /// Opens (creating if absent) the log at `path` for appending.
    pub fn open(path: impl AsRef<Path>, policy: FsyncPolicy) -> Result<Self, PersistError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(PersistError::Io)?;
        Ok(Self {
            file: BufWriter::new(file),
            policy,
            pending: 0,
        })
    }

    /// Atomically replaces the log at `path` with exactly `entries`
    /// (`(seq, tick, point)` in order, via
    /// [`atomic_write`](crate::atomic_write)) and opens it for appending.
    /// A crash mid-rewrite leaves the old log intact.
    pub fn rewrite<'a, P: PersistPoint + 'a>(
        path: &Path,
        entries: impl IntoIterator<Item = (u64, u64, &'a P)>,
        policy: FsyncPolicy,
    ) -> Result<Self, PersistError> {
        let mut text = String::new();
        for (seq, tick, point) in entries {
            push_line(&mut text, seq, tick, point);
        }
        crate::atomic_write(path, text.as_bytes()).map_err(PersistError::Io)?;
        Self::open(path, policy)
    }

    /// Appends one accepted event and applies the fsync policy.
    pub fn append<P: PersistPoint>(
        &mut self,
        seq: u64,
        tick: u64,
        point: &P,
    ) -> Result<(), PersistError> {
        let mut line = String::with_capacity(48);
        push_line(&mut line, seq, tick, point);
        self.file
            .write_all(line.as_bytes())
            .map_err(PersistError::Io)?;
        self.pending += 1;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) if self.pending >= n.max(1) => self.sync()?,
            _ => {}
        }
        Ok(())
    }

    /// Flushes buffered lines and syncs file data to stable storage.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.file.flush().map_err(PersistError::Io)?;
        self.file.get_ref().sync_data().map_err(PersistError::Io)?;
        self.pending = 0;
        Ok(())
    }
}

/// Appends one `{"seq":N,"tick":T,"point":<json>}` log line.
fn push_line<P: PersistPoint>(out: &mut String, seq: u64, tick: u64, point: &P) {
    out.push_str(&format!("{{\"seq\":{seq},\"tick\":{tick},\"point\":"));
    point.write_json(out);
    out.push_str("}\n");
}

impl Drop for ReplayWriter {
    /// Best-effort flush of buffered lines (no fsync) on drop.
    fn drop(&mut self) {
        let _ = self.file.flush();
    }
}

/// One replayed event.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayEntry<P> {
    /// The stream position the event was accepted at.
    pub seq: u64,
    /// The logical timestamp it carried.
    pub tick: u64,
    /// The point itself, bit-identical to the ingested one.
    pub point: P,
}

/// A reader for replay logs written by [`ReplayWriter`].
#[derive(Debug)]
pub struct ReplayReader<R> {
    inner: R,
}

impl ReplayReader<BufReader<File>> {
    /// Opens the log at `path` for reading.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        Ok(Self::new(BufReader::new(
            File::open(path).map_err(PersistError::Io)?,
        )))
    }
}

impl<R: BufRead> ReplayReader<R> {
    /// Wraps any buffered reader.
    pub fn new(inner: R) -> Self {
        Self { inner }
    }

    /// Reads every event in the log, in order.
    ///
    /// A malformed, truncated or non-UTF-8 **final** line is tolerated
    /// (dropped) — that is what a crash mid-append leaves behind. A
    /// malformed line *followed by more content*, or a `tick` that
    /// regresses, is a hard [`PersistError::Replay`].
    pub fn read_all<P: PersistPoint>(mut self) -> Result<Vec<ReplayEntry<P>>, PersistError> {
        let mut bytes = Vec::new();
        self.inner
            .read_to_end(&mut bytes)
            .map_err(PersistError::Io)?;
        let lines: Vec<(u64, &[u8])> = bytes
            .split(|&b| b == b'\n')
            .enumerate()
            .map(|(i, l)| (i as u64 + 1, l))
            .filter(|(_, l)| !l.iter().all(u8::is_ascii_whitespace))
            .collect();
        let last_idx = lines.len().checked_sub(1);
        let mut entries = Vec::with_capacity(lines.len());
        let mut last_tick: Option<u64> = None;
        for (i, (line_no, line)) in lines.iter().enumerate() {
            let parsed = std::str::from_utf8(line)
                .map_err(|e| format!("invalid UTF-8: {e}"))
                .and_then(parse_line::<P>);
            match parsed {
                Ok((seq, tick, point)) => {
                    if let Some(prev) = last_tick {
                        if tick < prev {
                            return Err(PersistError::Replay {
                                line: *line_no,
                                message: format!("tick {tick} regresses below {prev}"),
                            });
                        }
                    }
                    last_tick = Some(tick);
                    entries.push(ReplayEntry { seq, tick, point });
                }
                Err(message) => {
                    if Some(i) == last_idx {
                        break; // torn tail from a crash mid-append
                    }
                    return Err(PersistError::Replay {
                        line: *line_no,
                        message,
                    });
                }
            }
        }
        Ok(entries)
    }
}

/// Parses one `{"seq":N,"tick":T,"point":<json>}` line.
fn parse_line<P: PersistPoint>(line: &str) -> Result<(u64, u64, P), String> {
    let v = json::parse(line)?;
    let seq = v
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or("missing or non-integer \"seq\"")?;
    let tick = v
        .get("tick")
        .and_then(Json::as_u64)
        .ok_or("missing or non-integer \"tick\"")?;
    let point = P::from_json(v.get("point").ok_or("missing \"point\"")?)?;
    Ok((seq, tick, point))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_vector_events_bit_exactly() {
        let dir = std::env::temp_dir().join(format!(
            "mccatch-replay-rt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.ndjson");
        let _ = std::fs::remove_file(&path);

        let events = vec![
            (0u64, 0u64, vec![0.1 + 0.2, -0.0]),
            (1, 3, vec![f64::MAX, 5e-324]),
            (2, 3, vec![1.0 / 3.0, -123.456]),
        ];
        let mut w = ReplayWriter::open(&path, FsyncPolicy::EveryN(2)).unwrap();
        for (seq, tick, p) in &events {
            w.append(*seq, *tick, p).unwrap();
        }
        drop(w);

        let back = ReplayReader::open(&path)
            .unwrap()
            .read_all::<Vec<f64>>()
            .unwrap();
        assert_eq!(back.len(), events.len());
        for (entry, (seq, tick, p)) in back.iter().zip(&events) {
            assert_eq!(entry.seq, *seq);
            assert_eq!(entry.tick, *tick);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&entry.point), bits(p));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reads an in-memory log.
    fn read<P: PersistPoint>(log: impl AsRef<[u8]>) -> Result<Vec<ReplayEntry<P>>, PersistError> {
        ReplayReader::new(log.as_ref()).read_all()
    }

    #[test]
    fn tolerates_a_torn_final_line_only() {
        let log = "{\"seq\":0,\"tick\":0,\"point\":[1]}\n{\"seq\":1,\"tick\":1,\"point\":[2";
        let entries = read::<Vec<f64>>(log).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].point, vec![1.0]);

        let log = "{\"seq\":0,\"tick\":0,\"point\":[1\n{\"seq\":1,\"tick\":1,\"point\":[2]}\n";
        let err = read::<Vec<f64>>(log).unwrap_err();
        assert!(matches!(err, PersistError::Replay { line: 1, .. }));

        // A crash can tear a string point inside a multi-byte character:
        // "José" cut after the first byte of 'é'.
        let whole = "{\"seq\":0,\"tick\":0,\"point\":\"José\"}\n";
        let torn = &whole.as_bytes()[..whole.find('é').unwrap() + 1];
        let entries = read::<String>([whole.as_bytes(), torn].concat()).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].point, "José");
        let err = read::<String>([torn, b"\n", whole.as_bytes()].concat()).unwrap_err();
        assert!(matches!(err, PersistError::Replay { line: 1, .. }), "{err}");
    }

    #[test]
    fn lines_must_be_strict_json() {
        let good = "{\"seq\":1,\"tick\":1,\"point\":[2]}\n";
        for bad in ["[inf]", "[NaN]", "[+1]"] {
            let log = format!("{{\"seq\":0,\"tick\":0,\"point\":{bad}}}\n{good}");
            let err = read::<Vec<f64>>(log).unwrap_err();
            assert!(
                matches!(err, PersistError::Replay { line: 1, .. }),
                "{bad}: {err}"
            );
        }
        let log =
            "{\"seq\":0,\"tick\":0,\"point\":\"a\"b\"}\n{\"seq\":1,\"tick\":1,\"point\":\"c\"}\n";
        let err = read::<String>(log).unwrap_err();
        assert!(matches!(err, PersistError::Replay { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_tick_regressions() {
        let log = "{\"seq\":0,\"tick\":5,\"point\":[1]}\n{\"seq\":1,\"tick\":4,\"point\":[2]}\n";
        let err = read::<Vec<f64>>(log).unwrap_err();
        assert!(matches!(err, PersistError::Replay { line: 2, .. }));
    }

    #[test]
    fn string_events_round_trip() {
        let mut log = String::new();
        push_line(&mut log, 7, 9, &"quo\"te\\and\nnewline".to_owned());
        let entries = read::<String>(log).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, 7);
        assert_eq!(entries[0].tick, 9);
        assert_eq!(entries[0].point, "quo\"te\\and\nnewline");
    }
}
