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
//! replayed points are **bit-identical** to the ingested ones. The
//! reader tolerates a truncated or malformed *final* line — the
//! expected shape of a crash mid-append — but reports any earlier
//! malformation as a hard [`PersistError::Replay`], since silently
//! skipping interior events would corrupt the window.

use crate::error::PersistError;
use crate::point::PersistPoint;
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
    /// A malformed or truncated **final** line is tolerated (dropped) —
    /// that is what a crash mid-append leaves behind. A malformed line
    /// *followed by more content*, or a `tick` that regresses, is a
    /// hard [`PersistError::Replay`].
    pub fn read_all<P: PersistPoint>(mut self) -> Result<Vec<ReplayEntry<P>>, PersistError> {
        let mut text = String::new();
        self.inner
            .read_to_string(&mut text)
            .map_err(PersistError::Io)?;
        let lines: Vec<(u64, &str)> = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i as u64 + 1, l))
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        let last_idx = lines.len().checked_sub(1);
        let mut entries = Vec::with_capacity(lines.len());
        let mut last_tick: Option<u64> = None;
        for (i, (line_no, line)) in lines.iter().enumerate() {
            match parse_line::<P>(line) {
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
    let s = line.trim();
    let s = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("line is not a JSON object")?;
    let s = expect_key(s, "seq")?;
    let (seq_str, s) = s.split_once(',').ok_or("missing ',' after seq")?;
    let seq = seq_str
        .trim()
        .parse::<u64>()
        .map_err(|e| format!("bad seq {seq_str:?}: {e}"))?;
    let s = expect_key(s, "tick")?;
    let (tick_str, s) = s.split_once(',').ok_or("missing ',' after tick")?;
    let tick = tick_str
        .trim()
        .parse::<u64>()
        .map_err(|e| format!("bad tick {tick_str:?}: {e}"))?;
    let s = expect_key(s, "point")?;
    let point = P::parse_json(s)?;
    Ok((seq, tick, point))
}

/// Consumes `"key":` (with optional surrounding whitespace) from the
/// front of `s`.
fn expect_key<'a>(s: &'a str, key: &str) -> Result<&'a str, String> {
    let s = s.trim_start();
    let s = s
        .strip_prefix('"')
        .and_then(|s| s.strip_prefix(key))
        .and_then(|s| s.strip_prefix('"'))
        .ok_or_else(|| format!("missing \"{key}\" field"))?;
    let s = s.trim_start();
    s.strip_prefix(':')
        .ok_or_else(|| format!("missing ':' after \"{key}\""))
        .map(str::trim_start)
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
            (1, 3, vec![f64::INFINITY, 5e-324]),
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

    #[test]
    fn tolerates_a_torn_final_line_only() {
        let log = "{\"seq\":0,\"tick\":0,\"point\":[1]}\n{\"seq\":1,\"tick\":1,\"point\":[2";
        let entries = ReplayReader::new(log.as_bytes())
            .read_all::<Vec<f64>>()
            .unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].point, vec![1.0]);

        let log = "{\"seq\":0,\"tick\":0,\"point\":[1\n{\"seq\":1,\"tick\":1,\"point\":[2]}\n";
        let err = ReplayReader::new(log.as_bytes())
            .read_all::<Vec<f64>>()
            .unwrap_err();
        assert!(matches!(err, PersistError::Replay { line: 1, .. }));
    }

    #[test]
    fn rejects_tick_regressions() {
        let log = "{\"seq\":0,\"tick\":5,\"point\":[1]}\n{\"seq\":1,\"tick\":4,\"point\":[2]}\n";
        let err = ReplayReader::new(log.as_bytes())
            .read_all::<Vec<f64>>()
            .unwrap_err();
        assert!(matches!(err, PersistError::Replay { line: 2, .. }));
    }

    #[test]
    fn string_events_round_trip() {
        let mut line = String::new();
        let mut w_buf = Vec::new();
        {
            let mut line_owned = String::with_capacity(48);
            line_owned.push_str("{\"seq\":7,\"tick\":9,\"point\":");
            "quo\"te\\and\nnewline"
                .to_owned()
                .write_json(&mut line_owned);
            line_owned.push_str("}\n");
            line.push_str(&line_owned);
            w_buf.extend_from_slice(line_owned.as_bytes());
        }
        let entries = ReplayReader::new(&w_buf[..]).read_all::<String>().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, 7);
        assert_eq!(entries[0].tick, 9);
        assert_eq!(entries[0].point, "quo\"te\\and\nnewline");
    }
}
