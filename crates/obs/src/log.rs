//! A structured NDJSON logger.
//!
//! Every log line is one JSON object: a monotonic millisecond timestamp
//! (`ts_ms`, measured from logger creation so lines order correctly
//! even across wall-clock steps), a process-unique sequence number, a
//! level, an event name, and caller-supplied fields. Rendering is
//! separated from writing, so a line's rendering cost can be measured
//! on its own.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Log severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Diagnostic chatter.
    Debug,
    /// Normal operation (access-log lines live here).
    Info,
    /// Something degraded but the request was served.
    Warn,
    /// A request or subsystem failed.
    Error,
}

impl Level {
    /// The lowercase name used in the `"level"` field.
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// Where rendered lines go.
enum Sink {
    /// Drop everything (rendering still works).
    Off,
    /// One `eprintln!`-style write per line.
    Stderr,
    /// Append to a file, writes serialized by the mutex.
    File(Mutex<File>),
    /// Append to an arbitrary writer — embedders, and the failing-sink
    /// tests that exercise the dropped-line counter.
    Writer(Mutex<Box<dyn Write + Send>>),
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Sink::Off => "Off",
            Sink::Stderr => "Stderr",
            Sink::File(_) => "File",
            Sink::Writer(_) => "Writer",
        })
    }
}

/// A leveled structured logger emitting one JSON object per line.
#[derive(Debug)]
pub struct Logger {
    min: Level,
    sink: Sink,
    start: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl Logger {
    /// A logger that drops every line (rendering still works).
    pub fn off() -> Self {
        Self::with_sink(Level::Info, Sink::Off)
    }

    /// A logger writing lines at `min` or above to stderr.
    pub fn stderr(min: Level) -> Self {
        Self::with_sink(min, Sink::Stderr)
    }

    /// A logger appending lines at `min` or above to the file at
    /// `path` (created if missing).
    pub fn file(path: &Path, min: Level) -> io::Result<Self> {
        let f = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self::with_sink(min, Sink::File(Mutex::new(f))))
    }

    /// A logger writing lines at `min` or above to an arbitrary
    /// writer, writes serialized by an internal mutex.
    pub fn writer(min: Level, sink: Box<dyn Write + Send>) -> Self {
        Self::with_sink(min, Sink::Writer(Mutex::new(sink)))
    }

    fn with_sink(min: Level, sink: Sink) -> Self {
        Self {
            min,
            sink,
            start: Instant::now(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether a line at `level` would actually be written.
    pub fn enabled(&self, level: Level) -> bool {
        level >= self.min && !matches!(self.sink, Sink::Off)
    }

    /// Lines that cleared the level gate but failed to reach the sink
    /// (I/O error on the file/writer, or a failed stderr write).
    /// Logging never takes down serving, but the drops are counted —
    /// `/metrics` exposes this as `mccatch_log_dropped_lines_total`.
    pub fn dropped_lines(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Renders one line — `{"ts_ms":…,"seq":…,"level":…,"event":…,…}`
    /// — without writing it. Always available, regardless of sink and
    /// level.
    pub fn render(&self, level: Level, event: &str, fields: &Fields) -> String {
        let ts_ms = self.start.elapsed().as_secs_f64() * 1e3;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut line = String::with_capacity(96 + fields.buf.len());
        let _ = write!(
            line,
            "{{\"ts_ms\":{ts_ms:.3},\"seq\":{seq},\"level\":\"{}\",\"event\":\"{}\"",
            level.name(),
            json_escape(event)
        );
        line.push_str(&fields.buf);
        line.push('}');
        line
    }

    /// Writes an already-rendered line at `level` to the sink, if the
    /// level clears the threshold. A failed write is dropped — logging
    /// must never take down serving — but counted
    /// ([`Logger::dropped_lines`]).
    pub fn write_line(&self, level: Level, line: &str) {
        if !self.enabled(level) {
            return;
        }
        let written = match &self.sink {
            Sink::Off => Ok(()),
            Sink::Stderr => {
                let mut err = io::stderr().lock();
                writeln!(err, "{line}")
            }
            Sink::File(f) => {
                let mut f = match f.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                writeln!(f, "{line}")
            }
            Sink::Writer(w) => {
                let mut w = match w.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                writeln!(w, "{line}")
            }
        };
        if written.is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Renders and writes in one call, returning the rendered line.
    pub fn log(&self, level: Level, event: &str, fields: &Fields) -> String {
        let line = self.render(level, event, fields);
        self.write_line(level, &line);
        line
    }
}

/// Escapes a string for inclusion inside a JSON string literal: `"`,
/// `\`, `\n`, `\r`, `\t` get their short escapes, other control
/// characters become `\u00XX`, everything else passes through. This is
/// the workspace's one JSON string escaper — the server's responses, the
/// CLI's JSON report, and the replay log's string points all use it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A builder for the caller-supplied fields of a log line. Keys are
/// appended in call order; callers must not repeat the reserved keys
/// (`ts_ms`, `seq`, `level`, `event`).
#[derive(Debug, Default, Clone)]
pub struct Fields {
    buf: String,
}

impl Fields {
    /// No fields.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let _ = write!(
            self.buf,
            ",\"{}\":\"{}\"",
            json_escape(key),
            json_escape(value)
        );
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        let _ = write!(self.buf, ",\"{}\":{}", json_escape(key), value);
        self
    }

    /// Appends a float field (non-finite values become `null`).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        if value.is_finite() {
            let _ = write!(self.buf, ",\"{}\":{}", json_escape(key), value);
        } else {
            let _ = write!(self.buf, ",\"{}\":null", json_escape(key));
        }
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        let _ = write!(self.buf, ",\"{}\":{}", json_escape(key), value);
        self
    }

    /// Appends a pre-rendered JSON value verbatim — the caller
    /// guarantees `json` is valid JSON (the server embeds a trace's
    /// span array this way).
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        let _ = write!(self.buf, ",\"{}\":{}", json_escape(key), json);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_lines_are_json_objects_with_reserved_keys_first() {
        let log = Logger::off();
        let line = log.render(
            Level::Info,
            "request",
            &Fields::new()
                .str("path", "/score")
                .u64("status", 200)
                .f64("duration_ms", 1.25)
                .bool("slow", false),
        );
        assert!(line.starts_with("{\"ts_ms\":"), "{line}");
        assert!(line.contains("\"seq\":0"), "{line}");
        assert!(line.contains("\"level\":\"info\""), "{line}");
        assert!(line.contains("\"event\":\"request\""), "{line}");
        assert!(line.contains("\"path\":\"/score\""), "{line}");
        assert!(line.contains("\"status\":200"), "{line}");
        assert!(line.contains("\"duration_ms\":1.25"), "{line}");
        assert!(line.contains("\"slow\":false"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        // Sequence numbers are monotone per logger.
        let next = log.render(Level::Info, "request", &Fields::new());
        assert!(next.contains("\"seq\":1"), "{next}");
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_control_chars() {
        // The one JSON string escaper of the workspace: log lines, trace
        // exports, server responses, CLI reports and replay-log strings
        // all render through it.
        for (raw, escaped) in [
            ("plain", "plain"),
            ("a\"b\\c", "a\\\"b\\\\c"),
            ("a\nb\tc", "a\\nb\\tc"),
            ("cr\rhere", "cr\\rhere"),
            ("\u{1}", "\\u0001"),
            ("\u{1f}", "\\u001f"),
            ("héllo 😀", "héllo 😀"),
            ("", ""),
        ] {
            assert_eq!(json_escape(raw), escaped, "{raw:?}");
        }
        let line = Logger::off().render(
            Level::Warn,
            "weird \"event\"",
            &Fields::new().str("k\n", "v\\"),
        );
        assert!(line.contains("\"event\":\"weird \\\"event\\\"\""), "{line}");
        assert!(line.contains("\"k\\n\":\"v\\\\\""), "{line}");
    }

    #[test]
    fn levels_gate_the_sink_but_never_rendering() {
        let off = Logger::off();
        assert!(!off.enabled(Level::Error));
        assert!(!off.render(Level::Error, "x", &Fields::new()).is_empty());

        let err_only = Logger::with_sink(Level::Error, Sink::Off);
        assert!(!err_only.enabled(Level::Info));

        let dir = std::env::temp_dir().join(format!("mccatch-obs-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.ndjson");
        let file = Logger::file(&path, Level::Info).unwrap();
        assert!(file.enabled(Level::Info));
        assert!(!file.enabled(Level::Debug));
        file.log(Level::Info, "written", &Fields::new().u64("n", 1));
        file.log(Level::Debug, "dropped", &Fields::new());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"event\":\"written\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A writer that fails every write, for exercising the
    /// dropped-line counter.
    struct FailingSink;

    impl Write for FailingSink {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("sink unplugged"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("sink unplugged"))
        }
    }

    /// A writer appending into a shared buffer, so tests can read back
    /// what a `Sink::Writer` logger emitted.
    #[derive(Clone)]
    struct SharedSink(std::sync::Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failed_writes_are_dropped_but_counted() {
        let log = Logger::writer(Level::Info, Box::new(FailingSink));
        assert_eq!(log.dropped_lines(), 0);
        log.log(Level::Info, "a", &Fields::new());
        log.log(Level::Error, "b", &Fields::new().u64("n", 1));
        // Below the level gate: never offered to the sink, not a drop.
        log.log(Level::Debug, "c", &Fields::new());
        assert_eq!(log.dropped_lines(), 2);

        // A healthy writer sink drops nothing and receives the lines.
        let buf = SharedSink(std::sync::Arc::new(Mutex::new(Vec::new())));
        let ok = Logger::writer(Level::Info, Box::new(buf.clone()));
        assert!(ok.enabled(Level::Info));
        ok.log(Level::Info, "written", &Fields::new());
        assert_eq!(ok.dropped_lines(), 0);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"event\":\"written\""), "{text}");
    }

    #[test]
    fn raw_fields_embed_json_verbatim() {
        let line = Logger::off().render(
            Level::Info,
            "trace",
            &Fields::new().raw("spans", "[{\"name\":\"x\"}]"),
        );
        assert!(line.contains("\"spans\":[{\"name\":\"x\"}]"), "{line}");
    }
}
