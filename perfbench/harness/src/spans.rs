//! In-memory spans for the traced run: name, start, end, and parent,
//! recorded by the benchmark around each call into a layer and written
//! out once at the end as Chrome trace-event JSON (loadable in Perfetto
//! or `chrome://tracing`).

use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Collects spans; nesting follows the call stack of [`Tracer::span`].
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open
    /// span) and returns its result with the span's duration.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Duration) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start: self.t0.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.t0.elapsed();
        self.spans[id].end = end;
        (out, end - self.spans[id].start)
    }

    /// A span's duration minus the part of it its children cover
    /// (children are sequential, so their durations add up).
    fn self_time(&self, id: usize) -> Duration {
        let s = &self.spans[id];
        let children: Duration = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end - c.start)
            .sum();
        (s.end - s.start).saturating_sub(children)
    }

    /// Writes every span as a Chrome `X` event (µs timestamps), with its
    /// parent id and self time in `args`.
    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {}, \"self_us\": {:.3}}}}}",
                    mccatch_obs::json_escape(&s.name),
                    s.start.as_secs_f64() * 1e6,
                    (s.end - s.start).as_secs_f64() * 1e6,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    self.self_time(id).as_secs_f64() * 1e6,
                )
            })
            .collect();
        std::fs::write(
            path,
            format!(
                "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
                events.join(",\n")
            ),
        )
    }
}
