//! Per-request tracing: span trees, `traceparent` propagation, a
//! tail-based sampler for slow-or-failed traces, and Chrome
//! trace-event export.
//!
//! Aggregate histograms ([`crate::Histogram`], the global
//! [`crate::StageRecorder`]) answer "how slow is the p99"; this module
//! answers "*why was this request slow*". A [`Trace`] collects a tree
//! of timed [`SpanRecord`]s — ids, parent ids, start offsets from the
//! trace's birth, durations, and key=value attributes — cheaply enough
//! to run on the serving hot path: span collection is one short
//! mutex-guarded `Vec::push` per closed span, and when tracing is
//! disabled the fast path is a single relaxed atomic load
//! ([`Sampler::enabled`]).
//!
//! Three pieces compose:
//!
//! * **Span trees** — [`Trace::root_span`] opens the root and
//!   [`TraceSpan::make_current`] installs it as the thread's implicit
//!   parent. Every span below the root is a stage [`crate::Span`]:
//!   entered while a trace span is current, it becomes a child in that
//!   trace and the new current span, so deep layers (the `fit_*`
//!   stages in `mccatch-core`) nest without any signature changes. A
//!   cloneable, `Send` [`SpanHandle`] ([`current`]) carries the parent
//!   across threads: the tenant's shard-refit workers make it current
//!   before entering their own spans.
//! * **Tail sampling** — traces are offered to the process-global
//!   [`sampler()`] *after* they finish, so the decision can look at
//!   the actual duration and error flag: only traces at least as slow
//!   as the configured threshold, or ending in error, enter the
//!   bounded ring.
//! * **Export** — [`chrome_trace_json`] renders sampled traces as
//!   Chrome trace-event JSON (loadable in Perfetto or
//!   `chrome://tracing`); every child interval is clamped to nest
//!   inside its parent's so the viewer's flame layout is always
//!   well-formed.
//!
//! W3C-style `traceparent` headers ([`parse_traceparent`] /
//! [`render_traceparent`]) tie a trace to the caller's distributed
//! context: the server adopts a valid inbound trace id and echoes
//! `00-{trace-id}-{our-root-span-id}-{flags}` on every response,
//! generating fresh ids ([`gen_trace_id`], [`gen_span_id`]) when the
//! header is absent or malformed.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Hard cap on collected spans per trace, so a pathological request
/// (say, a refit fanned out over thousands of shards) cannot balloon
/// memory. The cap applies in open order: a span whose id exceeds it is
/// counted in [`TraceData::dropped_spans`] instead of stored. Parents
/// open before their children, so a kept span's parent is always kept
/// — an overflowing trace loses its youngest spans, never its root.
pub const MAX_SPANS: usize = 512;

// ---------------------------------------------------------------------
// Ids and traceparent propagation
// ---------------------------------------------------------------------

/// One draw from the process entropy well: the std hasher's per-thread
/// random keys mixed with wall clock and a global counter. Not
/// cryptographic — trace ids need uniqueness, not unpredictability.
fn entropy() -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    static CTR: AtomicU64 = AtomicU64::new(0);
    let mut h = RandomState::new().build_hasher();
    h.write_u64(CTR.fetch_add(1, Ordering::Relaxed));
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    h.write_u64(now);
    h.finish()
}

/// A fresh non-zero 128-bit trace id.
pub fn gen_trace_id() -> u128 {
    loop {
        let id = ((entropy() as u128) << 64) | entropy() as u128;
        if id != 0 {
            return id;
        }
    }
}

/// A fresh non-zero 64-bit span id (the wire-visible root span id when
/// no trace is being collected).
pub fn gen_span_id() -> u64 {
    loop {
        let id = entropy();
        if id != 0 {
            return id;
        }
    }
}

/// A parsed inbound `traceparent` header: the caller's trace id and
/// the span id of the caller-side parent span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The 128-bit trace id shared by every span of the distributed
    /// trace. Never zero.
    pub trace_id: u128,
    /// The caller's span id — the remote parent of our root span.
    /// Never zero.
    pub parent_id: u64,
}

fn is_lower_hex(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Parses a W3C `traceparent` header
/// (`00-{trace-id:32x}-{parent-id:16x}-{flags:2x}`). Returns `None`
/// for anything malformed: wrong field widths, uppercase hex, the
/// forbidden `ff` version, all-zero ids, or trailing fields on
/// version 00. A `None` means the server starts a fresh trace rather
/// than propagating garbage.
pub fn parse_traceparent(header: &str) -> Option<TraceContext> {
    let mut parts = header.trim().split('-');
    let version = parts.next()?;
    let trace = parts.next()?;
    let parent = parts.next()?;
    let flags = parts.next()?;
    if version.len() != 2 || version == "ff" || !is_lower_hex(version) {
        return None;
    }
    if trace.len() != 32 || !is_lower_hex(trace) {
        return None;
    }
    if parent.len() != 16 || !is_lower_hex(parent) {
        return None;
    }
    if flags.len() != 2 || !is_lower_hex(flags) {
        return None;
    }
    // Version 00 defines exactly four fields; later versions may
    // append more, which we ignore.
    if version == "00" && parts.next().is_some() {
        return None;
    }
    let trace_id = u128::from_str_radix(trace, 16).ok()?;
    let parent_id = u64::from_str_radix(parent, 16).ok()?;
    if trace_id == 0 || parent_id == 0 {
        return None;
    }
    Some(TraceContext {
        trace_id,
        parent_id,
    })
}

/// Renders the `traceparent` value the server echoes on a response:
/// version 00, the (propagated or generated) trace id, *our* root span
/// id as the parent for any downstream hop, and flags `01` when the
/// trace was collected (sampling candidate) or `00` when tracing was
/// off.
pub fn render_traceparent(trace_id: u128, span_id: u64, sampled: bool) -> String {
    format!(
        "00-{trace_id:032x}-{span_id:016x}-{:02x}",
        u8::from(sampled)
    )
}

// ---------------------------------------------------------------------
// Trace collection
// ---------------------------------------------------------------------

/// One closed span: a named, timed node of a trace's tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Id unique within the trace (allocated from 1 upward; parents
    /// always carry smaller ids than their children).
    pub id: u64,
    /// The parent span's id, or 0 for a root span.
    pub parent: u64,
    /// Span name (`"request"`, `"tenant_fanout"`, `"fit_build"`, …).
    pub name: &'static str,
    /// Start offset from the trace's birth, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds.
    pub dur_ns: u64,
    /// Key=value attributes (shard index, batch line count, …).
    pub attrs: Vec<(&'static str, String)>,
}

#[derive(Debug)]
struct TraceInner {
    trace_id: u128,
    remote_parent: u64,
    kind: &'static str,
    started: Instant,
    next_id: AtomicU64,
    error: AtomicBool,
    dropped: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl TraceInner {
    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.started).as_nanos() as u64
    }

    fn push(&self, rec: SpanRecord) {
        if rec.id > MAX_SPANS as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match self.spans.lock() {
            Ok(mut s) => s.push(rec),
            Err(p) => p.into_inner().push(rec),
        }
    }
}

/// A live trace collecting spans. Cloning is cheap (an `Arc` bump);
/// clones share the same span tree, so one clone can ride into a
/// background thread while the request path finishes the trace.
#[derive(Debug, Clone)]
pub struct Trace {
    inner: Arc<TraceInner>,
}

impl Trace {
    /// Starts a trace now. `kind` labels the lifecycle (`"request"`,
    /// `"refit"`); `ctx` is the parsed inbound `traceparent`, whose
    /// trace id is adopted when present.
    pub fn start(kind: &'static str, ctx: Option<TraceContext>) -> Self {
        Self::start_at(kind, ctx, Instant::now())
    }

    /// Starts a trace whose clock-zero is `at` — the server uses the
    /// instant the request head finished parsing, so the `parse` span
    /// can be recorded retroactively at offset 0.
    pub fn start_at(kind: &'static str, ctx: Option<TraceContext>, at: Instant) -> Self {
        Self {
            inner: Arc::new(TraceInner {
                trace_id: ctx.map(|c| c.trace_id).unwrap_or_else(gen_trace_id),
                remote_parent: ctx.map(|c| c.parent_id).unwrap_or(0),
                kind,
                started: at,
                next_id: AtomicU64::new(1),
                error: AtomicBool::new(false),
                dropped: AtomicU64::new(0),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The (propagated or generated) 128-bit trace id.
    pub fn trace_id(&self) -> u128 {
        self.inner.trace_id
    }

    /// Flags the trace as failed; the tail sampler keeps failed traces
    /// regardless of duration.
    pub fn set_error(&self) {
        self.inner.error.store(true, Ordering::Relaxed);
    }

    /// Opens the root span, back-dated to the trace's birth instant.
    pub fn root_span(&self, name: &'static str) -> TraceSpan {
        TraceSpan::open(Arc::clone(&self.inner), name, 0, self.inner.started)
    }

    /// Records an already-measured span retroactively (the server's
    /// `parse` span is timed before the trace object exists). Returns
    /// the allocated span id.
    pub fn add_span(&self, name: &'static str, parent: u64, start: Instant, dur: Duration) -> u64 {
        let id = self.inner.alloc_id();
        self.inner.push(SpanRecord {
            id,
            parent,
            name,
            start_ns: self.inner.offset_ns(start),
            dur_ns: dur.as_nanos() as u64,
            attrs: Vec::new(),
        });
        id
    }

    /// Closes the trace: total duration is measured now, collected
    /// spans are drained, and the trace-level `attrs` (request id,
    /// method, path, status, …) ride along. Call once, after every
    /// span guard has dropped.
    pub fn finish(&self, attrs: Vec<(&'static str, String)>) -> TraceData {
        let spans = {
            let mut guard = match self.inner.spans.lock() {
                Ok(s) => s,
                Err(p) => p.into_inner(),
            };
            std::mem::take(&mut *guard)
        };
        TraceData {
            trace_id: self.inner.trace_id,
            remote_parent: self.inner.remote_parent,
            kind: self.inner.kind,
            dur_ns: self.inner.started.elapsed().as_nanos() as u64,
            error: self.inner.error.load(Ordering::Relaxed),
            dropped_spans: self.inner.dropped.load(Ordering::Relaxed),
            attrs,
            spans,
        }
    }
}

/// An open span: records itself into the trace when dropped. Spans
/// below the root are opened by [`crate::Span::enter`] while this one
/// is current ([`TraceSpan::make_current`]).
#[derive(Debug)]
pub struct TraceSpan {
    inner: Arc<TraceInner>,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    attrs: Vec<(&'static str, String)>,
}

impl TraceSpan {
    fn open(inner: Arc<TraceInner>, name: &'static str, parent: u64, start: Instant) -> Self {
        let id = inner.alloc_id();
        Self {
            inner,
            id,
            parent,
            name,
            start,
            attrs: Vec::new(),
        }
    }

    /// This span's id within the trace.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a key=value attribute to this span.
    pub(crate) fn attr(&mut self, key: &'static str, value: String) {
        self.attrs.push((key, value));
    }

    /// A cheap, cloneable, `Send` handle for attaching children to
    /// this span.
    fn handle(&self) -> SpanHandle {
        SpanHandle {
            inner: Arc::clone(&self.inner),
            id: self.id,
        }
    }

    /// Installs this span as the thread's current implicit parent (see
    /// [`current`]) until the returned guard drops.
    pub fn make_current(&self) -> CurrentGuard {
        self.handle().make_current()
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.inner.offset_ns(self.start),
            dur_ns: self.start.elapsed().as_nanos() as u64,
            attrs: std::mem::take(&mut self.attrs),
        };
        self.inner.push(rec);
    }
}

/// A cloneable, `Send` attachment point: "make children of span `id`
/// in this trace". [`crate::Span::enter`] opens its trace span under
/// the thread-current one; the tenant's shard-refit fan-out shares one
/// with its worker threads, which make it current there.
#[derive(Debug, Clone)]
pub struct SpanHandle {
    inner: Arc<TraceInner>,
    id: u64,
}

impl SpanHandle {
    /// The id of the span this handle attaches children to.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opens a child span that started at `start`.
    pub(crate) fn child(&self, name: &'static str, start: Instant) -> TraceSpan {
        TraceSpan::open(Arc::clone(&self.inner), name, self.id, start)
    }

    /// Installs this span as the thread's current implicit parent
    /// until the returned guard drops. Guards nest: the previous
    /// current span is restored on drop.
    pub fn make_current(&self) -> CurrentGuard {
        CURRENT.with(|c| c.borrow_mut().push(self.clone()));
        CurrentGuard {
            _not_send: PhantomData,
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<SpanHandle>> = const { RefCell::new(Vec::new()) };
}

/// The thread's current implicit parent span, if a traced region is
/// active on this thread. Cheap when tracing is off: one thread-local
/// read of an empty vector.
pub fn current() -> Option<SpanHandle> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Restores the previous thread-current span on drop. Deliberately
/// `!Send`: the guard must drop on the thread that created it.
#[derive(Debug)]
pub struct CurrentGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

// ---------------------------------------------------------------------
// Finished traces and the tail sampler
// ---------------------------------------------------------------------

/// A finished, immutable trace: what the sampler stores and the
/// exporter renders.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// The 128-bit trace id (propagated or generated).
    pub trace_id: u128,
    /// The inbound `traceparent`'s span id, or 0 when none was sent.
    pub remote_parent: u64,
    /// Lifecycle label: `"request"` or `"refit"`.
    pub kind: &'static str,
    /// Total trace duration in nanoseconds.
    pub dur_ns: u64,
    /// Whether the trace ended in error (5xx, failed refit).
    pub error: bool,
    /// Spans discarded past the [`MAX_SPANS`] cap.
    pub dropped_spans: u64,
    /// Trace-level attributes (request id, method, path, status, …).
    pub attrs: Vec<(&'static str, String)>,
    /// The collected spans, in completion order.
    pub spans: Vec<SpanRecord>,
}

#[derive(Debug)]
struct SamplerRing {
    cap: usize,
    traces: VecDeque<Arc<TraceData>>,
}

/// The process-global tail sampler: finished traces are offered here,
/// and only those at least `slow_ns` long — or flagged as errors — are
/// kept, newest-last, in a bounded ring served by
/// `GET /admin/debug/trace`.
#[derive(Debug)]
pub struct Sampler {
    /// Threshold in nanoseconds; `u64::MAX` means tracing is disabled
    /// (the one-branch fast path the serving loop checks per request).
    slow_ns: AtomicU64,
    seen: AtomicU64,
    kept: AtomicU64,
    ring: Mutex<SamplerRing>,
}

impl Sampler {
    fn new() -> Self {
        Self {
            slow_ns: AtomicU64::new(u64::MAX),
            seen: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            ring: Mutex::new(SamplerRing {
                cap: 64,
                traces: VecDeque::new(),
            }),
        }
    }

    /// Whether tracing is on — one relaxed atomic load, the only cost
    /// the serving loop pays per request when tracing is off.
    pub fn enabled(&self) -> bool {
        self.slow_ns.load(Ordering::Relaxed) != u64::MAX
    }

    /// Enables tracing: keep traces at least `slow_ms` long (0 keeps
    /// everything) in a ring of at most `capacity` traces.
    pub fn configure(&self, slow_ms: u64, capacity: usize) {
        let mut ring = self.lock_ring();
        ring.cap = capacity;
        while ring.traces.len() > capacity {
            ring.traces.pop_front();
        }
        drop(ring);
        self.slow_ns
            .store(slow_ms.saturating_mul(1_000_000), Ordering::Relaxed);
    }

    /// Disables tracing and empties the ring (used by tests; servers
    /// never turn a neighbor's tracing off).
    pub fn disable(&self) {
        self.slow_ns.store(u64::MAX, Ordering::Relaxed);
        self.lock_ring().traces.clear();
    }

    fn lock_ring(&self) -> std::sync::MutexGuard<'_, SamplerRing> {
        match self.ring.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Offers a finished trace. Returns the retained `Arc` when the
    /// trace was slow or failed and therefore kept, `None` when it was
    /// discarded (the common case — that is the point of tail
    /// sampling).
    pub fn offer(&self, trace: TraceData) -> Option<Arc<TraceData>> {
        self.seen.fetch_add(1, Ordering::Relaxed);
        let slow_ns = self.slow_ns.load(Ordering::Relaxed);
        if slow_ns == u64::MAX || (trace.dur_ns < slow_ns && !trace.error) {
            return None;
        }
        self.kept.fetch_add(1, Ordering::Relaxed);
        let kept = Arc::new(trace);
        let mut ring = self.lock_ring();
        if ring.cap == 0 {
            return Some(kept);
        }
        if ring.traces.len() == ring.cap {
            ring.traces.pop_front();
        }
        ring.traces.push_back(Arc::clone(&kept));
        Some(kept)
    }

    /// The retained traces, oldest first.
    pub fn traces(&self) -> Vec<Arc<TraceData>> {
        self.lock_ring().traces.iter().cloned().collect()
    }

    /// Finished traces offered since boot.
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Traces kept by the tail decision since boot.
    pub fn kept(&self) -> u64 {
        self.kept.load(Ordering::Relaxed)
    }
}

/// The process-global tail sampler (mirrors [`crate::global`] for
/// stage histograms): background refit traces from `mccatch-stream`
/// land in the same ring as request traces without any plumbing.
pub fn sampler() -> &'static Sampler {
    static GLOBAL: OnceLock<Sampler> = OnceLock::new();
    GLOBAL.get_or_init(Sampler::new)
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&crate::json_escape(s));
    out.push('"');
}

/// Resolves every span's `[start, end]` interval, clamped to nest
/// inside its parent's (ids are allocated in creation order, so a
/// parent's id is always smaller than its children's and one ascending
/// pass suffices). Returns `(index, start_ns, end_ns)` per span.
fn clamped_intervals(spans: &[SpanRecord]) -> Vec<(usize, u64, u64)> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| spans[i].id);
    let mut bounds: HashMap<u64, (u64, u64)> = HashMap::with_capacity(spans.len());
    let mut out = Vec::with_capacity(spans.len());
    for i in order {
        let s = &spans[i];
        let raw = (s.start_ns, s.start_ns.saturating_add(s.dur_ns));
        let (lo, hi) = match bounds.get(&s.parent) {
            Some(&(ps, pe)) => {
                let lo = raw.0.clamp(ps, pe);
                let hi = raw.1.clamp(lo, pe);
                (lo, hi)
            }
            // Root span, or a parent absent from the record set (only
            // possible for hand-built records): keep the raw interval.
            None => raw,
        };
        bounds.insert(s.id, (lo, hi));
        out.push((i, lo, hi));
    }
    out
}

/// Renders finished traces as Chrome trace-event JSON —
/// `{"displayTimeUnit":"ms","traceEvents":[…]}` — loadable in Perfetto
/// or `chrome://tracing`. Each trace gets its own `tid` (named by a
/// thread-name metadata event carrying the trace id, kind, and
/// trace-level attributes); spans become `"ph":"X"` complete events
/// whose microsecond intervals nest inside their parents'.
pub fn chrome_trace_json<'a, I>(traces: I) -> String
where
    I: IntoIterator<Item = &'a TraceData>,
{
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
    };
    for (t_idx, trace) in traces.into_iter().enumerate() {
        let tid = t_idx + 1;
        // Thread-name metadata: how Perfetto labels the track.
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
        );
        let label = format!(
            "{} {:032x} ({:.3} ms{})",
            trace.kind,
            trace.trace_id,
            trace.dur_ns as f64 / 1e6,
            if trace.error { ", error" } else { "" }
        );
        push_json_str(&mut out, &label);
        let _ = write!(out, ",\"trace_id\":\"{:032x}\"", trace.trace_id);
        if trace.remote_parent != 0 {
            let _ = write!(out, ",\"remote_parent\":\"{:016x}\"", trace.remote_parent);
        }
        if trace.dropped_spans > 0 {
            let _ = write!(out, ",\"dropped_spans\":{}", trace.dropped_spans);
        }
        for (k, v) in &trace.attrs {
            out.push(',');
            push_json_str(&mut out, k);
            out.push(':');
            push_json_str(&mut out, v);
        }
        out.push_str("}}");
        for (i, lo, hi) in clamped_intervals(&trace.spans) {
            let s = &trace.spans[i];
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{}\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span_id\":{},\"parent_id\":{}",
                crate::json_escape(s.name),
                crate::json_escape(trace.kind),
                lo as f64 / 1e3,
                (hi - lo) as f64 / 1e3,
                s.id,
                s.parent,
            );
            for (k, v) in &s.attrs {
                out.push(',');
                push_json_str(&mut out, k);
                out.push(':');
                push_json_str(&mut out, v);
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}");
    out
}

/// Renders a finished trace's spans as one compact JSON array —
/// `[{"name":…,"id":…,"parent":…,"start_us":…,"dur_us":…},…]` — for
/// embedding in an NDJSON access-log line.
pub fn spans_json(trace: &TraceData) -> String {
    let mut out = String::with_capacity(64 * trace.spans.len() + 2);
    out.push('[');
    for (i, s) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
            crate::json_escape(s.name),
            s.id,
            s.parent,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Span, StageId};
    use std::collections::HashSet;

    #[test]
    fn traceparent_round_trips_and_rejects_malformed_headers() {
        let tid = 0x0af7651916cd43dd8448eb211c80319cu128;
        let sid = 0x00f067aa0ba902b7u64;
        let header = render_traceparent(tid, sid, true);
        assert_eq!(
            header,
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01"
        );
        let ctx = parse_traceparent(&header).expect("round trip");
        assert_eq!(ctx.trace_id, tid);
        assert_eq!(ctx.parent_id, sid);

        for bad in [
            "",
            "00",
            "00-abc-def-01",
            // uppercase hex
            "00-0AF7651916CD43DD8448EB211C80319C-00f067aa0ba902b7-01",
            // all-zero ids
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
            "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
            // forbidden version
            "ff-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
            // version 00 with trailing field
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01-extra",
            // non-hex
            "00-0af7651916cd43dd8448eb211c80319g-00f067aa0ba902b7-01",
        ] {
            assert!(parse_traceparent(bad).is_none(), "accepted {bad:?}");
        }
        // A future version may carry trailing fields.
        assert!(
            parse_traceparent("01-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01-x")
                .is_some()
        );
    }

    #[test]
    fn generated_ids_are_nonzero_and_distinct() {
        let a = gen_trace_id();
        let b = gen_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_ne!(gen_span_id(), 0);
    }

    #[test]
    fn span_tree_collects_ids_parents_offsets_and_attrs() {
        let trace = Trace::start("request", None);
        {
            let root = trace.root_span("request");
            {
                let _cur = root.make_current();
                let mut child = Span::enter(StageId::Handle);
                child.attr("endpoint", "score");
                std::thread::sleep(Duration::from_millis(2));
                let mut grand = Span::enter(StageId::ScoreBatch);
                grand.attr("lines", 3);
            }
            trace.add_span(
                "parse",
                root.id(),
                trace_started(&trace),
                Duration::from_micros(5),
            );
        }
        let data = trace.finish(vec![("id", "req-1".into())]);
        assert_eq!(data.spans.len(), 4);
        assert!(!data.error);
        assert_eq!(data.attrs, vec![("id", "req-1".to_owned())]);

        let by_name = |n: &str| data.spans.iter().find(|s| s.name == n).unwrap();
        let root = by_name("request");
        let handle = by_name("handle");
        let batch = by_name("score_batch");
        let parse = by_name("parse");
        assert_eq!(root.parent, 0);
        assert_eq!(handle.parent, root.id);
        assert_eq!(batch.parent, handle.id);
        assert_eq!(parse.parent, root.id);
        assert_eq!(root.start_ns, 0);
        assert!(handle.dur_ns >= 2_000_000, "slept 2ms: {}", handle.dur_ns);
        assert!(root.dur_ns >= handle.dur_ns);
        assert!(handle.attrs.contains(&("endpoint", "score".to_owned())));
        assert!(batch.attrs.contains(&("lines", "3".to_owned())));

        // Ids unique, parents allocated before children.
        let mut ids: Vec<u64> = data.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), data.spans.len());
        for s in &data.spans {
            assert!(s.parent < s.id);
        }
    }

    fn trace_started(trace: &Trace) -> Instant {
        trace.inner.started
    }

    #[test]
    fn span_cap_bounds_memory_and_counts_drops() {
        let trace = Trace::start("request", None);
        let root = trace.root_span("request");
        // Parents close after their children: the root and `batch`
        // close last, once the cap has long been reached.
        let batch = root.handle().child("batch", Instant::now());
        for _ in 0..(MAX_SPANS + 10) {
            drop(batch.handle().child("event", Instant::now()));
        }
        let (root_id, batch_id) = (root.id(), batch.id());
        drop(batch);
        drop(root);
        let data = trace.finish(Vec::new());
        assert_eq!(data.spans.len(), MAX_SPANS);
        // The 12 youngest children (ids 513..=524) are past the cap.
        assert_eq!(data.dropped_spans, 12);
        let kept: HashSet<u64> = data.spans.iter().map(|s| s.id).collect();
        assert!(kept.contains(&root_id), "the root is kept");
        assert!(kept.contains(&batch_id), "the children's parent is kept");
        for s in &data.spans {
            assert!(
                s.parent == 0 || kept.contains(&s.parent),
                "span {} kept without its parent {}",
                s.id,
                s.parent
            );
        }
    }

    #[test]
    fn handles_attach_children_across_threads() {
        let trace = Trace::start("request", None);
        let root = trace.root_span("request");
        let root_cur = root.make_current();
        let fanout = Span::enter(StageId::TenantFanout);
        let parent = current().expect("the fan-out span is current");
        std::thread::scope(|scope| {
            for shard in 0..3u64 {
                let parent = parent.clone();
                scope.spawn(move || {
                    let _cur = parent.make_current();
                    let mut s = Span::enter(StageId::ShardScore);
                    s.attr("shard", shard);
                });
            }
        });
        drop(fanout);
        drop(root_cur);
        drop(root);
        let data = trace.finish(Vec::new());
        let fanout_id = data
            .spans
            .iter()
            .find(|s| s.name == "tenant_fanout")
            .unwrap()
            .id;
        let shards: Vec<_> = data
            .spans
            .iter()
            .filter(|s| s.name == "shard_score")
            .collect();
        assert_eq!(shards.len(), 3);
        assert!(shards.iter().all(|s| s.parent == fanout_id));
    }

    #[test]
    fn current_span_nests_and_restores_on_guard_drop() {
        assert!(current().is_none());
        let trace = Trace::start("request", None);
        let root = trace.root_span("request");
        {
            let _g = root.make_current();
            let top = current().expect("root current");
            assert_eq!(top.id(), root.id());
            let child = root.handle().child("handle", Instant::now());
            {
                let _g2 = child.make_current();
                assert_eq!(current().unwrap().id(), child.id());
            }
            assert_eq!(current().unwrap().id(), root.id());
        }
        assert!(current().is_none());
    }

    #[test]
    fn tail_sampler_keeps_slow_or_failed_traces_in_a_bounded_ring() {
        // A private sampler (not the global one) so tests stay
        // independent.
        let s = Sampler::new();
        assert!(!s.enabled());

        // Disabled: everything is discarded.
        let t = Trace::start("request", None).finish(Vec::new());
        assert!(s.offer(t).is_none());

        s.configure(10, 2);
        assert!(s.enabled());

        let mk = |dur_ms: u64, error: bool| {
            let trace = Trace::start("request", None);
            if error {
                trace.set_error();
            }
            let mut data = trace.finish(Vec::new());
            data.dur_ns = dur_ms * 1_000_000;
            data
        };
        assert!(s.offer(mk(5, false)).is_none(), "fast and clean: dropped");
        assert!(s.offer(mk(50, false)).is_some(), "slow: kept");
        assert!(s.offer(mk(5, true)).is_some(), "error: kept despite speed");
        assert!(s.offer(mk(10, false)).is_some(), "at threshold: kept");
        // Includes the offer made while disabled.
        assert_eq!(s.seen(), 5);
        assert_eq!(s.kept(), 3);
        // Capacity 2: the oldest kept trace was evicted.
        assert_eq!(s.traces().len(), 2);

        s.disable();
        assert!(!s.enabled());
        assert!(s.traces().is_empty());
    }

    #[test]
    fn chrome_export_emits_nested_complete_events() {
        let trace = Trace::start("request", None);
        let root = trace.root_span("request");
        drop(root.handle().child("handle", Instant::now()));
        drop(root);
        let data = trace.finish(vec![("id", "r-1".into())]);
        let json = chrome_trace_json([&data]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"name\":\"request\""), "{json}");
        assert!(json.contains("\"name\":\"handle\""), "{json}");
        assert!(json.contains("\"id\":\"r-1\""), "{json}");
        assert!(json.contains(&format!("\"trace_id\":\"{:032x}\"", data.trace_id)));

        let line = spans_json(&data);
        assert!(line.starts_with('[') && line.ends_with(']'));
        assert!(line.contains("\"name\":\"handle\""), "{line}");
    }

    #[test]
    fn clamping_forces_children_inside_their_parents() {
        // Hand-built records with a child leaking past its parent's
        // end: the export must clamp it back inside.
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "request",
                start_ns: 1_000,
                dur_ns: 10_000,
                attrs: Vec::new(),
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "handle",
                start_ns: 500,
                dur_ns: 50_000,
                attrs: Vec::new(),
            },
        ];
        let bounds = clamped_intervals(&spans);
        let child = bounds.iter().find(|(i, _, _)| *i == 1).unwrap();
        assert_eq!((child.1, child.2), (1_000, 11_000));
    }
}
