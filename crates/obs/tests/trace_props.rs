//! Property tests for the Chrome trace-event export
//! ([`chrome_trace_json`]): for arbitrary span forests — including
//! intervals that do *not* nest and attribute strings full of JSON
//! metacharacters — the export must be valid JSON (checked with the
//! workspace's strict reader, [`mccatch_obs::json`]), every trace's
//! span ids must stay unique, and every child's `[ts, ts+dur]` interval must
//! nest inside its parent's, which is what makes the Perfetto flame
//! layout well-formed.

use mccatch_obs::json::{parse, Json};
use mccatch_obs::trace::{chrome_trace_json, SpanRecord, TraceData};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------
// Strategies: arbitrary span forests, hostile attribute strings.
// ---------------------------------------------------------------------

/// Span names exercising every JSON escape class the exporter handles.
const NAMES: &[&str] = &[
    "request",
    "tenant_fanout",
    "shard_score",
    "fit_build",
    "quo\"te",
    "back\\slash",
    "new\nline",
    "tab\tand\u{1}ctl",
    "unicode µs → done",
];

/// `(start_ns, dur_ns, name index, parent selector, attr value)` tuples
/// become spans with ids `1..=n` (creation order, like the real
/// allocator) and a pseudo-random earlier parent — `parent = sel % id`,
/// so 0 (a root) and any earlier span are both possible. Intervals are
/// arbitrary: nesting is the *exporter's* job.
fn spans() -> impl Strategy<Value = Vec<SpanRecord>> {
    let span = (
        0u64..2_000_000,
        0u64..2_000_000,
        0usize..NAMES.len(),
        0u64..1 << 60,
        "[a-z\"\\\\\n\t{}:,\\[\\]é]{0,12}",
    );
    prop::collection::vec(span, 1..24).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (start_ns, dur_ns, name, sel, attr))| {
                let id = (i + 1) as u64;
                SpanRecord {
                    id,
                    parent: sel % id,
                    name: NAMES[name],
                    start_ns,
                    dur_ns,
                    attrs: vec![("v", attr)],
                }
            })
            .collect()
    })
}

fn traces() -> impl Strategy<Value = Vec<TraceData>> {
    let trace = (
        spans(),
        1u64..u64::MAX,
        0u64..u64::MAX,
        0u32..2,
        0u64..3,
        0u64..5,
        "[a-z /\"\\\\]{0,10}",
    );
    prop::collection::vec(trace, 1..4).prop_map(|raw| {
        raw.into_iter()
            .map(
                |(spans, id_hi, id_lo, error, dropped, remote, attr)| TraceData {
                    trace_id: (u128::from(id_hi) << 64) | u128::from(id_lo) | 1,
                    remote_parent: remote,
                    kind: "request",
                    dur_ns: spans.iter().map(|s| s.dur_ns).max().unwrap_or(0),
                    error: error == 1,
                    dropped_spans: dropped,
                    attrs: vec![("path", attr)],
                    spans,
                },
            )
            .collect()
    })
}

/// The `"ph":"X"` events of one track, as `(span_id, parent_id, ts,
/// ts+dur)` tuples.
fn track_spans(events: &[Json], tid: f64) -> Vec<(u64, u64, f64, f64)> {
    events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("tid").and_then(Json::as_f64) == Some(tid)
        })
        .map(|e| {
            let args = e.get("args").expect("X event has args");
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
            (
                args.get("span_id").and_then(Json::as_u64).expect("span_id"),
                args.get("parent_id")
                    .and_then(Json::as_u64)
                    .expect("parent_id"),
                ts,
                ts + dur,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn export_is_valid_json_with_one_track_per_trace(traces in traces()) {
        let json = chrome_trace_json(traces.iter());
        let doc = parse(&json).map_err(TestCaseError::fail)?;

        prop_assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .ok_or(TestCaseError::fail("traceEvents is not an array"))?;
        // One thread-name metadata event plus one X event per span, on
        // the track numbered after the trace (tid = index + 1).
        let expected: usize = traces.iter().map(|t| 1 + t.spans.len()).sum();
        prop_assert_eq!(events.len(), expected);
        for (i, trace) in traces.iter().enumerate() {
            let tid = (i + 1) as f64;
            let meta = events.iter().find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("M")
                    && e.get("tid").and_then(Json::as_f64) == Some(tid)
            });
            let meta = meta.ok_or(TestCaseError::fail(format!("no metadata for tid {tid}")))?;
            let want_id = format!("{:032x}", trace.trace_id);
            prop_assert_eq!(
                meta.get("args").and_then(|a| a.get("trace_id")).and_then(Json::as_str),
                Some(want_id.as_str())
            );
            prop_assert_eq!(track_spans(events, tid).len(), trace.spans.len());
        }
    }

    #[test]
    fn span_ids_are_unique_and_children_nest_inside_parents(traces in traces()) {
        let json = chrome_trace_json(traces.iter());
        let doc = parse(&json).map_err(TestCaseError::fail)?;
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .ok_or(TestCaseError::fail("traceEvents is not an array"))?;
        for i in 0..traces.len() {
            let spans = track_spans(events, (i + 1) as f64);
            let ids: BTreeSet<u64> = spans.iter().map(|&(id, ..)| id).collect();
            prop_assert_eq!(ids.len(), spans.len(), "duplicate span ids on track {}", i + 1);
            let bounds: BTreeMap<u64, (f64, f64)> = spans
                .iter()
                .map(|&(id, _, lo, hi)| (id, (lo, hi)))
                .collect();
            // Exported microseconds carry three decimals (exact
            // nanoseconds); the tolerance covers the float rounding of
            // parse(format(x)) on both sides of each comparison.
            let eps = 0.01;
            for &(id, parent, lo, hi) in &spans {
                prop_assert!(lo <= hi + eps, "span {id} inverted: [{lo}, {hi}]");
                if parent == 0 {
                    continue;
                }
                let (plo, phi) = bounds[&parent];
                prop_assert!(
                    plo <= lo + eps && hi <= phi + eps,
                    "track {}: span {} [{}, {}] escapes parent {} [{}, {}]",
                    i + 1, id, lo, hi, parent, plo, phi
                );
            }
        }
    }
}
