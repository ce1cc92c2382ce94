//! Property tests for the histogram exposition (the Prometheus
//! contract) and for shard merging.
//!
//! For arbitrary sample sets, the rendered `histogram` family must
//! satisfy the invariants every Prometheus scraper assumes: `_bucket`
//! counts are cumulative and monotone non-decreasing in `le` order, a
//! `le="+Inf"` bucket is present and last, and its value equals
//! `_count`. And because bucket bounds are fixed, merging per-shard
//! histograms must be *exactly* the histogram of the merged samples —
//! the identity that lets `/metrics` aggregate tenant shards without
//! resampling.
//!
//! The second half boots a **real multi-tenant server** (a dev-only
//! dependency cycle Cargo permits), drives randomized traffic, and
//! re-parses its entire `/metrics` exposition generically — every
//! family, tenant-labeled series included, must hold the scraper
//! invariants, not just the one family the unit tests look at.

use mccatch_obs::{render_histogram, Histogram, HistogramSnapshot, BUCKETS};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Nanosecond samples spread across the whole bucket range, including
/// sub-first-bucket and overflow values.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    let sample = (0u32..40, 0.0..1.0f64)
        .prop_map(|(pow, fill)| ((1u64 << pow) as f64 * (0.5 + fill)) as u64);
    prop::collection::vec(sample, 0..120)
}

fn hist_of(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &s in samples {
        h.record_nanos(s);
    }
    h.snapshot()
}

/// Parses one rendered family back out of the exposition text:
/// `(bucket (le, cumulative_count) pairs in order, _count value)`.
fn parse_family(text: &str, name: &str) -> (Vec<(String, u64)>, u64) {
    let mut buckets = Vec::new();
    let mut count = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(&format!("{name}_bucket{{")) {
            let (labels, value) = rest.split_once("} ").expect("bucket line shape");
            let le = labels
                .split(',')
                .find_map(|kv| kv.strip_prefix("le=\""))
                .and_then(|v| v.strip_suffix('"'))
                .expect("le label present");
            buckets.push((le.to_owned(), value.parse().expect("bucket count")));
        } else if let Some(rest) = line.strip_prefix(&format!("{name}_count")) {
            count = Some(rest.trim().parse().expect("count value"));
        }
    }
    (buckets, count.expect("_count line present"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exported_histograms_satisfy_the_prometheus_invariants(samples in samples()) {
        let snap = hist_of(&samples);
        let mut out = String::new();
        render_histogram(&mut out, "t_seconds", "test.", &[(String::new(), snap)]);

        prop_assert!(out.contains("# TYPE t_seconds histogram"));
        prop_assert!(out.contains("# HELP t_seconds"));

        let (buckets, count) = parse_family(&out, "t_seconds");
        // Fixed schema: every finite bucket plus +Inf, even when empty.
        prop_assert_eq!(buckets.len(), BUCKETS + 1);
        // Cumulative counts are monotone non-decreasing in le order.
        for w in buckets.windows(2) {
            prop_assert!(
                w[0].1 <= w[1].1,
                "bucket counts not cumulative: {:?} then {:?}", w[0], w[1]
            );
        }
        // +Inf is present, last, and equals _count == total samples.
        let (last_le, last_count) = buckets.last().unwrap().clone();
        prop_assert_eq!(last_le.as_str(), "+Inf");
        prop_assert_eq!(last_count, count);
        prop_assert_eq!(count, samples.len() as u64);
        // Bounds are strictly increasing decimals (dedup sanity).
        let finite: Vec<f64> = buckets[..BUCKETS]
            .iter()
            .map(|(le, _)| le.parse().expect("finite le parses"))
            .collect();
        for w in finite.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn merged_shard_histograms_equal_the_histogram_of_merged_samples(
        samples in samples(),
        shards in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
    ) {
        // Deal the samples round-robin across `shards` histograms.
        let per_shard: Vec<Vec<u64>> = (0..shards)
            .map(|s| {
                samples
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % shards == s)
                    .map(|(_, v)| *v)
                    .collect()
            })
            .collect();
        let mut merged = HistogramSnapshot::default();
        for shard in &per_shard {
            merged.merge(&hist_of(shard));
        }
        let direct = hist_of(&samples);
        prop_assert_eq!(merged, direct);
    }

    #[test]
    fn full_server_exposition_holds_every_family_invariant(
        score_batches in prop::collection::vec(1usize..30, 1..4),
        tenant_batches in prop::collection::vec(1usize..20, 1..4),
    ) {
        let (server, _map) = boot_server();
        let addr = server.local_addr();

        // Randomized traffic: default-tenant scores, a named tenant
        // with ingest + scores, and one admin refit.
        for n in &score_batches {
            let resp = post(addr, "/score", &batch(*n)).unwrap();
            prop_assert_eq!(resp.status, 200);
        }
        let mut conn = Connection::open(addr).unwrap();
        prop_assert_eq!(
            conn.request("PUT", "/admin/tenants/a", &batch(64)).unwrap().status,
            200
        );
        for n in &tenant_batches {
            prop_assert_eq!(post(addr, "/t/a/ingest", &batch(*n)).unwrap().status, 200);
            prop_assert_eq!(post(addr, "/t/a/score", &batch(*n)).unwrap().status, 200);
        }
        prop_assert_eq!(post(addr, "/t/a/admin/refit", b"").unwrap().status, 200);

        let resp = get(addr, "/metrics").unwrap();
        prop_assert_eq!(resp.status, 200);
        let text = resp.text().unwrap().to_owned();
        let exposition = parse_exposition(&text)?;

        // Every family announced exactly once, TYPE before its samples,
        // and no family without samples.
        for (family, kind) in &exposition.types {
            prop_assert!(
                exposition.helps.contains(family),
                "family {family} has TYPE but no HELP"
            );
            prop_assert!(
                ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                "family {family} has unknown kind {kind}"
            );
            prop_assert!(
                exposition.samples.iter().any(|s| family_of(&s.name, &exposition.types) == Some(family.clone())),
                "family {family} announced but has no samples"
            );
        }
        // Every sample belongs to an announced family and is a sane
        // number; no (name, labels) pair repeats.
        let mut seen = BTreeSet::new();
        for s in &exposition.samples {
            let family = family_of(&s.name, &exposition.types);
            prop_assert!(family.is_some(), "sample {} has no TYPE", s.name);
            prop_assert!(
                s.value.is_finite() && s.value >= 0.0,
                "sample {} has value {}", s.name, s.value
            );
            prop_assert!(
                seen.insert((s.name.clone(), s.labels.clone())),
                "duplicate series: {} {:?}", s.name, s.labels
            );
        }
        // Histogram families: cumulative monotone buckets per label
        // set, +Inf last and equal to _count, _sum present.
        for (family, kind) in &exposition.types {
            if kind != "histogram" {
                continue;
            }
            check_histogram_family(&exposition, family)?;
        }
        // Tenant-labeled series exist for tenant "a" — in a counter
        // family and in a histogram family — and no other tenant label
        // value ever appears.
        let tenant_values: BTreeSet<&str> = exposition
            .samples
            .iter()
            .flat_map(|s| s.labels.iter())
            .filter(|(k, _)| k == "tenant")
            .map(|(_, v)| v.as_str())
            .collect();
        prop_assert_eq!(tenant_values, BTreeSet::from(["a"]));
        let labeled_kinds: BTreeSet<&str> = exposition
            .samples
            .iter()
            .filter(|s| s.labels.iter().any(|(k, v)| k == "tenant" && v == "a"))
            .filter_map(|s| family_of(&s.name, &exposition.types))
            .filter_map(|f| exposition.types.get(&f).map(String::as_str))
            .collect();
        prop_assert!(
            labeled_kinds.contains("counter") && labeled_kinds.contains("histogram"),
            "tenant-labeled series span kinds {labeled_kinds:?}"
        );
        // The families this PR added are part of the exposition.
        for family in [
            "mccatch_log_dropped_lines_total",
            "mccatch_traces_finished_total",
            "mccatch_traces_sampled_total",
        ] {
            prop_assert_eq!(
                exposition.types.get(family).map(String::as_str),
                Some("counter"),
                "{} missing or mis-typed", family
            );
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded_by_the_max(samples in samples()) {
        let snap = hist_of(&samples);
        let qs = [0.0, 0.5, 0.9, 0.99, 1.0];
        let vals: Vec<f64> = qs.iter().map(|&q| snap.quantile(q)).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {vals:?}");
        }
        prop_assert!(vals[4] <= snap.max_seconds() + 1e-12);
        if !samples.is_empty() {
            prop_assert_eq!(vals[4], snap.max_seconds());
        }
    }
}

// ---------------------------------------------------------------------
// Full-server exposition: boot, traffic, and a generic scrape parser.
// ---------------------------------------------------------------------

use mccatch_core::McCatch;
use mccatch_index::KdTreeBuilder;
use mccatch_metric::Euclidean;
use mccatch_server::client::{get, post, Connection};
use mccatch_server::{ndjson, serve, ServerConfig, ServerHandle};
use mccatch_stream::{RefitPolicy, StreamConfig};
use mccatch_tenant::{TenantMap, TenantSpec};
use std::sync::Arc;

type VecTenants = TenantMap<Vec<f64>, Euclidean, KdTreeBuilder>;

/// `n` NDJSON point lines walking a diagonal (valid 2-d vectors).
fn batch(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| format!("[{}.0, {}.0]\n", i % 10, i / 10))
        .collect::<String>()
        .into_bytes()
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        capacity: 512,
        policy: RefitPolicy::Manual,
        ..StreamConfig::default()
    }
}

fn boot_server() -> (ServerHandle, Arc<VecTenants>) {
    let seed: Vec<Vec<f64>> = (0..100)
        .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
        .collect();
    let map = Arc::new(
        TenantMap::new(
            McCatch::builder().build().unwrap(),
            Euclidean,
            KdTreeBuilder::default(),
            TenantSpec {
                shards: 2,
                stream: stream_config(),
                ingest_queue: 1024,
                replay: None,
            },
        )
        .unwrap(),
    );
    let server = serve(
        "127.0.0.1:0",
        ServerConfig::default(),
        map.create_default(seed).unwrap(),
        Arc::clone(&map),
        ndjson::vector_parser(Some(2)),
        "kd",
    )
    .unwrap();
    (server, map)
}

/// One `name{labels} value` sample line, labels sorted for comparison.
#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// The whole scrape, parsed: samples in order plus the `# TYPE` and
/// `# HELP` announcements (checked to come before their samples).
struct Exposition {
    samples: Vec<Sample>,
    types: BTreeMap<String, String>,
    helps: BTreeSet<String>,
}

/// The family a sample belongs to: its own name, or — for histogram
/// series — the name with the `_bucket`/`_sum`/`_count` suffix removed.
fn family_of(name: &str, types: &BTreeMap<String, String>) -> Option<String> {
    if types.contains_key(name) {
        return Some(name.to_owned());
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return Some(base.to_owned());
            }
        }
    }
    None
}

fn parse_exposition(text: &str) -> Result<Exposition, TestCaseError> {
    let mut out = Exposition {
        samples: Vec::new(),
        types: BTreeMap::new(),
        helps: BTreeSet::new(),
    };
    for line in text.lines() {
        prop_assert!(!line.trim().is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').expect("TYPE line shape");
            prop_assert!(
                out.types
                    .insert(family.to_owned(), kind.to_owned())
                    .is_none(),
                "family {family} announced twice"
            );
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (family, help) = rest.split_once(' ').unwrap_or((rest, ""));
            prop_assert!(!help.trim().is_empty(), "empty HELP for {family}");
            out.helps.insert(family.to_owned());
            continue;
        }
        prop_assert!(!line.starts_with('#'), "unknown comment line: {line}");
        // `name{labels} value` or `name value`.
        let (name_labels, value) = line.rsplit_once(' ').expect("sample line shape");
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels.to_owned(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').expect("closing brace");
                let mut labels = Vec::new();
                for pair in body.split(',') {
                    let (k, v) = pair.split_once("=\"").expect("label pair shape");
                    let v = v.strip_suffix('"').expect("label value quoted");
                    prop_assert!(
                        k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                        "bad label name {k:?} in {line}"
                    );
                    labels.push((k.to_owned(), v.to_owned()));
                }
                (name.to_owned(), labels)
            }
        };
        // TYPE must precede the family's first sample.
        prop_assert!(
            family_of(&name, &out.types).is_some(),
            "sample {name} before (or without) its TYPE line"
        );
        let value: f64 = value.parse().expect("sample value parses");
        let mut labels = labels;
        labels.sort();
        out.samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(out)
}

/// One histogram series' pieces, gathered per label set: the `(le,
/// value)` buckets in exposition order plus the `_sum` and `_count`.
type HistogramSeries = (Vec<(String, f64)>, Option<f64>, Option<f64>);

/// The per-label-set histogram invariants, for one `histogram` family.
fn check_histogram_family(e: &Exposition, family: &str) -> Result<(), TestCaseError> {
    // Group by the label set minus `le`, preserving bucket order.
    let mut groups: BTreeMap<Vec<(String, String)>, HistogramSeries> = BTreeMap::new();
    for s in &e.samples {
        let base: Vec<(String, String)> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .cloned()
            .collect();
        if s.name == format!("{family}_bucket") {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone())
                .expect("bucket has le");
            groups.entry(base).or_default().0.push((le, s.value));
        } else if s.name == format!("{family}_sum") {
            groups.entry(base).or_default().1 = Some(s.value);
        } else if s.name == format!("{family}_count") {
            groups.entry(base).or_default().2 = Some(s.value);
        }
    }
    prop_assert!(!groups.is_empty(), "histogram {family} has no series");
    for (labels, (buckets, sum, count)) in groups {
        prop_assert_eq!(
            buckets.len(),
            BUCKETS + 1,
            "{}{:?}: wrong bucket count",
            family,
            labels
        );
        for w in buckets.windows(2) {
            prop_assert!(
                w[0].1 <= w[1].1,
                "{}{:?}: buckets not cumulative: {:?} then {:?}",
                family,
                labels,
                w[0],
                w[1]
            );
        }
        let (last_le, last_count) = buckets.last().unwrap().clone();
        prop_assert_eq!(last_le.as_str(), "+Inf", "{}{:?}", family, labels);
        let count = count.expect("_count present");
        prop_assert_eq!(last_count, count, "{}{:?}: +Inf != _count", family, labels);
        let sum = sum.expect("_sum present");
        prop_assert!(sum >= 0.0, "{}{:?}: negative _sum {}", family, labels, sum);
        // Finite bounds strictly increase.
        let finite: Vec<f64> = buckets[..BUCKETS]
            .iter()
            .map(|(le, _)| le.parse().expect("finite le parses"))
            .collect();
        for w in finite.windows(2) {
            prop_assert!(w[0] < w[1], "{}{:?}: bounds not increasing", family, labels);
        }
    }
    Ok(())
}
