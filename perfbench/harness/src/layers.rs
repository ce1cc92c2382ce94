//! The traced run: per-layer metrics, measured from outside each layer
//! by timing calls into its public functions inside [`Tracer`] spans.
//!
//! Every traced run sweeps all layers, whichever workload it is named
//! after, so it always reports the full per-layer metric set:
//!
//! * fit layers (`metric`, `index`, `core`) on the four fit datasets,
//!   re-running the pipeline stage by stage through the public stage
//!   functions, next to one `fit()` + `detect()` of the same data;
//! * serving layers (`index` 1-NN, `core` scoring, `stream`, `tenant`,
//!   `persist`, `server` NDJSON codec, `obs`) in-process on the serving
//!   workloads' seed and batches;
//! * short end-to-end serving runs against the binary, whose p50s minus
//!   the in-process cost of the same batch give the `server.*.residual_ms`
//!   figures (HTTP framing, sockets, worker hand-off).

use crate::fit::{FIT_THREADS, HTTP_N, NAMES_INLIERS, NAMES_OUTLIERS, U20D_N};
use crate::report::{hash_f64s, median_secs, Report};
use crate::serve::{self, Data, Env, Scratch, BATCH, TENANT};
use crate::spans::Tracer;
use mccatch_core::counts::{count_neighbors, count_neighbors_per_radius};
use mccatch_core::gel::spot_microclusters;
use mccatch_core::score::score_microclusters;
use mccatch_core::{compute_cutoff, McCatch, OraclePlot, Params, RadiusGrid};
use mccatch_data::{http, last_names, uniform};
use mccatch_index::{IndexBuilder, KdTreeBuilder, RangeIndex, SlimTreeBuilder};
use mccatch_metric::{Euclidean, Levenshtein, Metric};
use mccatch_obs::{Fields, Histogram, Level, Logger};
use mccatch_persist::{load_model, FsyncPolicy, ReplayReader, ReplayWriter};
use mccatch_server::ndjson::{json_f64, scored_event_json, vector_parser};
use mccatch_stream::{RefitPolicy, ScoredEvent, StreamConfig, StreamDetector};
use mccatch_tenant::{shard_file_path, ReplaySpec, Tenant, TenantMap, TenantSpec};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stage-by-stage runs and `fit()` + `detect()` runs per fit dataset
/// (medians reported).
const FIT_REPS: usize = 3;
/// Queries per `multi_range_count` sample.
const MRC_QUERIES: usize = 2_000;
/// Distance evaluations per metric sample (Levenshtein is ~100× dearer).
const VECTOR_PAIRS: usize = 1_000_000;
const STRING_PAIRS: usize = 100_000;
/// Held-out events pushed through each ingest path.
const INGEST_EVENTS: usize = 4_000;
/// Synchronous refits timed per layer (median reported).
const REFITS: usize = 3;
/// Length of each end-to-end serving run used for the residuals.
const E2E_SECONDS: f64 = 3.0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

fn median_ms(samples: &[Duration]) -> f64 {
    median_secs(samples) * 1e3
}

pub fn run(workload: &str, seed: u64, bin: &Path, out_dir: &Path) -> Result<Report, String> {
    let mut tr = Tracer::new();
    let mut rep = Report::default();
    let env = Env {
        bin: bin.to_owned(),
        out_dir: out_dir.to_owned(),
        seed,
    };

    let h: Arc<[Vec<f64>]> = http(HTTP_N, seed).points.into();
    let u: Arc<[Vec<f64>]> = uniform(U20D_N, 20, seed).into();
    let names: Arc<[String]> = last_names(NAMES_INLIERS, NAMES_OUTLIERS, seed)
        .points
        .into();
    rep.size("http", h.len());
    rep.size("u20d", u.len());
    rep.size("names", names.len());

    metric_layer(&mut tr, &mut rep, "euclid3", &h, Euclidean, VECTOR_PAIRS);
    metric_layer(&mut tr, &mut rep, "euclid20", &u, Euclidean, VECTOR_PAIRS);
    metric_layer(
        &mut tr,
        &mut rep,
        "levenshtein",
        &names,
        Levenshtein,
        STRING_PAIRS,
    );
    let (kd, slim) = (KdTreeBuilder::default(), SlimTreeBuilder::default());
    fit_layers(&mut tr, &mut rep, "http_kd", h, Euclidean, kd)?;
    fit_layers(&mut tr, &mut rep, "u20d_kd", Arc::clone(&u), Euclidean, kd)?;
    fit_layers(&mut tr, &mut rep, "u20d_slim", u, Euclidean, slim)?;
    fit_layers(&mut tr, &mut rep, "names_slim", names, Levenshtein, slim)?;

    let data = Data::new(seed);
    rep.size("seed_points", data.seed.len());
    rep.size("held_out", data.held_out.len());
    let scratch = Scratch::new(&env, "layers")?;
    let inproc = serving_layers(&mut tr, &mut rep, &data, &scratch)?;
    residuals(&mut tr, &mut rep, &env, &inproc)?;
    obs_layer(&mut tr, &mut rep);

    let trace = out_dir.join(format!("trace-{workload}-{seed}.json"));
    tr.write_chrome_json(&trace)
        .map_err(|e| format!("{}: {e}", trace.display()))?;
    eprintln!("perfbench-harness: spans written to {}", trace.display());
    Ok(rep)
}

/// ns per distance evaluation over `pairs` fixed pseudo-random pairs.
fn metric_layer<P, M: Metric<P>>(
    tr: &mut Tracer,
    rep: &mut Report,
    name: &str,
    points: &[P],
    metric: M,
    pairs: usize,
) {
    let n = points.len();
    let (_, t) = tr.span(&format!("metric.{name}"), |_| {
        let (mut acc, mut j) = (0.0, 0usize);
        for i in 0..pairs {
            j = (j + 7_919) % n;
            acc += metric.distance(black_box(&points[i % n]), black_box(&points[j]));
        }
        black_box(acc)
    });
    rep.metric(
        &format!("metric.{name}.ns_per_eval"),
        ns_per(t, pairs),
        "ns",
        pairs,
    );
}

/// The fit pipeline stage by stage (build, count, plateaus, cutoff, gel,
/// score) through the public stage functions, then one `fit()` +
/// `detect()` of the same data, the per-radius counting reference, and
/// a `multi_range_count` sample at the fit's radii and cap, all on the fit
/// workloads' counting thread count.
fn fit_layers<P, M, B>(
    tr: &mut Tracer,
    rep: &mut Report,
    ds: &str,
    points: Arc<[P]>,
    metric: M,
    builder: B,
) -> Result<(), String>
where
    P: Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: IndexBuilder<P, M> + Clone + 'static,
{
    let n = points.len();
    let params = Params {
        threads: FIT_THREADS,
        ..Params::default()
    };
    let r = params.try_resolve(n).map_err(|e| e.to_string())?;
    let metric_arc = Arc::new(metric.clone());
    let mut stage_times: Vec<[Duration; 6]> = Vec::new();
    let mut e2e_times: Vec<Duration> = Vec::new();
    let mut last = None;
    for _ in 0..FIT_REPS {
        let (staged, _) = tr.span(&format!("core.{ds}.stages"), |tr| {
            let ((tree, grid), t_build) = tr.span(&format!("index.{ds}.build"), |_| {
                let tree = builder.build_all(Arc::clone(&points), Arc::clone(&metric_arc));
                let grid = RadiusGrid::new(tree.diameter_estimate(), r.a);
                (tree, grid)
            });
            let radii = grid.radii().to_vec();
            let build_evals = tree.distance_stats().evals;
            let (table, t_count) = tr.span(&format!("core.{ds}.count"), |_| {
                count_neighbors(&tree, &points, &radii, r.c, r.threads)
            });
            let count_evals = tree.distance_stats().evals - build_evals;
            let (plot, t_plateaus) = tr.span(&format!("core.{ds}.plateaus"), |_| {
                OraclePlot::from_counts(&table, &radii, r.b, r.c)
            });
            let (cutoff, t_cutoff) = tr.span(&format!("core.{ds}.cutoff"), |_| {
                compute_cutoff(plot.histogram(), &radii)
            });
            let (spotted, t_gel) = tr.span(&format!("core.{ds}.gel"), |_| {
                spot_microclusters(&points, &metric_arc, &builder, &plot, &cutoff, &radii)
            });
            let (scores, t_score) = tr.span(&format!("core.{ds}.score"), |_| {
                score_microclusters(
                    &points,
                    &metric_arc,
                    &builder,
                    &spotted.clusters,
                    &spotted.outliers,
                    &plot,
                    &radii,
                    r.threads,
                )
            });
            let t = [t_build, t_count, t_plateaus, t_cutoff, t_gel, t_score];
            (
                tree,
                radii,
                table,
                scores.point_scores,
                t,
                build_evals,
                count_evals,
            )
        });
        let (tree, radii, table, scores, t, build_evals, count_evals) = staged;
        stage_times.push(t);
        let (e2e, t_e2e) = tr.span(&format!("core.{ds}.fit_detect"), |_| {
            let detector = McCatch::new(params.clone()).map_err(|e| e.to_string())?;
            let fitted = detector
                .fit(Arc::clone(&points), metric.clone(), builder.clone())
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(fitted.detect().point_scores)
        });
        let e2e = e2e?;
        e2e_times.push(t_e2e);
        rep.check(hash_f64s(&e2e) == hash_f64s(&scores), || {
            format!("{ds}: stage-by-stage scores differ from fit()+detect()")
        });
        last = Some((tree, radii, table, build_evals, count_evals));
    }
    let (tree, radii, table, build_evals, count_evals) = last.expect("FIT_REPS >= 1");

    let before = tree.distance_stats().evals;
    let (reference, t_ref) = tr.span(&format!("core.{ds}.count_per_radius"), |_| {
        count_neighbors_per_radius(&tree, &points, &radii, r.c, r.threads)
    });
    let ref_evals = tree.distance_stats().evals - before;
    rep.check((0..n).all(|i| reference.row(i) == table.row(i)), || {
        format!("{ds}: per-radius counts differ from count_neighbors")
    });

    let m = radii.len() - 1;
    let ids: Vec<usize> = (0..MRC_QUERIES.min(n))
        .map(|k| k * n / MRC_QUERIES.min(n))
        .collect();
    let before = tree.distance_stats().evals;
    let (_, t_mrc) = tr.span(&format!("index.{ds}.mrc"), |_| {
        for &i in &ids {
            black_box(tree.multi_range_count(&points[i], &radii[..m], r.c as u32));
        }
    });
    let mrc_evals = tree.distance_stats().evals - before;

    // Per stage, the median over the repetitions; the e2e median minus
    // their sum is what no stage span covers.
    let stage_ms: Vec<f64> = (0..6)
        .map(|k| median_ms(&stage_times.iter().map(|t| t[k]).collect::<Vec<_>>()))
        .collect();
    let fit_detect_ms = median_ms(&e2e_times);
    let q = ids.len();
    let reps = FIT_REPS;
    rep.metric(&format!("index.{ds}.build_ms"), stage_ms[0], "ms", reps);
    rep.metric(
        &format!("index.{ds}.build_evals"),
        build_evals as f64,
        "count",
        1,
    );
    rep.metric(
        &format!("index.{ds}.mrc_ns_per_query"),
        ns_per(t_mrc, q),
        "ns",
        q,
    );
    rep.metric(
        &format!("index.{ds}.mrc_evals_per_query"),
        mrc_evals as f64 / q as f64,
        "count",
        q,
    );
    rep.metric(&format!("core.{ds}.count_ms"), stage_ms[1], "ms", reps);
    rep.metric(
        &format!("core.{ds}.count_evals"),
        count_evals as f64,
        "count",
        1,
    );
    rep.metric(
        &format!("core.{ds}.count_per_radius_ms"),
        ms(t_ref),
        "ms",
        1,
    );
    rep.metric(
        &format!("core.{ds}.count_per_radius_evals"),
        ref_evals as f64,
        "count",
        1,
    );
    for (k, stage) in ["plateaus", "cutoff", "gel", "score"].iter().enumerate() {
        rep.metric(
            &format!("core.{ds}.{stage}_ms"),
            stage_ms[k + 2],
            "ms",
            reps,
        );
    }
    let unattributed = fit_detect_ms - stage_ms.iter().sum::<f64>();
    rep.metric(
        &format!("core.{ds}.unattributed_ms"),
        unattributed,
        "ms",
        reps,
    );
    rep.detail(
        &format!("core.{ds}.fit_detect_ms"),
        fit_detect_ms,
        "ms",
        reps,
    );
    Ok(())
}

/// In-process cost of one batch on each serving path (parse + score or
/// ingest + render), per batch, for the residuals.
struct InProcess {
    score: Vec<Duration>,
    tscore: Vec<Duration>,
    ingest: Vec<Duration>,
}

fn parse_batch(body: &[u8]) -> Result<Vec<Vec<f64>>, String> {
    let parse = vector_parser(Some(3));
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    text.lines().map(|l| parse(l)).collect()
}

fn render_scores(scores: &[f64]) -> String {
    let mut body = String::new();
    for &s in scores {
        body.push_str(&format!("{{\"score\": {}}}\n", json_f64(s)));
    }
    body
}

fn render_events(events: &[ScoredEvent]) -> String {
    let mut body = String::new();
    for e in events {
        body.push_str(&scored_event_json(e));
        body.push('\n');
    }
    body
}

fn serving_layers(
    tr: &mut Tracer,
    rep: &mut Report,
    data: &Data,
    scratch: &Scratch,
) -> Result<InProcess, String> {
    let detector = McCatch::builder().build().map_err(|e| e.to_string())?;
    let kd = KdTreeBuilder::default();
    let seed: Arc<[Vec<f64>]> = data.seed.clone().into();
    let held = &data.held_out;
    let events = held.len();

    // index + core: the serving model's inlier tree and batch scoring.
    let fitted = detector
        .fit(Arc::clone(&seed), Euclidean, kd)
        .map_err(|e| e.to_string())?;
    let outliers = fitted.detect().outliers;
    let inliers: Vec<u32> = (0..seed.len() as u32)
        .filter(|i| outliers.binary_search(i).is_err())
        .collect();
    let inlier_tree = kd.build(Arc::clone(&seed), inliers, Arc::new(Euclidean));
    let (_, t) = tr.span("index.http_kd.knn1", |_| {
        for q in held {
            black_box(inlier_tree.knn(q, 1));
        }
    });
    rep.metric(
        "index.http_kd.knn1_ns_per_query",
        ns_per(t, events),
        "ns",
        events,
    );
    let (_, t) = tr.span("core.http_kd.score_points", |_| {
        for chunk in held.chunks(BATCH) {
            black_box(fitted.score_points(chunk));
        }
    });
    rep.metric(
        "core.http_kd.score_points_ns_per_event",
        ns_per(t, events),
        "ns",
        events,
    );

    // server: the NDJSON codec.
    let (parsed, t) = tr.span("server.ndjson.parse", |_| {
        data.batches
            .iter()
            .map(|b| parse_batch(b))
            .collect::<Result<Vec<_>, _>>()
    });
    let parsed = parsed?;
    rep.check(parsed.concat() == *held, || {
        "NDJSON batches do not parse back to the held-out points".to_owned()
    });
    rep.metric(
        "server.ndjson.parse_ns_per_line",
        ns_per(t, events),
        "ns",
        events,
    );
    let scores = fitted.score_points(held);
    let (_, t) = tr.span("server.ndjson.render_score", |_| {
        black_box(render_scores(&scores))
    });
    rep.metric(
        "server.ndjson.render_score_ns_per_line",
        ns_per(t, events),
        "ns",
        events,
    );

    // stream: one detector over the seed window, like the default service.
    let config = StreamConfig {
        capacity: data.seed.len(),
        policy: RefitPolicy::Manual,
        ..StreamConfig::default()
    };
    let stream = StreamDetector::new(
        config.clone(),
        detector.clone(),
        Euclidean,
        kd,
        data.seed.clone(),
    )
    .map_err(|e| e.to_string())?;
    let (_, t_stream) = tr.span("stream.score_batch", |_| {
        for chunk in held.chunks(BATCH) {
            black_box(stream.score_batch(chunk));
        }
    });
    rep.metric(
        "stream.score_batch_ns_per_event",
        ns_per(t_stream, events),
        "ns",
        events,
    );
    let ingest_pts = &held[..INGEST_EVENTS];
    let (scored, t) = tr.span("stream.ingest", |_| {
        ingest_pts
            .iter()
            .map(|p| stream.ingest(p.clone()))
            .collect::<Vec<_>>()
    });
    rep.metric(
        "stream.ingest_ns_per_event",
        ns_per(t, INGEST_EVENTS),
        "ns",
        INGEST_EVENTS,
    );
    let (_, t) = tr.span("server.ndjson.render_event", |_| {
        black_box(render_events(&scored))
    });
    rep.metric(
        "server.ndjson.render_event_ns_per_line",
        ns_per(t, scored.len()),
        "ns",
        scored.len(),
    );
    let refits = (0..REFITS)
        .map(|_| {
            let (r, t) = tr.span("stream.refit", |_| stream.refit_now());
            r.map(|_| t).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    rep.metric("stream.refit_ms", median_ms(&refits), "ms", REFITS);

    // tenant: two shards with replay logs, like the CLI's tenants.
    let replay_base = scratch.path("replay.log");
    let snap_base = scratch.path("snap");
    let spec = TenantSpec {
        shards: 2,
        stream: config,
        replay: Some(ReplaySpec {
            base: replay_base.clone(),
            fsync: FsyncPolicy::EveryN(64),
        }),
        ..TenantSpec::default()
    };
    let tenant = Tenant::new(TENANT, &detector, &Euclidean, &kd, &spec, data.seed.clone())
        .map_err(|e| e.to_string())?;
    let (_, t_tenant) = tr.span("tenant.score_batch", |_| {
        for chunk in held.chunks(BATCH) {
            black_box(tenant.score_batch(chunk));
        }
    });
    rep.metric(
        "tenant.score_batch_ns_per_event",
        ns_per(t_tenant, events),
        "ns",
        events,
    );
    rep.metric(
        "tenant.fanout_overhead_ns_per_event",
        ns_per(t_tenant, events) - ns_per(t_stream, events),
        "ns",
        events,
    );
    let (ingested, t) = tr.span("tenant.ingest", |_| {
        ingest_pts
            .iter()
            .filter(|p| tenant.ingest((*p).clone()).is_ok())
            .count()
    });
    rep.check(ingested == INGEST_EVENTS, || {
        format!("tenant ingest accepted {ingested} of {INGEST_EVENTS} events")
    });
    rep.metric(
        "tenant.ingest_ns_per_event",
        ns_per(t, INGEST_EVENTS),
        "ns",
        INGEST_EVENTS,
    );
    let refits = (0..REFITS)
        .map(|_| {
            let (r, t) = tr.span("tenant.refit", |_| tenant.refit_now());
            r.map(|_| t).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    rep.metric("tenant.refit_ms", median_ms(&refits), "ms", REFITS);
    let rejected: u64 = tenant.queue_stats().iter().map(|q| q.rejected).sum();
    rep.metric("tenant.admission_rejected", rejected as f64, "count", 1);

    // tenant + persist: snapshot, verified restore, and their parts.
    let (saved, t) = tr.span("tenant.save_snapshot", |_| tenant.save_snapshot(&snap_base));
    let saved = saved.map_err(|e| e.to_string())?;
    rep.metric("tenant.save_snapshot_ms", ms(t), "ms", 1);
    rep.metric(
        "persist.snapshot_bytes",
        saved.bytes as f64,
        "bytes",
        saved.shards,
    );
    let map = TenantMap::new(detector.clone(), Euclidean, kd, spec).map_err(|e| e.to_string())?;
    let (restored, t) = tr.span("tenant.restore", |_| map.restore_tenants(&snap_base));
    restored.map_err(|e| e.to_string())?;
    rep.metric("tenant.restore_ms", ms(t), "ms", 1);
    let probe = &held[..BATCH];
    let same = map
        .get(TENANT)
        .is_some_and(|back| back.score_batch(probe).0 == tenant.score_batch(probe).0);
    rep.check(same, || {
        "restored tenant scores the probe differently".to_owned()
    });
    let shard0 = shard_file_path(&snap_base, TENANT, 0);
    let (loaded, t) = tr.span("persist.load_model", |_| {
        let f = std::fs::File::open(&shard0).map_err(|e| e.to_string())?;
        load_model::<Vec<f64>, _, _, _>(std::io::BufReader::new(f), Euclidean, kd)
            .map_err(|e| e.to_string())
    });
    loaded?;
    rep.metric("persist.load_model_ms", ms(t), "ms", 1);
    let log0 = shard_file_path(&replay_base, TENANT, 0);
    let (read, t) = tr.span("persist.replay_read", |_| {
        ReplayReader::open(&log0).and_then(|r| r.read_all::<Vec<f64>>())
    });
    let read = read.map_err(|e| e.to_string())?;
    rep.metric("persist.replay_read_ms", ms(t), "ms", read.len());
    let mut writer = ReplayWriter::open(scratch.path("append.log"), FsyncPolicy::EveryN(64))
        .map_err(|e| e.to_string())?;
    let (appended, t) = tr.span("persist.replay_append", |_| {
        ingest_pts
            .iter()
            .enumerate()
            .try_for_each(|(i, p)| writer.append(i as u64, i as u64, p))
    });
    appended.map_err(|e| e.to_string())?;
    rep.metric(
        "persist.replay_append_ns_per_event",
        ns_per(t, INGEST_EVENTS),
        "ns",
        INGEST_EVENTS,
    );

    // The same batches end to end in-process: parse + score/ingest + render.
    let mut inproc = InProcess {
        score: Vec::new(),
        tscore: Vec::new(),
        ingest: Vec::new(),
    };
    for body in &data.batches {
        let t0 = Instant::now();
        let pts = parse_batch(body)?;
        black_box(render_scores(&stream.score_batch(&pts)));
        inproc.score.push(t0.elapsed());
        let t0 = Instant::now();
        let pts = parse_batch(body)?;
        black_box(render_scores(&tenant.score_batch(&pts).0));
        inproc.tscore.push(t0.elapsed());
        let t0 = Instant::now();
        let pts = parse_batch(body)?;
        let events: Vec<ScoredEvent> = pts
            .into_iter()
            .filter_map(|p| tenant.ingest(p).ok())
            .collect();
        black_box(render_events(&events));
        inproc.ingest.push(t0.elapsed());
    }
    Ok(inproc)
}

/// `server.*.residual_ms`: end-to-end p50 from short runs against the
/// binary minus the in-process median for the same batches.
fn residuals(
    tr: &mut Tracer,
    rep: &mut Report,
    env: &Env,
    inproc: &InProcess,
) -> Result<(), String> {
    let (score, _) = tr.span("e2e.serve-score", |_| serve::serve_score(env, E2E_SECONDS));
    let (ingest, _) = tr.span("e2e.ingest-refit", |_| {
        serve::ingest_refit(env, E2E_SECONDS)
    });
    let (score, ingest) = (score?, ingest?);
    let p50 = |r: &Report, name: &str| {
        r.details
            .iter()
            .find(|d| d.name == name)
            .map(|d| (d.value, d.samples))
            .ok_or_else(|| format!("{name} missing"))
    };
    for (name, e2e, local) in [
        ("score", p50(&score, "score.p50_ms")?, &inproc.score),
        ("tscore", p50(&score, "tscore.p50_ms")?, &inproc.tscore),
        ("ingest", p50(&ingest, "ingest.p50_ms")?, &inproc.ingest),
    ] {
        rep.metric(
            &format!("server.{name}.residual_ms"),
            e2e.0 - median_ms(local),
            "ms",
            e2e.1,
        );
    }
    for r in [score, ingest] {
        rep.attempted += r.attempted;
        rep.failed += r.failed;
        rep.failures.extend(r.failures);
    }
    Ok(())
}

fn obs_layer(tr: &mut Tracer, rep: &mut Report) {
    const RECORDS: u64 = 1_000_000;
    const LINES: usize = 100_000;
    let hist = Histogram::new();
    let (_, t) = tr.span("obs.hist_record", |_| {
        for i in 0..RECORDS {
            hist.record_nanos(black_box(i.wrapping_mul(2_654_435_761) % (1 << 30)));
        }
    });
    rep.metric(
        "obs.hist_record_ns",
        ns_per(t, RECORDS as usize),
        "ns",
        RECORDS as usize,
    );
    let logger = Logger::off();
    let (_, t) = tr.span("obs.log_render", |_| {
        for i in 0..LINES {
            let fields = Fields::new()
                .str("id", "0badcafe-1")
                .str("method", "POST")
                .str("path", "/score")
                .u64("status", 200)
                .f64("duration_ms", i as f64 * 1e-3)
                .str("endpoint", "score")
                .u64("bytes_in", 12_345)
                .u64("bytes_out", 11_000);
            black_box(logger.render(Level::Info, "request", &fields));
        }
    });
    rep.metric("obs.log_render_ns", ns_per(t, LINES), "ns", LINES);
}
