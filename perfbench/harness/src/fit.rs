//! The batch workloads: `McCatch::builder()…fit(…)` then `.detect()`
//! back to back through the library, on seeded datasets.
//!
//! `fit-vectors` runs the http analogue (3-d) on a kd-tree and Uniform
//! 20-d on a kd-tree and on a Slim-tree; `fit-strings` runs Last Names on
//! a Slim-tree under Levenshtein. One *pass* fits and detects every
//! dataset of the workload once. A warm-up pass runs first (the first
//! Slim-tree fit of a process runs cold), then passes repeat on the
//! calling thread until the run's time is up, with the host
//! [`Reference`] task before the first fit and after each fit. Fits and
//! the task are timed on the process CPU clock.

use crate::reference::{process_cpu, Reference, NOMINAL};
use crate::report::{hash_f64s, median_secs, Report};
use mccatch_core::McCatch;
use mccatch_data::{http, http_dos_ids, last_names, uniform};
use mccatch_index::{IndexBuilder, KdTreeBuilder, SlimTreeBuilder};
use mccatch_metric::{Euclidean, Levenshtein, Metric};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `http(HTTP_N)` for `fit-vectors`: Tab. III's HTTP scaled down to a
/// few seconds per single-threaded fit.
pub const HTTP_N: usize = 20_000;
/// `uniform(U20D_N, 20)`: the Fig. 7 Uniform-20d size.
pub const U20D_N: usize = 4_000;
/// `last_names(NAMES_INLIERS, NAMES_OUTLIERS)`: a fifth of Tab. III's
/// inliers, so a run holds dozens of fits.
pub const NAMES_INLIERS: usize = 1_000;
pub const NAMES_OUTLIERS: usize = 50;
/// Counting threads per fit. One fit on both cores waits at every join
/// for the slower core, and on the reference host the two cores' speeds
/// drift apart by up to 2x within seconds; with names, two counting
/// threads also contend in the allocator (three heap allocations per
/// Levenshtein evaluation) and single fits swing 3x.
pub const FIT_THREADS: usize = 1;

/// How many times set-up (dataset generation, a few ms) repeats; its
/// median, scaled like the fits, is `setup_s`.
const SETUP_REPS: usize = 25;
/// Measured passes, whatever the time budget says.
const MIN_PASSES: usize = 2;

/// How long one fit+detect took.
#[derive(Clone, Copy)]
struct FitTime {
    wall: Duration,
    /// CPU time of the process, which runs nothing else meanwhile.
    cpu: Duration,
}

/// One fit+detect of one dataset: its time, per-point scores, and the
/// flagged outliers.
type FitRun = Box<dyn Fn() -> Result<(FitTime, Vec<f64>, Vec<u32>), String> + Send + Sync>;

/// One dataset of a workload.
struct Case {
    /// `{dataset}_{backend}`, as in `fit.http_kd.pts_per_s`.
    name: &'static str,
    n: usize,
    run: FitRun,
    /// Ids every fit must flag (the http DoS microcluster).
    must_flag: Vec<u32>,
}

fn case<P, M, B>(
    name: &'static str,
    points: Vec<P>,
    metric: M,
    builder: B,
    must_flag: Vec<u32>,
) -> Case
where
    P: Send + Sync + 'static,
    M: Metric<P> + Clone + Send + Sync + 'static,
    B: IndexBuilder<P, M> + Clone + Send + Sync + 'static,
{
    let n = points.len();
    let points: Arc<[P]> = points.into();
    let run = move || {
        let detector = McCatch::builder()
            .threads(FIT_THREADS)
            .build()
            .map_err(|e| e.to_string())?;
        let (t0, c0) = (Instant::now(), process_cpu());
        let fitted = detector
            .fit(Arc::clone(&points), metric.clone(), builder.clone())
            .map_err(|e| e.to_string())?;
        let out = black_box(fitted.detect());
        let time = FitTime {
            wall: t0.elapsed(),
            cpu: process_cpu().saturating_sub(c0),
        };
        Ok((time, out.point_scores, out.outliers))
    };
    Case {
        name,
        n,
        run: Box::new(run),
        must_flag,
    }
}

/// Times `generate` [`SETUP_REPS`] times on the CPU clock, keeping the
/// last result. The times are scaled by the host reference task, run
/// before and after them all, as the fits are.
fn timed_setup<T>(host: &Reference, mut generate: impl FnMut() -> T) -> (T, Vec<Duration>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let before = host.run();
    for _ in 0..SETUP_REPS {
        let c0 = process_cpu();
        last = Some(black_box(generate()));
        times.push(process_cpu().saturating_sub(c0));
    }
    let speed = 2.0 * NOMINAL.as_secs_f64() / (before + host.run()).as_secs_f64();
    let times = times.iter().map(|t| t.mul_f64(speed)).collect();
    (last.expect("SETUP_REPS >= 1"), times)
}

pub fn fit_vectors(seed: u64, seconds: f64) -> Result<Report, String> {
    let host = Reference::new();
    let ((h, u), setup) = timed_setup(&host, || (http(HTTP_N, seed), uniform(U20D_N, 20, seed)));
    let cases = vec![
        case(
            "http_kd",
            h.points,
            Euclidean,
            KdTreeBuilder::default(),
            http_dos_ids(HTTP_N),
        ),
        case(
            "u20d_kd",
            u.clone(),
            Euclidean,
            KdTreeBuilder::default(),
            Vec::new(),
        ),
        case(
            "u20d_slim",
            u,
            Euclidean,
            SlimTreeBuilder::default(),
            Vec::new(),
        ),
    ];
    let mut rep = Report::default();
    rep.size("http", HTTP_N);
    rep.size("u20d", U20D_N);
    run_passes(&mut rep, &host, &cases, &setup, seconds);
    Ok(rep)
}

pub fn fit_strings(seed: u64, seconds: f64) -> Result<Report, String> {
    let host = Reference::new();
    let (names, setup) = timed_setup(&host, || last_names(NAMES_INLIERS, NAMES_OUTLIERS, seed));
    let cases = vec![case(
        "names_slim",
        names.points,
        Levenshtein,
        SlimTreeBuilder::default(),
        Vec::new(),
    )];
    let mut rep = Report::default();
    rep.size("names", NAMES_INLIERS + NAMES_OUTLIERS);
    run_passes(&mut rep, &host, &cases, &setup, seconds);
    Ok(rep)
}

/// One fit+detect, reduced to what the checks need: its time, the point
/// scores' hash, and how many required ids went unflagged.
fn fit_once(c: &Case) -> Result<(FitTime, u64, usize), String> {
    let (time, scores, outliers) = (c.run)()?;
    let missed = c
        .must_flag
        .iter()
        .filter(|id| outliers.binary_search(id).is_err())
        .count();
    Ok((time, hash_f64s(&scores), missed))
}

/// Runs a warm-up pass, then passes until `seconds` have passed (at
/// least [`MIN_PASSES`]), with one run of the host reference task before
/// the first fit and after every fit. Every fit is checked: the required
/// ids are flagged, and the point scores hash as in the warm-up pass.
fn run_passes(
    rep: &mut Report,
    host: &Reference,
    cases: &[Case],
    setup: &[Duration],
    seconds: f64,
) {
    let reference: Vec<Option<u64>> = cases
        .iter()
        .map(|c| fit_once(c).map(|(_, h, _)| h).ok())
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut per_case: Vec<Vec<FitTime>> = vec![Vec::new(); cases.len()];
    // Each fit's CPU time at the host's nominal speed: scaled by how much
    // faster than nominal the reference task ran, on average, just before
    // and just after the fit.
    let mut scaled: Vec<Vec<Duration>> = vec![Vec::new(); cases.len()];
    let mut passes: Vec<Duration> = Vec::new();
    let mut host_times: Vec<Duration> = vec![host.run()];
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let mut pass = Duration::ZERO;
        for (i, c) in cases.iter().enumerate() {
            let name = c.name;
            let outcome = fit_once(c);
            let before = *host_times.last().expect("one run before the first fit");
            let after = host.run();
            host_times.push(after);
            match outcome {
                Err(e) => rep.op(Err(format!("{name}: fit failed: {e}"))),
                Ok((t, h, missed)) => {
                    pass += t.wall;
                    per_case[i].push(t);
                    let speed = 2.0 * NOMINAL.as_secs_f64() / (before + after).as_secs_f64();
                    scaled[i].push(t.cpu.mul_f64(speed));
                    let same = reference[i] == Some(h);
                    rep.check(same && missed == 0, || {
                        format!(
                            "{name}: scores hash {h:016x} {} the warm-up's; \
                             {missed} required ids not flagged",
                            if same { "matches" } else { "differs from" }
                        )
                    });
                }
            }
        }
        passes.push(pass);
    }

    // Points per second of one pass at the host's nominal speed: each
    // dataset's median scaled fit time, summed. The CPU clock leaves out
    // time the host gave the CPU to other guests, the scaling cancels the
    // drift in how fast the host runs this kind of code, and medians drop
    // fits that a burst of contention hit harder than the tasks around
    // them. The unscaled rate is the `fit.cpu_pts_per_s` detail.
    let pass_points: usize = cases.iter().map(|c| c.n).sum();
    let pass_scaled: f64 = scaled.iter().map(|t| median_secs(t)).sum();
    let fitted: usize = cases
        .iter()
        .zip(&per_case)
        .map(|(c, t)| c.n * t.len())
        .sum();
    let cpu: Duration = per_case.iter().flatten().map(|t| t.cpu).sum();
    rep.metric("setup_s", median_secs(setup), "s", setup.len());
    rep.metric(
        "items_per_s",
        pass_points as f64 / pass_scaled,
        "items/s",
        passes.len(),
    );
    rep.detail(
        "fit.cpu_pts_per_s",
        fitted as f64 / cpu.as_secs_f64(),
        "points/s",
        passes.len(),
    );
    rep.detail(
        "fit.host_ref_ms",
        median_secs(&host_times) * 1e3,
        "ms",
        host_times.len(),
    );
    rep.detail(
        "fit.pass.p50_ms",
        median_secs(&passes) * 1e3,
        "ms",
        passes.len(),
    );
    for (c, times) in cases.iter().zip(&per_case) {
        let cpu: Vec<Duration> = times.iter().map(|t| t.cpu).collect();
        rep.detail(
            &format!("fit.{}.pts_per_s", c.name),
            c.n as f64 / median_secs(&cpu),
            "points/s",
            times.len(),
        );
    }
}
