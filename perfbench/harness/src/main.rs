//! The repository benchmark's workload runner.
//!
//! ```text
//! perfbench-harness --workload NAME --seed N --seconds S --trace 0|1
//!                   --server-bin PATH --out-dir DIR
//! ```
//!
//! `--trace 0` runs one workload with tracing off and prints its
//! end-to-end metrics; `--trace 1` runs the traced layer sweep and
//! prints the per-layer metrics. Either way the last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Earlier
//! lines carry the stamp (host, commit, profile, seed, sizes) and one
//! `detail` line per named figure with its unit and sample count.
//! `perfbench/run.py` builds everything and calls this binary.

mod fit;
mod layers;
mod reference;
mod report;
mod serve;
mod spans;

use report::{Figure, Report};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["fit-vectors", "fit-strings", "serve-score", "ingest-refit"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut server_bin, mut out_dir) = (None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value()? == "1"),
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        server_bin: server_bin.ok_or("--server-bin is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", mccatch_obs::json_escape(s))
}

/// Formats a metric value with every digit it has (shortest round-trip).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn print_stamp(args: &Args, rep: &Report) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sizes: Vec<String> = rep
        .sizes
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!(
        "stamp {{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"nproc\": {nproc}, \
         \"cpu\": {}, \"commit\": {}, \"profile\": {}, \"sizes\": {{{}}}}}",
        json_str(&args.workload),
        u8::from(args.trace),
        args.seed,
        args.seconds,
        json_str(&cpu_model()),
        json_str(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned())),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        sizes.join(", ")
    );
}

fn print_figure(kind: &str, f: &Figure) {
    println!(
        "{kind} {} {} {} samples={}",
        f.name,
        json_num(f.value),
        f.unit,
        f.samples
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench-harness: {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let rep = if args.trace {
        layers::run(&args.workload, args.seed, &args.server_bin, &args.out_dir)
    } else {
        match args.workload.as_str() {
            "fit-vectors" => fit::fit_vectors(args.seed, args.seconds),
            "fit-strings" => fit::fit_strings(args.seed, args.seconds),
            "serve-score" => serve::serve_score(&serve::Env::new(&args), args.seconds),
            _ => serve::ingest_refit(&serve::Env::new(&args), args.seconds),
        }
    };
    let rep = match rep {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench-harness: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for why in &rep.failures {
        eprintln!("perfbench-harness: failed op: {why}");
    }
    print_stamp(&args, &rep);
    for d in &rep.details {
        print_figure("detail", d);
    }
    for m in &rep.metrics {
        print_figure("metric", m);
    }
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0 && rep.attempted > 0,
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
