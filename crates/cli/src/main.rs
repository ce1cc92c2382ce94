//! `mccatch` — command-line microcluster detection.
//!
//! Reads a dataset from a file (or stdin) and prints the ranked
//! microclusters plus, optionally, per-point scores. Two input modes:
//!
//! * `--mode csv` (default): one point per line, comma/whitespace-
//!   separated finite floats; Euclidean distance.
//! * `--mode lines`: one string per line; Levenshtein distance (the
//!   paper's "L-Edit" setup for names).
//!
//! The index backend is selectable with `--index brute|kd|vp|slim`
//! (default: kd for csv — the paper's footnote-4 fast path — and slim
//! for lines; the kd-tree is Euclidean-only, so it is rejected in lines
//! mode). The chosen backend is echoed in both report formats.
//!
//! `--stream` switches both modes from one-shot batch detection to the
//! streaming subsystem (`mccatch::stream`): events are read line by
//! line, each is scored immediately against the current model and
//! emitted as one output line (`--format json` makes that one JSON
//! object per line), a sliding window of `--window` events is
//! maintained, and the model is refit in the background every
//! `--refit-every` events (0 = never) or when `--drift` is given and
//! the flagged fraction of recent events reaches it. `--warmup N` seeds
//! the initial model with the first N events (they are not scored). A
//! run summary goes to stderr, keeping stdout machine-clean.
//!
//! `--serve ADDR` starts the HTTP serving tier (`mccatch::server`)
//! instead: the events of `--input` (if given) seed the sliding window
//! of the **default tenant**, and the process answers `POST /score`
//! (NDJSON points in, one score per line out, batch-tagged with the
//! model generation), `POST /ingest` (streamed events, per-event scores,
//! drives the same `--refit-every`/`--drift` schedule),
//! `POST /admin/refit`, `GET /healthz`, and a Prometheus `GET /metrics`
//! until killed. The bound address is printed on stdout
//! (`--serve 127.0.0.1:0` picks an ephemeral port and echoes it).
//!
//! Every request is served by a tenant (`mccatch::tenant`). The bare
//! endpoints serve the default tenant, which always has one shard — so
//! it scores bit for bit like a single detector — and is never listed
//! among the named tenants. Every endpoint is also reachable scoped to a
//! named tenant as `/t/{tenant}/…` (or via the `X-Mccatch-Tenant`
//! header), tenants are created and deleted over the wire with
//! `PUT`/`DELETE /admin/tenants/{name}` (the name `default` is
//! reserved), and `--tenants N` pre-creates N empty tenants (named `a`,
//! `b`, …) at boot. `--shards K` gives every named tenant K hash-routed
//! shards — independent sliding windows fitted in parallel and served as
//! a min-score ensemble — each with its own bounded admission queue, so
//! one hot tenant (or shard) cannot starve the rest.
//!
//! ```text
//! USAGE:
//!   mccatch [--input FILE] [--mode csv|lines] [--format text|json]
//!           [--index brute|kd|vp|slim]
//!           [--radii 15] [--slope 0.1] [--max-card N] [--threads N]
//!           [--points] [--top K]
//!           [--stream] [--window N] [--refit-every N] [--warmup N]
//!           [--drift FRAC] [--drift-recent N]
//!           [--serve ADDR] [--tenants N] [--shards K]
//!           [--save-model PATH] [--load-model PATH] [--replay-log PATH]
//!           [--access-log PATH|off] [--trace-slow-ms N] [--trace-capacity N]
//! ```
//!
//! Persistence (`mccatch::persist`): `--save-model PATH` writes a
//! versioned snapshot of the fitted model — after the fit in batch
//! mode, as an end-of-input checkpoint with `--stream`. `--load-model
//! PATH` warm-starts from a snapshot instead of fitting: batch mode
//! reports straight from any single snapshot file, `--stream` resumes
//! the saved generation and stream position without an initial refit.
//! `--replay-log PATH` appends every ingested event as one NDJSON line;
//! on a warm start the log is replayed to rebuild the exact sliding
//! window.
//!
//! In serve mode both paths are base paths of the tenant layout, the
//! default tenant included: `POST /admin/snapshot` writes
//! `{path}.{tenant}.{shard}` files plus a `{path}.{tenant}.manifest`
//! written last (`{path}.default.0` + `{path}.default.manifest` for the
//! bare endpoints), replay logs live at `{log}.{tenant}.{shard}`
//! (`{log}.default.0`), and `--load-model` restores the default tenant
//! and every named tenant found on disk before the socket binds.
//!
//! Invalid hyperparameters are reported as proper CLI errors (exit code
//! 1), never panics: parsing builds a `McCatch` via the validating
//! builder and forwards its `McCatchError` as the error message.
//!
//! Internally the CLI drives the type-erased serving handle
//! (`Arc<dyn Model<_>>`), so both input modes share one report path
//! regardless of metric and index type.

use mccatch::index::{BruteForceBuilder, KdTreeBuilder, SlimTreeBuilder, VpTreeBuilder};
use mccatch::metrics::{Euclidean, Levenshtein, Metric};
use mccatch::obs::json_escape;
use mccatch::persist::{self, FsyncPolicy, PersistPoint, ReplayReader, ReplayWriter};
use mccatch::server::ndjson::{self, json_f64};
use mccatch::server::{AccessLog, LineParser, ServerConfig};
use mccatch::stream::{RefitPolicy, ScoredEvent, StreamConfig, StreamDetector};
use mccatch::tenant::{
    boot_tenant_name, shard_file_path, ReplaySpec, RouteKey, TenantMap, TenantSpec, DEFAULT_TENANT,
};
use mccatch::{McCatch, McCatchOutput, Model, Params};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

struct Cli {
    input: Option<String>,
    mode: String,
    format: Format,
    index: Option<IndexChoice>,
    params: Params,
    show_points: bool,
    /// Number of microclusters to print; 0 means all.
    top: usize,
    stream: bool,
    /// Address to serve HTTP on (`--serve`); port 0 picks an ephemeral
    /// port (echoed on stdout).
    serve: Option<String>,
    /// Tenants to pre-create at boot (named `a`, `b`, …); more can be
    /// created over the wire with `PUT /admin/tenants/{name}`.
    tenants: usize,
    /// Hash-routed shards per tenant (independent windows, fitted in
    /// parallel, served as a min-score ensemble).
    shards: usize,
    window: usize,
    /// Events between background refits; 0 disables scheduled refits.
    refit_every: u64,
    /// Seed the initial model with this many leading events (unscored).
    warmup: usize,
    /// Flagged fraction of recent events that triggers a drift refit.
    drift: Option<f64>,
    drift_recent: usize,
    /// Write a versioned model snapshot here (batch: after the fit;
    /// `--stream`: a checkpoint at end of input; `--serve`: the base
    /// path of every tenant's `POST /admin/snapshot` set).
    save_model: Option<String>,
    /// Warm-start from a snapshot instead of fitting from input.
    load_model: Option<String>,
    /// NDJSON ingest replay log: every accepted event is appended, and
    /// `--load-model` replays it to rebuild the exact sliding window.
    replay_log: Option<String>,
    /// Fsync the replay log every this many events (0 = every event);
    /// a hard kill loses at most this many tail events.
    replay_fsync: u64,
    /// Serve-mode access log destination: `None` keeps the default
    /// (structured NDJSON on stderr); a path appends there instead;
    /// the literal `off` disables access logging.
    access_log: Option<String>,
    /// Serve-mode tracing threshold in milliseconds: `Some(ms)` collects
    /// a span tree on every request and tail-samples traces at least
    /// this slow — or ending in error — into the
    /// `GET /admin/debug/trace` ring (0 keeps every trace). `None`
    /// (the default) disables tracing.
    trace_slow_ms: Option<u64>,
    /// How many sampled traces the trace ring retains.
    trace_capacity: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

/// The selectable index backends (`--index`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum IndexChoice {
    Brute,
    Kd,
    Vp,
    Slim,
}

impl IndexChoice {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "brute" => Ok(Self::Brute),
            "kd" => Ok(Self::Kd),
            "vp" => Ok(Self::Vp),
            "slim" => Ok(Self::Slim),
            other => Err(format!("unknown index: {other} (use brute|kd|vp|slim)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Brute => "brute",
            Self::Kd => "kd",
            Self::Vp => "vp",
            Self::Slim => "slim",
        }
    }

    /// The historical defaults: the kd fast path for vector data, the
    /// Slim-tree general path for metric data.
    fn default_for_mode(mode: &str) -> Self {
        if mode == "lines" {
            Self::Slim
        } else {
            Self::Kd
        }
    }
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        input: None,
        mode: "csv".to_owned(),
        format: Format::Text,
        index: None,
        params: Params::default(),
        show_points: false,
        top: 20,
        stream: false,
        serve: None,
        tenants: 0,
        shards: 1,
        window: 1024,
        refit_every: 256,
        warmup: 0,
        drift: None,
        drift_recent: 128,
        save_model: None,
        load_model: None,
        replay_log: None,
        replay_fsync: 64,
        access_log: None,
        trace_slow_ms: None,
        trace_capacity: 64,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a.as_str() {
            "--input" | "-i" => cli.input = Some(need("--input")?),
            "--mode" | "-m" => cli.mode = need("--mode")?,
            "--format" | "-f" => {
                cli.format = match need("--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format: {other} (use text|json)")),
                }
            }
            "--index" | "-x" => cli.index = Some(IndexChoice::parse(&need("--index")?)?),
            "--radii" | "-a" => {
                cli.params.num_radii = need("--radii")?
                    .parse()
                    .map_err(|e| format!("--radii: {e}"))?
            }
            "--slope" | "-b" => {
                cli.params.max_plateau_slope = need("--slope")?
                    .parse()
                    .map_err(|e| format!("--slope: {e}"))?
            }
            "--max-card" | "-c" => {
                cli.params.max_mc_cardinality = Some(
                    need("--max-card")?
                        .parse()
                        .map_err(|e| format!("--max-card: {e}"))?,
                )
            }
            "--threads" | "-j" => {
                cli.params.threads = need("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--points" | "-p" => cli.show_points = true,
            "--top" | "-t" => {
                cli.top = need("--top")?.parse().map_err(|e| format!("--top: {e}"))?
            }
            "--stream" | "-s" => cli.stream = true,
            "--serve" => cli.serve = Some(need("--serve")?),
            "--tenants" => {
                cli.tenants = need("--tenants")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?
            }
            "--shards" => {
                cli.shards = need("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--window" | "-w" => {
                cli.window = need("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?
            }
            "--refit-every" | "-r" => {
                cli.refit_every = need("--refit-every")?
                    .parse()
                    .map_err(|e| format!("--refit-every: {e}"))?
            }
            "--warmup" | "-u" => {
                cli.warmup = need("--warmup")?
                    .parse()
                    .map_err(|e| format!("--warmup: {e}"))?
            }
            "--drift" | "-d" => {
                cli.drift = Some(
                    need("--drift")?
                        .parse()
                        .map_err(|e| format!("--drift: {e}"))?,
                )
            }
            "--drift-recent" => {
                cli.drift_recent = need("--drift-recent")?
                    .parse()
                    .map_err(|e| format!("--drift-recent: {e}"))?
            }
            "--save-model" => cli.save_model = Some(need("--save-model")?),
            "--load-model" => cli.load_model = Some(need("--load-model")?),
            "--replay-log" => cli.replay_log = Some(need("--replay-log")?),
            "--replay-fsync" => {
                cli.replay_fsync = need("--replay-fsync")?
                    .parse()
                    .map_err(|e| format!("--replay-fsync: {e}"))?
            }
            "--access-log" => cli.access_log = Some(need("--access-log")?),
            "--trace-slow-ms" => {
                cli.trace_slow_ms = Some(
                    need("--trace-slow-ms")?
                        .parse()
                        .map_err(|e| format!("--trace-slow-ms: {e}"))?,
                )
            }
            "--trace-capacity" => {
                cli.trace_capacity = need("--trace-capacity")?
                    .parse()
                    .map_err(|e| format!("--trace-capacity: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "mccatch: microcluster detection (MCCATCH, ICDE 2024)\n\n\
                     usage: mccatch [--input FILE] [--mode csv|lines] [--format text|json]\n\
                            [--index brute|kd|vp|slim]\n\
                            [--radii 15] [--slope 0.1] [--max-card N] [--threads N]\n\
                            [--points] [--top K]\n\
                            [--stream] [--window N] [--refit-every N] [--warmup N]\n\
                            [--drift FRAC] [--drift-recent N]\n\
                            [--serve ADDR] [--tenants N] [--shards K]\n\
                            [--save-model PATH] [--load-model PATH] [--replay-log PATH]\n\
                            [--access-log PATH|off]\n\
                            [--trace-slow-ms N] [--trace-capacity N]\n\n\
                     csv mode:   one point per line, comma/whitespace separated finite floats\n\
                     lines mode: one string per line, Levenshtein distance\n\n\
                     --index picks the backend (default: kd for csv, slim for lines;\n\
                             kd is Euclidean-only so it requires csv mode)\n\
                     --format json emits one machine-readable JSON object\n\
                     --threads 0 (default) uses all cores; results never depend on it\n\
                     --top 0 prints all microclusters\n\n\
                     --stream scores events line by line against a sliding window of\n\
                     --window events (default 1024), refitting in the background every\n\
                     --refit-every events (default 256; 0 = never) or, with --drift F,\n\
                     when the flagged fraction of the last --drift-recent events\n\
                     reaches F. --warmup N seeds the initial model with the first N\n\
                     events (unscored). One scored line per event on stdout (text or\n\
                     NDJSON); the run summary goes to stderr.\n\n\
                     --serve ADDR starts the HTTP scoring service instead: --input\n\
                     seeds the default tenant's window, then POST /score,\n\
                     POST /ingest, POST /admin/refit, GET /healthz, and GET /metrics\n\
                     answer until the process is killed. ADDR with port 0 picks an\n\
                     ephemeral port; the bound address is echoed on stdout.\n\n\
                     Every endpoint also answers scoped to a named tenant at\n\
                     /t/{{tenant}}/... (or with the X-Mccatch-Tenant header), and\n\
                     PUT/DELETE /admin/tenants/{{name}} manage tenants over the wire\n\
                     (the name default is reserved). --tenants N pre-creates N empty\n\
                     tenants (named a, b, ...); --shards K (default 1) gives every\n\
                     named tenant K hash-routed shards fitted in parallel and served\n\
                     as a min-score ensemble, each with a bounded admission queue.\n\
                     The default tenant behind the bare endpoints always has 1 shard.\n\n\
                     --save-model PATH writes a versioned model snapshot (batch:\n\
                     after the fit; --stream: a checkpoint at end of input).\n\
                     --load-model PATH warm-starts from a snapshot instead of fitting\n\
                     (batch: reports straight from any single snapshot file;\n\
                     --stream: resumes the saved generation and stream position).\n\
                     --replay-log PATH appends every ingested event as NDJSON; with\n\
                     --load-model it is replayed to rebuild the exact sliding window.\n\
                     In serve mode both are base paths of the tenant layout:\n\
                     POST /admin/snapshot writes {{path}}.{{tenant}}.{{shard}} files\n\
                     plus a {{path}}.{{tenant}}.manifest ({{path}}.default.* for the\n\
                     bare endpoints), replay logs live at {{log}}.{{tenant}}.{{shard}},\n\
                     and --load-model restores the default tenant and every named\n\
                     tenant on disk before binding. --replay-fsync N (default 64)\n\
                     fsyncs the log every N events — a hard kill loses at most N\n\
                     tail events (0 = fsync every event).\n\n\
                     Serve mode writes a structured NDJSON access log (one JSON\n\
                     object per request, with its duration_ms and a request id\n\
                     echoed in X-Mccatch-Request-Id) to stderr; --access-log PATH\n\
                     appends it to PATH instead, and --access-log off disables it.\n\
                     Stage timings (route, handle, batch, shard fan-out and refit,\n\
                     fit stages) are on GET /metrics whether or not tracing is on.\n\n\
                     --trace-slow-ms N turns on per-request tracing, the slow-request\n\
                     mechanism: every request collects a span tree (parse, route,\n\
                     handle, the tenant shard fan-out, shard refit and fit stages),\n\
                     the W3C traceparent header is honored and echoed, and traces at\n\
                     least N ms long — or ending in error — are tail-sampled (0 keeps\n\
                     every trace) into a ring of --trace-capacity traces (default 64)\n\
                     served as Perfetto-loadable Chrome trace JSON at\n\
                     GET /admin/debug/trace; each kept trace is also one \"trace\"\n\
                     line in the access log."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cli)
}

fn read_input(input: &Option<String>) -> Result<String, String> {
    match input {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            Ok(buf)
        }
    }
}

/// Opens the event source for streaming: the input file, or stdin read
/// incrementally (events are scored as they arrive, not after EOF).
fn open_events(input: &Option<String>) -> Result<Box<dyn BufRead>, String> {
    match input {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(Box::new(BufReader::new(file)))
        }
        None => Ok(Box::new(BufReader::new(std::io::stdin()))),
    }
}

/// Parses one csv-mode line into a point. CSV keeps Rust's float
/// syntax (`.5` and `+1` are fine; this is not JSON), but a coordinate
/// must be finite: `inf`, `NaN` and overflow like `1e999` are refused.
fn parse_point(line: &str) -> Result<Vec<f64>, String> {
    line.split(|c: char| c == ',' || c.is_whitespace() || c == ';')
        .filter(|t| !t.is_empty())
        .map(|t| match t.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            Ok(_) => Err(format!("non-finite coordinate {t:?}")),
            Err(e) => Err(format!("{e}")),
        })
        .collect()
}

/// Batch csv parsing is a collect over the streaming event iterator, so
/// both paths share one set of rules and error messages by construction.
fn parse_csv(text: &str) -> Result<Vec<Vec<f64>>, String> {
    csv_events(std::io::Cursor::new(text.as_bytes())).collect()
}

/// csv-mode event iterator: skips blanks/comments, parses floats, and
/// enforces a consistent dimensionality (fixed by the first event).
fn csv_events<R: BufRead>(reader: R) -> impl Iterator<Item = Result<Vec<f64>, String>> {
    let mut dim: Option<usize> = None;
    reader
        .lines()
        .enumerate()
        .filter_map(move |(lineno, line)| {
            let line = match line {
                Err(e) => return Some(Err(format!("line {}: {e}", lineno + 1))),
                Ok(l) => l,
            };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return None;
            }
            let coords = match parse_point(line) {
                Err(e) => return Some(Err(format!("line {}: {e}", lineno + 1))),
                Ok(c) => c,
            };
            match dim {
                None => dim = Some(coords.len()),
                Some(d) if d != coords.len() => {
                    return Some(Err(format!(
                        "line {}: expected {} coordinates, found {}",
                        lineno + 1,
                        d,
                        coords.len()
                    )))
                }
                Some(_) => {}
            }
            Some(Ok(coords))
        })
}

/// lines-mode event iterator: one trimmed, non-comment string per event.
fn line_events<R: BufRead>(reader: R) -> impl Iterator<Item = Result<String, String>> {
    reader.lines().enumerate().filter_map(|(lineno, line)| {
        let line = match line {
            Err(e) => return Some(Err(format!("line {}: {e}", lineno + 1))),
            Ok(l) => l,
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        Some(Ok(line.to_owned()))
    })
}

/// `--top 0` means "all microclusters".
fn effective_top(top: usize, available: usize) -> usize {
    if top == 0 {
        available
    } else {
        top
    }
}

/// Streams the text report to stdout. Returns `Err` on I/O failure so a
/// closed pipe (`mccatch … | head`) ends the program cleanly instead of
/// panicking (Rust ignores SIGPIPE; `println!` would abort with a
/// broken-pipe backtrace).
fn report_text(
    out: &McCatchOutput,
    labels: &[String],
    cli: &Cli,
    index: IndexChoice,
) -> std::io::Result<()> {
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    writeln!(w, "# points: {}", out.point_scores.len())?;
    writeln!(w, "# index: {}", index.name())?;
    writeln!(w, "# diameter estimate: {:.6}", out.diameter)?;
    writeln!(w, "# cutoff d: {:.6}", out.cutoff.d)?;
    writeln!(w, "# outliers: {}", out.num_outliers())?;
    writeln!(w, "# microclusters: {}", out.microclusters.len())?;
    writeln!(
        w,
        "# distance evals (build + count): {}",
        out.stats.dist_build + out.stats.dist_count
    )?;
    writeln!(
        w,
        "# stage seconds: build={:.4} count={:.4} plot={:.4} gell={:.4} score={:.4} total={:.4}",
        out.stats.t_build.as_secs_f64(),
        out.stats.t_count.as_secs_f64(),
        out.stats.t_plateaus.as_secs_f64(),
        out.stats.t_spot.as_secs_f64(),
        out.stats.t_score.as_secs_f64(),
        out.stats.t_total.as_secs_f64()
    )?;
    writeln!(w)?;
    writeln!(w, "rank\tsize\tscore\tbridge\tmembers")?;
    let top = effective_top(cli.top, out.microclusters.len());
    for (rank, mc) in out.microclusters.iter().take(top).enumerate() {
        let members: Vec<&str> = mc
            .members
            .iter()
            .take(8)
            .map(|&m| labels[m as usize].as_str())
            .collect();
        let ellipsis = if mc.members.len() > 8 { ",…" } else { "" };
        writeln!(
            w,
            "{}\t{}\t{:.3}\t{:.4}\t{}{}",
            rank + 1,
            mc.cardinality(),
            mc.score,
            mc.bridge_length,
            members.join(","),
            ellipsis
        )?;
    }
    if cli.show_points {
        writeln!(w)?;
        writeln!(w, "point\tscore\toutlier")?;
        for (i, s) in out.point_scores.iter().enumerate() {
            writeln!(w, "{}\t{:.4}\t{}", labels[i], s, out.is_outlier(i as u32))?;
        }
    }
    Ok(())
}

/// Streams the whole report as one JSON object. Hand-rolled on purpose:
/// the workspace is dependency-free and the schema is small and stable.
fn report_json(
    out: &McCatchOutput,
    labels: &[String],
    cli: &Cli,
    index: IndexChoice,
) -> std::io::Result<()> {
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    writeln!(w, "{{")?;
    writeln!(w, "  \"num_points\": {},", out.point_scores.len())?;
    writeln!(w, "  \"index\": \"{}\",", index.name())?;
    writeln!(w, "  \"diameter\": {},", json_f64(out.diameter))?;
    writeln!(w, "  \"cutoff\": {},", json_f64(out.cutoff.d))?;
    writeln!(w, "  \"num_outliers\": {},", out.num_outliers())?;
    // Deterministic fit cost (Step I build + counting stage), the
    // machine-independent number Lemma 1 bounds; identical across thread
    // counts, so downstream pipelines can alert on regressions.
    writeln!(
        w,
        "  \"distance_evals\": {},",
        out.stats.dist_build + out.stats.dist_count
    )?;
    // Wall-clock per-stage fit timings in seconds, keyed by the same
    // stage names the serving tier exposes in the
    // `mccatch_stage_duration_seconds` histogram on `/metrics`.
    writeln!(
        w,
        "  \"stages\": {{\"fit_build\": {}, \"fit_counting\": {}, \"fit_plotting\": {}, \
         \"fit_gelling\": {}, \"fit_scoring\": {}, \"fit_total\": {}}},",
        json_f64(out.stats.t_build.as_secs_f64()),
        json_f64(out.stats.t_count.as_secs_f64()),
        json_f64(out.stats.t_plateaus.as_secs_f64()),
        json_f64(out.stats.t_spot.as_secs_f64()),
        json_f64(out.stats.t_score.as_secs_f64()),
        json_f64(out.stats.t_total.as_secs_f64())
    )?;
    let top = effective_top(cli.top, out.microclusters.len());
    write!(w, "  \"microclusters\": [")?;
    for (rank, mc) in out.microclusters.iter().take(top).enumerate() {
        if rank > 0 {
            write!(w, ",")?;
        }
        let members: Vec<String> = mc
            .members
            .iter()
            .map(|&m| format!("\"{}\"", json_escape(&labels[m as usize])))
            .collect();
        write!(
            w,
            "\n    {{\"rank\": {}, \"size\": {}, \"score\": {}, \"bridge\": {}, \"members\": [{}]}}",
            rank + 1,
            mc.cardinality(),
            json_f64(mc.score),
            json_f64(mc.bridge_length),
            members.join(", ")
        )?;
    }
    if top > 0 && !out.microclusters.is_empty() {
        writeln!(w)?;
        write!(w, "  ]")?;
    } else {
        write!(w, "]")?;
    }
    if cli.show_points {
        writeln!(w, ",")?;
        write!(w, "  \"points\": [")?;
        for (i, s) in out.point_scores.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                "\n    {{\"label\": \"{}\", \"score\": {}, \"outlier\": {}}}",
                json_escape(&labels[i]),
                json_f64(*s),
                out.is_outlier(i as u32)
            )?;
        }
        if !out.point_scores.is_empty() {
            writeln!(w)?;
            write!(w, "  ]")?;
        } else {
            write!(w, "]")?;
        }
    }
    writeln!(w)?;
    writeln!(w, "}}")?;
    Ok(())
}

/// A closed downstream pipe is a normal way for readers to stop
/// consuming; everything else is a real reporting failure.
fn print_report(
    out: &McCatchOutput,
    labels: &[String],
    cli: &Cli,
    index: IndexChoice,
) -> Result<(), String> {
    let result = match cli.format {
        Format::Text => report_text(out, labels, cli, index),
        Format::Json => report_json(out, labels, cli, index),
    };
    match result {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("stdout: {e}")),
    }
}

/// One emitted line per streamed event. The JSON form is the serving
/// tier's scored-event wire format (`ndjson::scored_event_json`), so
/// `--stream --format json` lines and `/ingest` responses cannot drift
/// apart.
fn format_event(e: &ScoredEvent, format: Format) -> String {
    match format {
        Format::Text => format!(
            "{}\t{}\t{:.4}\t{}\t{}",
            e.seq, e.tick, e.score, e.generation, e.flagged
        ),
        Format::Json => ndjson::scored_event_json(e),
    }
}

/// The refit schedule the `--refit-every` / `--drift*` flags describe —
/// shared by `--stream` and `--serve`.
fn stream_config(cli: &Cli) -> StreamConfig {
    let policy = match cli.drift {
        Some(threshold) => RefitPolicy::Drift {
            recent: cli.drift_recent,
            threshold,
        },
        None if cli.refit_every == 0 => RefitPolicy::Manual,
        None => RefitPolicy::EveryN(cli.refit_every),
    };
    StreamConfig {
        capacity: cli.window,
        policy,
        ..StreamConfig::default()
    }
}

/// A cold start (no `--load-model`) refuses a replay log that already
/// has entries: its tail would not agree with the fresh window, so a
/// later restore would rebuild the wrong state.
fn refuse_stale_log(path: &std::path::Path) -> Result<(), String> {
    let has_entries = std::fs::metadata(path)
        .map(|m| m.len() > 0)
        .unwrap_or(false);
    if has_entries {
        return Err(format!(
            "replay log {} already has entries; pass --load-model to continue it, \
             or delete it to start fresh",
            path.display()
        ));
    }
    Ok(())
}

/// Opens `--replay-log` for appending (see [`refuse_stale_log`]).
fn open_replay_writer(cli: &Cli) -> Result<Option<ReplayWriter>, String> {
    let Some(path) = &cli.replay_log else {
        return Ok(None);
    };
    if cli.load_model.is_none() {
        refuse_stale_log(path.as_ref())?;
    }
    ReplayWriter::open(path, FsyncPolicy::EveryN(cli.replay_fsync))
        .map(Some)
        .map_err(|e| format!("{path}: {e}"))
}

/// Appends the detector's current window (typically the just-seeded
/// events) to the replay log, so a log started mid-stream is
/// self-contained: replaying it alone rebuilds the full window.
fn log_window<P, M, B>(
    writer: &mut ReplayWriter,
    stream: &StreamDetector<P, M, B>,
) -> Result<(), String>
where
    P: PersistPoint + Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: mccatch::index::IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    let cp = stream.checkpoint();
    let base = cp.seq - cp.entries.len() as u64;
    for (i, (tick, point)) in cp.entries.iter().enumerate() {
        writer
            .append(base + i as u64, *tick, point)
            .map_err(|e| format!("replay log: {e}"))?;
    }
    writer.sync().map_err(|e| format!("replay log: {e}"))
}

/// Warm-boots a detector from `--load-model`, replaying the
/// `--replay-log` file (when it exists) to rebuild the exact sliding
/// window.
fn restore_detector<P, M, B>(
    cli: &Cli,
    config: StreamConfig,
    metric: M,
    builder: B,
    snap: &str,
) -> Result<StreamDetector<P, M, B>, String>
where
    P: PersistPoint + Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: mccatch::index::IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    let replayed = match &cli.replay_log {
        Some(lp) if std::path::Path::new(lp).exists() => {
            let entries = ReplayReader::open(lp)
                .and_then(|r| r.read_all::<P>())
                .map_err(|e| format!("{lp}: {e}"))?;
            eprintln!("# replay log: {} events from {lp}", entries.len());
            Some(entries)
        }
        _ => None,
    };
    let file = std::fs::File::open(snap).map_err(|e| format!("{snap}: {e}"))?;
    let (detector, info) = persist::restore_stream(
        config,
        metric,
        builder,
        std::io::BufReader::new(file),
        replayed,
    )
    .map_err(|e| format!("{snap}: {e}"))?;
    eprintln!(
        "# warm start: {snap} generation={} seq={} backend={} points={}",
        info.generation, info.seq, info.backend, info.num_points
    );
    Ok(detector)
}

/// Drives the streaming subsystem over an event iterator: seed the
/// first `--warmup` events (or warm-start from `--load-model`), then
/// score-and-emit each remaining event, appending accepted events to
/// the `--replay-log` and checkpointing to `--save-model` at end of
/// input. Generic over the point type and backend, so csv and lines
/// mode share one implementation across all four `--index` choices.
fn run_stream<P, M, B>(
    cli: &Cli,
    detector: McCatch,
    metric: M,
    builder: B,
    index: IndexChoice,
    mut events: impl Iterator<Item = Result<P, String>>,
) -> Result<(), String>
where
    P: PersistPoint + Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: mccatch::index::IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    let config = stream_config(cli);
    let mut replay = open_replay_writer(cli)?;
    let stream = if let Some(snap) = &cli.load_model {
        // A warm start brings its own window: `--warmup` is moot, every
        // input event is scored.
        restore_detector(cli, config, metric, builder, snap)?
    } else {
        let mut seed = Vec::with_capacity(cli.warmup);
        for ev in events.by_ref().take(cli.warmup) {
            seed.push(ev?);
        }
        let stream = StreamDetector::new(config, detector, metric, builder, seed)
            .map_err(|e| e.to_string())?;
        if let Some(w) = replay.as_mut() {
            log_window(w, &stream)?;
        }
        stream
    };

    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let mut emit = |line: String| -> Result<bool, String> {
        match writeln!(w, "{line}") {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
            Err(e) => Err(format!("stdout: {e}")),
        }
    };
    // A closed pipe anywhere (header included) stops emitting but still
    // falls through to the stderr run summary below.
    let mut open = true;
    if cli.format == Format::Text {
        open = emit("seq\ttick\tscore\tgeneration\tflagged".to_owned())?;
    }
    if open {
        for ev in events {
            let event = if let Some(w) = replay.as_mut() {
                let point = ev?;
                let event = stream.ingest(point.clone());
                // Best-effort: a full disk must not stop live scoring.
                let _ = w.append(event.seq, event.tick, &point);
                event
            } else {
                stream.ingest(ev?)
            };
            if !emit(format_event(&event, cli.format))? {
                break;
            }
        }
    }
    if let Some(w) = replay.as_mut() {
        w.sync().map_err(|e| format!("replay log: {e}"))?;
    }
    let stats = stream.stats();
    eprintln!(
        "# stream summary: index={} events={} scored={} evicted={} window={}/{} \
         generation={} refits(completed/requested/coalesced/skipped/failed)={}/{}/{}/{}/{} \
         fit_distance_evals={}",
        index.name(),
        stats.events_ingested,
        stats.events_scored,
        stats.events_evicted,
        stats.window_len,
        stats.window_capacity,
        stats.generation,
        stats.refits_completed,
        stats.refits_requested,
        stats.refits_coalesced,
        stats.refits_skipped,
        stats.refits_failed,
        stats.fit_distance_evals,
    );
    if let Some(path) = &cli.save_model {
        // Published whole through `atomic_write`: a crash mid-save never
        // clobbers the previous snapshot.
        let mut snapshot = Vec::new();
        persist::checkpoint_stream(&stream, &mut snapshot).map_err(|e| format!("{path}: {e}"))?;
        persist::atomic_write(path.as_ref(), &snapshot).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("# saved checkpoint: {path} ({} bytes)", snapshot.len());
    }
    Ok(())
}

/// Drives the HTTP serving tier (`--serve ADDR`): seeds the default
/// tenant's window with the events of `--input` (when given) — or
/// restores it with every named tenant from `--load-model` — starts
/// `mccatch::server` over the chosen metric/index backend with the
/// `--window`/`--refit-every`/`--drift*` schedule, prints the bound
/// address on stdout (machine-readable — ask for port 0 and read it
/// back), and blocks until the process is stopped.
///
/// `parser_for` builds the NDJSON line parser once the default window
/// is known, so csv mode can pin the expected dimensionality to it.
///
/// Every tenant is stamped from one `TenantSpec`: `--shards K` shards
/// per named tenant (the default tenant always has one), the shared
/// stream schedule, and `{log}.{tenant}.{shard}` replay logs under
/// `--replay-log`. `--tenants N` pre-creates `a`, `b`, … and
/// `PUT /admin/tenants/{name}` creates more over the wire.
fn run_serve<P, M, B>(
    cli: &Cli,
    detector: McCatch,
    metric: M,
    builder: B,
    index: IndexChoice,
    parser_for: impl FnOnce(&[P]) -> LineParser<P>,
    events: impl Iterator<Item = Result<P, String>>,
) -> Result<(), String>
where
    P: PersistPoint + RouteKey + Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: mccatch::index::IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    let addr = cli.serve.as_deref().expect("run_serve requires --serve");
    let server_config = ServerConfig {
        snapshot_path: cli.save_model.clone().map(std::path::PathBuf::from),
        // The CLI serves humans, so the access log defaults on (stderr,
        // where all run commentary already goes); embedded servers
        // default quiet.
        access_log: match cli.access_log.as_deref() {
            None => AccessLog::Stderr,
            Some("off") => AccessLog::Off,
            Some(path) => AccessLog::File(std::path::PathBuf::from(path)),
        },
        trace_slow_ms: cli.trace_slow_ms,
        trace_capacity: cli.trace_capacity,
        ..ServerConfig::default()
    };
    let tenants = TenantMap::new(
        detector,
        metric,
        builder,
        TenantSpec {
            shards: cli.shards,
            stream: stream_config(cli),
            replay: cli.replay_log.as_ref().map(|p| ReplaySpec {
                base: std::path::PathBuf::from(p),
                fsync: FsyncPolicy::EveryN(cli.replay_fsync),
            }),
            ..TenantSpec::default()
        },
    )
    .map_err(|e| e.to_string())?;
    // Warm restart first: rediscover every `{snap}.{tenant}.{shard}` set
    // on disk and re-register it (generation, seq, and window resumed),
    // restore the default tenant from its own 1-shard set, then
    // pre-create only the boot tenants that were not restored.
    let default = match &cli.load_model {
        Some(snap) => {
            let snap = std::path::Path::new(snap);
            for t in tenants.restore_tenants(snap).map_err(|e| e.to_string())? {
                eprintln!(
                    "# restored tenant {}: {} shards, {} replayed events, generation {}, seq {}",
                    t.name,
                    t.stats.shards,
                    t.stats.replayed_events,
                    t.stats.generation,
                    t.stats.seq
                );
            }
            let default = tenants.restore_default(snap).map_err(|e| e.to_string())?;
            if let Some(r) = default.restore_stats() {
                eprintln!(
                    "# warm start: default tenant from {}.default.*: {} replayed events, \
                     generation {}, seq {}",
                    snap.display(),
                    r.replayed_events,
                    r.generation,
                    r.seq
                );
            }
            default
        }
        None => {
            // Creating the default tenant restarts its log at the seed
            // window, so a log a warm restart could resume is refused.
            if let Some(log) = &cli.replay_log {
                refuse_stale_log(&shard_file_path(log.as_ref(), DEFAULT_TENANT, 0))?;
            }
            let seed: Vec<P> = events.collect::<Result<_, _>>()?;
            tenants.create_default(seed).map_err(|e| e.to_string())?
        }
    };
    for i in 0..cli.tenants {
        let name = boot_tenant_name(i);
        if tenants.get(&name).is_none() {
            tenants.create(&name).map_err(|e| e.to_string())?;
        }
    }
    // The parser pins to the default window (seeded or restored), so
    // wrong-arity lines degrade to per-line errors; an empty window
    // pins to the first accepted event instead.
    let window = default
        .shard_detector(0)
        .expect("the default tenant has one shard")
        .window_points();
    let parser = parser_for(&window);
    let server = mccatch::server::serve(
        addr,
        server_config,
        default,
        Arc::new(tenants),
        parser,
        index.name(),
    )
    .map_err(|e| e.to_string())?;
    // The stdout line is the contract smoke gates and scripts parse;
    // human-facing detail goes to stderr.
    println!("listening on http://{}", server.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    eprintln!(
        "# serving index={} window={} tenants={} shards={} \
         endpoints=/score,/ingest,/admin/refit,/admin/snapshot,\
         /admin/snapshot/info,/healthz,/metrics,/admin/tenants,/t/{{tenant}}/*",
        index.name(),
        cli.window,
        cli.tenants,
        cli.shards
    );
    server.wait();
    Ok(())
}

/// Fits a batch model over vector points with the chosen backend.
fn fit_csv_model(
    detector: &McCatch,
    points: Vec<Vec<f64>>,
    index: IndexChoice,
) -> Result<Arc<dyn Model<Vec<f64>>>, String> {
    let fitted = match index {
        IndexChoice::Brute => detector
            .fit(points, Euclidean, BruteForceBuilder)
            .map(|f| f.into_model()),
        IndexChoice::Kd => detector
            .fit(points, Euclidean, KdTreeBuilder::default())
            .map(|f| f.into_model()),
        IndexChoice::Vp => detector
            .fit(points, Euclidean, VpTreeBuilder::default())
            .map(|f| f.into_model()),
        IndexChoice::Slim => detector
            .fit(points, Euclidean, SlimTreeBuilder::default())
            .map(|f| f.into_model()),
    };
    fitted.map_err(|e| e.to_string())
}

/// Fits a batch model over string points with the chosen backend.
fn fit_lines_model(
    detector: &McCatch,
    lines: Vec<String>,
    index: IndexChoice,
) -> Result<Arc<dyn Model<String>>, String> {
    let fitted = match index {
        IndexChoice::Kd => return Err(kd_needs_csv()),
        IndexChoice::Brute => detector
            .fit(lines, Levenshtein, BruteForceBuilder)
            .map(|f| f.into_model()),
        IndexChoice::Vp => detector
            .fit(lines, Levenshtein, VpTreeBuilder::default())
            .map(|f| f.into_model()),
        IndexChoice::Slim => detector
            .fit(lines, Levenshtein, SlimTreeBuilder::default())
            .map(|f| f.into_model()),
    };
    fitted.map_err(|e| e.to_string())
}

fn kd_needs_csv() -> String {
    "--index kd is Euclidean-only and requires --mode csv (use brute|vp|slim for lines)".to_owned()
}

/// Batch-mode `--load-model`: rebuilds the fitted model from a snapshot
/// (verified bit-identical by `mccatch::persist`) and prints the usual
/// report — no input data needed.
fn report_snapshot<P, M, B>(
    cli: &Cli,
    path: &str,
    metric: M,
    builder: B,
    index: IndexChoice,
    labels_of: impl FnOnce(&[P]) -> Vec<String>,
) -> Result<(), String>
where
    P: PersistPoint + Clone + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
    B: mccatch::index::IndexBuilder<P, M> + Clone + Send + Sync + 'static,
    B::Index: Send + Sync + 'static,
{
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let loaded = persist::load_model(std::io::BufReader::new(file), metric, builder)
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "# loaded snapshot: {path} generation={} seq={}",
        loaded.generation, loaded.seq
    );
    let labels = labels_of(&loaded.fitted.export().points);
    print_report(&loaded.fitted.detect(), &labels, cli, index)
}

/// Dispatches batch-mode `--load-model` on the snapshot's own header:
/// the point kind picks the metric, the recorded backend picks the
/// index — a `--mode`/`--index` flag is only consulted to catch a
/// contradiction.
fn run_batch_load(cli: &Cli, path: &str) -> Result<(), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let info =
        persist::read_info(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let index =
        IndexChoice::parse(&info.backend).map_err(|e| format!("{path}: snapshot backend: {e}"))?;
    if let Some(flag) = cli.index {
        if flag != index {
            return Err(format!(
                "--index {} contradicts the snapshot, which was fitted with {}",
                flag.name(),
                index.name()
            ));
        }
    }
    match info.point_kind {
        1 => {
            let labels_of =
                |pts: &[Vec<f64>]| (0..pts.len()).map(|i| i.to_string()).collect::<Vec<_>>();
            match index {
                IndexChoice::Brute => {
                    report_snapshot(cli, path, Euclidean, BruteForceBuilder, index, labels_of)
                }
                IndexChoice::Kd => report_snapshot(
                    cli,
                    path,
                    Euclidean,
                    KdTreeBuilder::default(),
                    index,
                    labels_of,
                ),
                IndexChoice::Vp => report_snapshot(
                    cli,
                    path,
                    Euclidean,
                    VpTreeBuilder::default(),
                    index,
                    labels_of,
                ),
                IndexChoice::Slim => report_snapshot(
                    cli,
                    path,
                    Euclidean,
                    SlimTreeBuilder::default(),
                    index,
                    labels_of,
                ),
            }
        }
        2 => {
            let labels_of = |pts: &[String]| pts.to_vec();
            match index {
                IndexChoice::Kd => Err(kd_needs_csv()),
                IndexChoice::Brute => {
                    report_snapshot(cli, path, Levenshtein, BruteForceBuilder, index, labels_of)
                }
                IndexChoice::Vp => report_snapshot(
                    cli,
                    path,
                    Levenshtein,
                    VpTreeBuilder::default(),
                    index,
                    labels_of,
                ),
                IndexChoice::Slim => report_snapshot(
                    cli,
                    path,
                    Levenshtein,
                    SlimTreeBuilder::default(),
                    index,
                    labels_of,
                ),
            }
        }
        other => Err(format!("{path}: unsupported point kind {other}")),
    }
}

/// Batch-mode `--save-model`: persists a freshly fitted model at
/// generation 0, with the stream position set to the fit size.
fn save_batch_model<P: PersistPoint>(cli: &Cli, model: &dyn Model<P>) -> Result<(), String> {
    if let Some(path) = &cli.save_model {
        let seq = model.stats().num_points as u64;
        let mut snapshot = Vec::new();
        persist::save_model(model, 0, seq, &mut snapshot).map_err(|e| format!("{path}: {e}"))?;
        persist::atomic_write(path.as_ref(), &snapshot).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("# saved model: {path} ({} bytes)", snapshot.len());
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let cli = parse_cli()?;
    // Validate hyperparameters before reading any data: typed errors from
    // the builder, rendered as ordinary CLI failures.
    let detector = McCatch::new(cli.params.clone()).map_err(|e| e.to_string())?;
    let index = cli
        .index
        .unwrap_or(IndexChoice::default_for_mode(&cli.mode));

    if cli.serve.is_none() && (cli.tenants > 0 || cli.shards != 1) {
        return Err("--tenants/--shards only apply to serve mode; add --serve ADDR".to_owned());
    }

    if cli.serve.is_some() && cli.load_model.is_some() && cli.input.is_some() {
        return Err(
            "--serve with --load-model takes its window from the snapshot and replay log; \
             drop --input"
                .to_owned(),
        );
    }

    if cli.serve.is_some() {
        // Seed events come from --input only: a server must not sit
        // reading stdin (there is no terminal in its lifecycle).
        return match cli.mode.as_str() {
            "csv" => {
                let events: Box<dyn Iterator<Item = Result<Vec<f64>, String>>> = match &cli.input {
                    Some(_) => Box::new(csv_events(open_events(&cli.input)?)),
                    None => Box::new(std::iter::empty()),
                };
                // Pin the wire protocol to the seeded dimensionality so
                // wrong-arity lines degrade to per-line errors; an
                // unseeded server pins to the first accepted event
                // instead, so mixed-arity traffic can never reach a
                // refit.
                let parser_for = |seed: &[Vec<f64>]| match seed.first() {
                    Some(p) => ndjson::vector_parser(Some(p.len())),
                    None => ndjson::vector_parser_auto(),
                };
                match index {
                    IndexChoice::Brute => run_serve(
                        &cli,
                        detector,
                        Euclidean,
                        BruteForceBuilder,
                        index,
                        parser_for,
                        events,
                    ),
                    IndexChoice::Kd => run_serve(
                        &cli,
                        detector,
                        Euclidean,
                        KdTreeBuilder::default(),
                        index,
                        parser_for,
                        events,
                    ),
                    IndexChoice::Vp => run_serve(
                        &cli,
                        detector,
                        Euclidean,
                        VpTreeBuilder::default(),
                        index,
                        parser_for,
                        events,
                    ),
                    IndexChoice::Slim => run_serve(
                        &cli,
                        detector,
                        Euclidean,
                        SlimTreeBuilder::default(),
                        index,
                        parser_for,
                        events,
                    ),
                }
            }
            "lines" => {
                let events: Box<dyn Iterator<Item = Result<String, String>>> = match &cli.input {
                    Some(_) => Box::new(line_events(open_events(&cli.input)?)),
                    None => Box::new(std::iter::empty()),
                };
                let parser_for =
                    |_: &[String]| -> LineParser<String> { Arc::new(ndjson::parse_string_line) };
                match index {
                    IndexChoice::Kd => Err(kd_needs_csv()),
                    IndexChoice::Brute => run_serve(
                        &cli,
                        detector,
                        Levenshtein,
                        BruteForceBuilder,
                        index,
                        parser_for,
                        events,
                    ),
                    IndexChoice::Vp => run_serve(
                        &cli,
                        detector,
                        Levenshtein,
                        VpTreeBuilder::default(),
                        index,
                        parser_for,
                        events,
                    ),
                    IndexChoice::Slim => run_serve(
                        &cli,
                        detector,
                        Levenshtein,
                        SlimTreeBuilder::default(),
                        index,
                        parser_for,
                        events,
                    ),
                }
            }
            other => Err(format!("unknown mode: {other} (use csv|lines)")),
        };
    }

    if cli.stream {
        let reader = open_events(&cli.input)?;
        return match cli.mode.as_str() {
            "csv" => {
                let events = csv_events(reader);
                match index {
                    IndexChoice::Brute => {
                        run_stream(&cli, detector, Euclidean, BruteForceBuilder, index, events)
                    }
                    IndexChoice::Kd => run_stream(
                        &cli,
                        detector,
                        Euclidean,
                        KdTreeBuilder::default(),
                        index,
                        events,
                    ),
                    IndexChoice::Vp => run_stream(
                        &cli,
                        detector,
                        Euclidean,
                        VpTreeBuilder::default(),
                        index,
                        events,
                    ),
                    IndexChoice::Slim => run_stream(
                        &cli,
                        detector,
                        Euclidean,
                        SlimTreeBuilder::default(),
                        index,
                        events,
                    ),
                }
            }
            "lines" => {
                let events = line_events(reader);
                match index {
                    IndexChoice::Kd => Err(kd_needs_csv()),
                    IndexChoice::Brute => run_stream(
                        &cli,
                        detector,
                        Levenshtein,
                        BruteForceBuilder,
                        index,
                        events,
                    ),
                    IndexChoice::Vp => run_stream(
                        &cli,
                        detector,
                        Levenshtein,
                        VpTreeBuilder::default(),
                        index,
                        events,
                    ),
                    IndexChoice::Slim => run_stream(
                        &cli,
                        detector,
                        Levenshtein,
                        SlimTreeBuilder::default(),
                        index,
                        events,
                    ),
                }
            }
            other => Err(format!("unknown mode: {other} (use csv|lines)")),
        };
    }

    // Batch-mode `--load-model` needs no input at all: the snapshot is
    // the dataset, the fit, and the backend choice in one file.
    if let Some(path) = &cli.load_model {
        return run_batch_load(&cli, path);
    }

    let text = read_input(&cli.input)?;
    // Each mode fits its own point type; both erase into `Arc<dyn Model>`
    // and feed the same format-aware report functions.
    match cli.mode.as_str() {
        "csv" => {
            let points = parse_csv(&text)?;
            if points.is_empty() {
                return Err("no data points found".to_owned());
            }
            let labels: Vec<String> = (0..points.len()).map(|i| i.to_string()).collect();
            let model = fit_csv_model(&detector, points, index)?;
            save_batch_model(&cli, model.as_ref())?;
            print_report(&model.detect_output(), &labels, &cli, index)
        }
        "lines" => {
            // Same iterator as `--stream` lines mode: one set of skip
            // rules for both paths, by construction.
            let lines: Vec<String> =
                line_events(std::io::Cursor::new(text.as_bytes())).collect::<Result<_, _>>()?;
            if lines.is_empty() {
                return Err("no lines found".to_owned());
            }
            let labels = lines.clone();
            let model = fit_lines_model(&detector, lines, index)?;
            save_batch_model(&cli, model.as_ref())?;
            print_report(&model.detect_output(), &labels, &cli, index)
        }
        other => Err(format!("unknown mode: {other} (use csv|lines)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_csv_commas_and_whitespace() {
        let pts = parse_csv("1.0, 2.0\n3.0\t4.0\n# comment\n\n5;6\n").unwrap();
        assert_eq!(pts, vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
    }

    #[test]
    fn parse_csv_rejects_ragged_rows() {
        let err = parse_csv("1,2\n3,4,5\n").unwrap_err();
        assert!(err.contains("expected 2 coordinates"), "{err}");
    }

    #[test]
    fn parse_csv_rejects_non_numeric() {
        for bad in ["1,notanumber\n", "inf,1\n", "NaN,1\n", "+1e999,1\n"] {
            let err = parse_csv(bad).unwrap_err();
            assert!(err.starts_with("line 1: "), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parse_csv_empty_is_ok_but_empty() {
        assert!(parse_csv("# only comments\n").unwrap().is_empty());
    }

    #[test]
    fn csv_events_match_batch_parsing_and_check_dims() {
        let reader: Box<dyn BufRead> =
            Box::new(std::io::Cursor::new("1.0, 2.0\n# c\n\n3 4\n5;6;7\n"));
        let events: Vec<_> = csv_events(reader).collect();
        assert_eq!(events[0], Ok(vec![1.0, 2.0]));
        assert_eq!(events[1], Ok(vec![3.0, 4.0]));
        let err = events[2].as_ref().unwrap_err();
        assert!(err.contains("expected 2 coordinates"), "{err}");
    }

    #[test]
    fn line_events_skip_blanks_and_comments() {
        let reader: Box<dyn BufRead> = Box::new(std::io::Cursor::new("alice\n# nope\n\n bob \n"));
        let events: Vec<_> = line_events(reader).collect();
        assert_eq!(events, vec![Ok("alice".to_owned()), Ok("bob".to_owned())]);
    }

    #[test]
    fn top_zero_means_all() {
        assert_eq!(effective_top(0, 37), 37);
        assert_eq!(effective_top(5, 37), 5);
        assert_eq!(effective_top(50, 37), 50); // take() clamps anyway
    }

    #[test]
    fn invalid_params_become_cli_errors_not_panics() {
        let bad = Params {
            num_radii: 1,
            ..Params::default()
        };
        let err = McCatch::new(bad).unwrap_err().to_string();
        assert!(err.contains("num_radii"), "{err}");
    }

    #[test]
    fn index_choice_parses_and_defaults() {
        assert_eq!(IndexChoice::parse("kd"), Ok(IndexChoice::Kd));
        assert_eq!(IndexChoice::parse("brute"), Ok(IndexChoice::Brute));
        assert_eq!(IndexChoice::parse("vp"), Ok(IndexChoice::Vp));
        assert_eq!(IndexChoice::parse("slim"), Ok(IndexChoice::Slim));
        assert!(IndexChoice::parse("rtree").is_err());
        assert_eq!(IndexChoice::default_for_mode("csv"), IndexChoice::Kd);
        assert_eq!(IndexChoice::default_for_mode("lines"), IndexChoice::Slim);
    }

    #[test]
    fn kd_index_is_rejected_for_lines_mode() {
        let detector = McCatch::builder().build().unwrap();
        let err = fit_lines_model(&detector, vec!["a".into(), "b".into()], IndexChoice::Kd)
            .err()
            .expect("kd must be rejected in lines mode");
        assert!(err.contains("csv"), "{err}");
    }

    #[test]
    fn every_index_choice_fits_vector_data() {
        let detector = McCatch::builder().build().unwrap();
        let pts: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
            .collect();
        for index in [
            IndexChoice::Brute,
            IndexChoice::Kd,
            IndexChoice::Vp,
            IndexChoice::Slim,
        ] {
            let model = fit_csv_model(&detector, pts.clone(), index).unwrap();
            assert_eq!(model.stats().num_points, 50, "{index:?}");
        }
    }

    #[test]
    fn format_event_text_and_ndjson() {
        let e = ScoredEvent {
            seq: 7,
            tick: 9,
            score: 1.25,
            generation: 2,
            flagged: true,
        };
        assert_eq!(format_event(&e, Format::Text), "7\t9\t1.2500\t2\ttrue");
        assert_eq!(
            format_event(&e, Format::Json),
            "{\"seq\": 7, \"tick\": 9, \"score\": 1.25, \"generation\": 2, \"flagged\": true}"
        );
    }

    #[test]
    fn json_escape_covers_specials() {
        // Labels in the JSON report go through the shared escaper.
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\there"), "tab\\there");
        assert_eq!(json_escape("nl\nhere"), "nl\\nhere");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("héllo"), "héllo");
    }

    #[test]
    fn json_f64_maps_nonfinite_to_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(0.0), "0");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn a_cold_start_refuses_only_a_log_with_entries() {
        let log =
            std::env::temp_dir().join(format!("mccatch-cli-{}.default.0", std::process::id()));
        let _ = std::fs::remove_file(&log);
        assert_eq!(refuse_stale_log(&log), Ok(()), "no log yet");
        std::fs::write(&log, b"").unwrap();
        assert_eq!(refuse_stale_log(&log), Ok(()), "an empty log");
        std::fs::write(&log, b"{\"seq\":0,\"tick\":0,\"point\":[1.0]}\n").unwrap();
        assert!(refuse_stale_log(&log).unwrap_err().contains("--load-model"));
        let _ = std::fs::remove_file(&log);
    }
}
