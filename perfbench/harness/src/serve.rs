//! The serving workloads: the release `mccatch --serve` binary driven
//! over loopback by closed-loop clients, each on one keep-alive
//! connection that waits for every reply before sending the next batch.
//!
//! The binary only ever sees generated inputs: a seed CSV (`--input`),
//! an NDJSON tenant seed (`PUT /admin/tenants/bench`), and NDJSON
//! batches of held-out points, all drawn from `http(…)` under the run's
//! seed.

use crate::reference::{Reference, NOMINAL};
use crate::report::{median_secs, quantile_ms, Report, TAIL_SAMPLES};
use crate::Args;
use mccatch_data::http;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Points seeding the default detector and the tenant (`--window`).
pub const SEED_POINTS: usize = 2_000;
/// Held-out points the clients send, as `HELD_OUT / BATCH` batches.
pub const HELD_OUT: usize = 20_000;
/// NDJSON lines per request.
pub const BATCH: usize = 500;
/// The tenant the workloads create; it has `SHARDS` shards.
pub const TENANT: &str = "bench";
const SHARDS: usize = 2;
/// Load: one process, this many closed-loop clients (one connection
/// each), matching the two cores of the reference host.
const CLIENTS: usize = 2;
/// Boots per run; `setup_s` is their median, scaled by the host
/// reference task, and the last one is measured.
const SETUP_BOOTS: usize = 5;
/// `serve-score` runs its closed loop in this many parts, with the host
/// reference task before, between and after them.
const SEGMENTS: usize = 8;
/// `kill -9` + warm restarts per `ingest-refit` run; `restore_s` is their
/// median.
const RESTARTS: usize = 3;
/// In `ingest-refit`, every `REFIT_EVERY`-th request of client 0 is a
/// synchronous tenant refit instead of an ingest batch.
const REFIT_EVERY: u64 = 8;
/// How far past its time a run may go to collect `TAIL_SAMPLES`.
const MAX_OVERRUN: Duration = Duration::from_secs(60);

/// Where the binary is and where a run may write.
pub struct Env {
    pub bin: PathBuf,
    pub out_dir: PathBuf,
    pub seed: u64,
}

impl Env {
    pub fn new(args: &Args) -> Env {
        Env {
            bin: args.server_bin.clone(),
            out_dir: args.out_dir.clone(),
            seed: args.seed,
        }
    }
}

/// The generated inputs of a serving run.
pub struct Data {
    pub seed: Vec<Vec<f64>>,
    pub held_out: Vec<Vec<f64>>,
    /// `held_out` as NDJSON request bodies of `BATCH` lines; batch 0 is
    /// also the probe batch.
    pub batches: Vec<Vec<u8>>,
}

impl Data {
    pub fn new(seed: u64) -> Data {
        let mut points = http(SEED_POINTS + HELD_OUT, seed).points;
        let held_out = points.split_off(SEED_POINTS);
        let batches = held_out.chunks(BATCH).map(ndjson).collect();
        Data {
            seed: points,
            held_out,
            batches,
        }
    }

    pub fn probe(&self) -> &[u8] {
        &self.batches[0]
    }

    fn sizes(&self, rep: &mut Report) {
        rep.size("seed_points", self.seed.len());
        rep.size("held_out", self.held_out.len());
        rep.size("batch_lines", BATCH);
        rep.size("clients", CLIENTS);
        rep.size("shards", SHARDS);
    }
}

/// One point per line as a JSON array, floats in shortest round-trip
/// form (so the server parses back the exact bits).
pub fn ndjson(points: &[Vec<f64>]) -> Vec<u8> {
    let mut s = String::with_capacity(points.len() * 48);
    for p in points {
        let coords: Vec<String> = p.iter().map(|v| format!("{v}")).collect();
        s.push('[');
        s.push_str(&coords.join(", "));
        s.push_str("]\n");
    }
    s.into_bytes()
}

/// A run's private directory under the output dir, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(env: &Env, what: &str) -> Result<Scratch, String> {
        let dir = env
            .out_dir
            .join(format!("tmp-{what}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// A fresh subdirectory (each boot gets its own replay logs).
    fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.0.join(name);
        std::fs::create_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        Ok(d)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `mccatch --serve` process; killed (`SIGKILL`) and reaped on
/// drop, so no path out of a run leaves one behind.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts the binary and waits for its `listening on http://ADDR`
    /// line. Its stderr (restore notes, errors) goes to `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let stderr = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout.read_line(&mut line).ok().and_then(|_| {
            line.trim()
                .strip_prefix("listening on http://")?
                .parse()
                .ok()
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let tail = std::fs::read_to_string(log).unwrap_or_default();
            return Err(format!("server did not start ({line:?}); stderr: {tail}"));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP response.
pub struct Resp {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A keep-alive HTTP/1.1 connection with `Content-Length` framing. The
/// benchmark keeps its own client rather than `mccatch_server::client`,
/// so a change to the program cannot change the instrument measuring it.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let timeout = Some(Duration::from_secs(60));
        stream
            .set_read_timeout(timeout)
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(timeout)
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Resp, String> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.reader.get_mut();
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body))
            .map_err(|e| format!("{method} {path}: send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("{method} {path}: status line: {e}"))?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{method} {path}: malformed status line {line:?}"))?;
        let mut len = None;
        loop {
            line.clear();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("{method} {path}: header: {e}"))?;
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse::<usize>().ok();
                }
            }
        }
        let len = len.ok_or_else(|| format!("{method} {path}: no content-length"))?;
        let mut body = vec![0; len];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("{method} {path}: truncated body: {e}"))?;
        Ok(Resp { status, body })
    }
}

/// What a response must look like to count as a success.
#[derive(Clone, Copy)]
pub enum Expect {
    /// `BATCH` score lines.
    Scores,
    /// `BATCH` scored-event lines.
    Events,
    /// Any 200.
    Ok,
}

/// Checks `resp`; returns how many items (scored lines) it carried.
fn verify(path: &str, resp: &Resp, expect: Expect) -> Result<u64, String> {
    if resp.status != 200 {
        let text = String::from_utf8_lossy(&resp.body);
        return Err(format!("{path}: status {}: {}", resp.status, text.trim()));
    }
    let prefix = match expect {
        Expect::Ok => return Ok(0),
        Expect::Scores => "{\"score\": ",
        Expect::Events => "{\"seq\": ",
    };
    let text = std::str::from_utf8(&resp.body).map_err(|_| format!("{path}: non-UTF-8 body"))?;
    let good = text.lines().filter(|l| l.starts_with(prefix)).count();
    let total = text.lines().count();
    if good != BATCH || total != BATCH {
        return Err(format!(
            "{path}: {good} good lines of {total}, expected {BATCH}"
        ));
    }
    Ok(BATCH as u64)
}

/// One request, verified, counted as one op in `rep`. Returns the body
/// on success.
pub fn call_checked(
    rep: &mut Report,
    conn: &mut Conn,
    method: &str,
    path: &str,
    body: &[u8],
    expect: Expect,
) -> Option<Vec<u8>> {
    let outcome = conn
        .call(method, path, body)
        .and_then(|r| verify(path, &r, expect).map(|_| r.body));
    match outcome {
        Ok(body) => {
            rep.op(Ok(()));
            Some(body)
        }
        Err(e) => {
            rep.op(Err(e));
            None
        }
    }
}

/// One request of the closed loop.
struct Step<'a> {
    kind: usize,
    method: &'static str,
    path: &'a str,
    body: &'a [u8],
    expect: Expect,
}

/// What the closed loop measured.
struct LoopResult {
    /// Latencies of successful requests, per step kind, in ns.
    latency_ns: Vec<Vec<u64>>,
    /// Items (scored lines) in successful responses.
    items: u64,
    attempted: u64,
    errors: Vec<String>,
    elapsed: Duration,
}

impl LoopResult {
    fn new(kinds: usize) -> LoopResult {
        LoopResult {
            latency_ns: vec![Vec::new(); kinds],
            items: 0,
            attempted: 0,
            errors: Vec::new(),
            elapsed: Duration::ZERO,
        }
    }

    /// Items per second over the whole run: the host's speed drifts by up
    /// to 2x over seconds, and a mean moves with the share of slow time
    /// where a median jumps between the two speeds.
    fn items_per_s(&self) -> f64 {
        self.items as f64 / self.elapsed.as_secs_f64()
    }

    /// Adds a later part of the same run.
    fn merge(&mut self, part: LoopResult) {
        for (all, mine) in self.latency_ns.iter_mut().zip(part.latency_ns) {
            all.extend(mine);
        }
        self.items += part.items;
        self.attempted += part.attempted;
        self.errors.extend(part.errors);
        self.elapsed += part.elapsed;
    }

    fn count_into(&self, rep: &mut Report) {
        rep.attempted += self.attempted - self.errors.len() as u64;
        for e in &self.errors {
            rep.op(Err(e.clone()));
        }
    }
}

/// Runs `CLIENTS` closed-loop clients until `seconds` pass and each
/// client holds its share of `min_samples[kind]` successful samples of
/// every kind (so a p99 has ten samples beyond it), for at most
/// `MAX_OVERRUN` longer; client `c`'s `r`-th request is `plan(c, r)`.
fn closed_loop<'a>(
    addr: SocketAddr,
    seconds: f64,
    min_samples: &[usize],
    plan: &(dyn Fn(usize, u64) -> Step<'a> + Sync),
) -> Result<LoopResult, String> {
    let kinds = min_samples.len();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let hard_stop = deadline + MAX_OVERRUN;
    let per_client: Vec<Result<(LoopResult, Instant), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = Conn::open(addr)?;
                    let mut res = LoopResult::new(kinds);
                    let mut r = 0u64;
                    let mut last = Instant::now();
                    let short = |res: &LoopResult| {
                        res.latency_ns
                            .iter()
                            .zip(min_samples)
                            .any(|(got, min)| got.len() < min.div_ceil(CLIENTS))
                    };
                    while last < deadline || (short(&res) && last < hard_stop) {
                        let step = plan(c, r);
                        r += 1;
                        let sent = Instant::now();
                        let outcome = conn
                            .call(step.method, step.path, step.body)
                            .and_then(|resp| verify(step.path, &resp, step.expect));
                        last = Instant::now();
                        res.attempted += 1;
                        match outcome {
                            Ok(items) => {
                                res.latency_ns[step.kind].push((last - sent).as_nanos() as u64);
                                res.items += items;
                            }
                            Err(e) => {
                                res.errors.push(e);
                                conn = Conn::open(addr)?;
                            }
                        }
                    }
                    Ok((res, last))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_owned()))
            })
            .collect()
    });
    let mut total = LoopResult::new(kinds);
    for client in per_client {
        let (res, end) = client?;
        for (all, mine) in total.latency_ns.iter_mut().zip(res.latency_ns) {
            all.extend(mine);
        }
        total.items += res.items;
        total.attempted += res.attempted;
        total.errors.extend(res.errors);
        total.elapsed = total.elapsed.max(end - start);
    }
    Ok(total)
}

fn serve_args(head: Vec<String>, extra: &[String]) -> Vec<String> {
    let mut args = head;
    for (flag, value) in [
        ("--refit-every", 0),
        ("--shards", SHARDS),
        ("--window", SEED_POINTS),
    ] {
        args.extend([flag.to_owned(), value.to_string()]);
    }
    args.extend_from_slice(extra);
    args
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Boots a fresh server in `dir` (seed CSV + tenant seed), then sends
/// one warm-up request per endpoint in `warm`. Returns the server and
/// how long all of that took.
fn boot(
    env: &Env,
    rep: &mut Report,
    data: &Data,
    seed_csv: &Path,
    dir: &Path,
    extra: &[String],
    warm: &[(&str, &[u8], Expect)],
) -> Result<(Server, Duration), String> {
    let head = ["--serve", "127.0.0.1:0", "--input"]
        .map(str::to_owned)
        .to_vec();
    let mut args = serve_args([head, vec![path_arg(seed_csv)]].concat(), extra);
    args.extend(["--access-log".to_owned(), path_arg(&dir.join("access.log"))]);
    let t0 = Instant::now();
    let server = Server::spawn(&env.bin, &args, &dir.join("stderr.log"))?;
    let mut conn = Conn::open(server.addr)?;
    let seed_body = ndjson(&data.seed);
    let tenant_path = format!("/admin/tenants/{TENANT}");
    call_checked(rep, &mut conn, "PUT", &tenant_path, &seed_body, Expect::Ok)
        .ok_or("tenant creation failed")?;
    for (path, body, expect) in warm {
        call_checked(rep, &mut conn, "POST", path, body, *expect);
    }
    Ok((server, t0.elapsed()))
}

/// Boots `SETUP_BOOTS` times, keeping the last server; returns it and
/// the boot times, scaled by the host reference task run before and after
/// them all (see `reference.rs`).
fn setup(
    env: &Env,
    host: &Reference,
    rep: &mut Report,
    data: &Data,
    scratch: &Scratch,
    extra: impl Fn(&Path) -> Vec<String>,
    warm: &[(&str, &[u8], Expect)],
) -> Result<(Server, PathBuf, Vec<Duration>), String> {
    let seed_csv = scratch.path("seed.csv");
    let csv: String = data
        .seed
        .iter()
        .map(|p| {
            let c: Vec<String> = p.iter().map(|v| format!("{v}")).collect();
            c.join(",") + "\n"
        })
        .collect();
    std::fs::write(&seed_csv, csv).map_err(|e| format!("{}: {e}", seed_csv.display()))?;
    let mut times = Vec::new();
    let mut kept = None;
    let before = host.run();
    for i in 0..SETUP_BOOTS {
        drop(kept.take());
        let dir = scratch.subdir(&format!("boot{i}"))?;
        let (server, t) = boot(env, rep, data, &seed_csv, &dir, &extra(&dir), warm)?;
        times.push(t);
        kept = Some((server, dir));
    }
    let (server, dir) = kept.expect("SETUP_BOOTS >= 1");
    let speed = 2.0 * NOMINAL.as_secs_f64() / (before + host.run()).as_secs_f64();
    let times = times.iter().map(|t| t.mul_f64(speed)).collect();
    Ok((server, dir, times))
}

pub fn serve_score(env: &Env, seconds: f64) -> Result<Report, String> {
    let data = Data::new(env.seed);
    let scratch = Scratch::new(env, "serve-score")?;
    let mut rep = Report::default();
    data.sizes(&mut rep);
    let tscore = format!("/t/{TENANT}/score");
    let paths = ["/score", tscore.as_str()];
    let warm: Vec<(&str, &[u8], Expect)> = paths
        .iter()
        .map(|p| (*p, data.batches[1].as_slice(), Expect::Scores))
        .collect();
    let host = Reference::new();
    let (server, _, setup_times) =
        setup(env, &host, &mut rep, &data, &scratch, |_| Vec::new(), &warm)?;

    let mut conn = Conn::open(server.addr)?;
    let before: Vec<Option<Vec<u8>>> = paths
        .iter()
        .map(|p| call_checked(&mut rep, &mut conn, "POST", p, data.probe(), Expect::Scores))
        .collect();
    let nb = data.batches.len();
    let plan = |c: usize, r: u64| {
        let kind = (c + r as usize) % 2;
        Step {
            kind,
            method: "POST",
            path: paths[kind],
            body: &data.batches[(c * 17 + r as usize) % nb],
            expect: Expect::Scores,
        }
    };
    // The loop runs in parts, with the host reference task between them
    // while no request is in flight; the run's rate is scaled by the
    // task's mean time. Single task runs between parts scatter by up to 2x
    // around the host's speed, so their mean tracks it better than the
    // runs around any one part do.
    let part_samples = [TAIL_SAMPLES.div_ceil(SEGMENTS); 2];
    let mut res = LoopResult::new(paths.len());
    let mut host_times = vec![host.run()];
    for _ in 0..SEGMENTS {
        let part = closed_loop(server.addr, seconds / SEGMENTS as f64, &part_samples, &plan)?;
        host_times.push(host.run());
        res.merge(part);
    }
    let host_mean = host_times.iter().sum::<Duration>() / host_times.len() as u32;
    res.count_into(&mut rep);
    let mut conn = Conn::open(server.addr)?;
    for (p, b) in paths.iter().zip(&before) {
        let after = call_checked(&mut rep, &mut conn, "POST", p, data.probe(), Expect::Scores);
        rep.check(b.is_some() && after == *b, || {
            format!("{p}: probe answer changed during the run")
        });
    }
    drop(server);

    rep.metric("setup_s", median_secs(&setup_times), "s", setup_times.len());
    let requests = res.latency_ns.iter().map(Vec::len).sum();
    rep.metric(
        "items_per_s",
        res.items_per_s() * host_mean.as_secs_f64() / NOMINAL.as_secs_f64(),
        "items/s",
        requests,
    );
    rep.detail(
        "score.host_ref_ms",
        host_mean.as_secs_f64() * 1e3,
        "ms",
        host_times.len(),
    );
    rep.detail(
        "score.events_per_s",
        res.items_per_s(),
        "events/s",
        requests,
    );
    rep.latency_details("score", &res.latency_ns[0]);
    rep.latency_details("tscore", &res.latency_ns[1]);
    Ok(rep)
}

pub fn ingest_refit(env: &Env, seconds: f64) -> Result<Report, String> {
    let data = Data::new(env.seed);
    let scratch = Scratch::new(env, "ingest-refit")?;
    let mut rep = Report::default();
    data.sizes(&mut rep);
    let ingest = format!("/t/{TENANT}/ingest");
    let refit = format!("/t/{TENANT}/admin/refit");
    let tscore = format!("/t/{TENANT}/score");
    let persist_flags = |dir: &Path| {
        vec![
            "--replay-log".to_owned(),
            path_arg(&dir.join("replay.log")),
            "--save-model".to_owned(),
            path_arg(&dir.join("snap")),
        ]
    };
    let warm: Vec<(&str, &[u8], Expect)> = vec![
        (ingest.as_str(), data.batches[1].as_slice(), Expect::Events),
        (refit.as_str(), b"".as_slice(), Expect::Ok),
    ];
    let host = Reference::new();
    let (server, dir, setup_times) =
        setup(env, &host, &mut rep, &data, &scratch, persist_flags, &warm)?;

    let nb = data.batches.len();
    let plan = |c: usize, r: u64| {
        if c == 0 && (r + 1).is_multiple_of(REFIT_EVERY) {
            Step {
                kind: 1,
                method: "POST",
                path: refit.as_str(),
                body: b"",
                expect: Expect::Ok,
            }
        } else {
            Step {
                kind: 0,
                method: "POST",
                path: ingest.as_str(),
                body: &data.batches[(c * 17 + r as usize) % nb],
                expect: Expect::Events,
            }
        }
    };
    let res = closed_loop(server.addr, seconds, &[TAIL_SAMPLES, 0], &plan)?;
    res.count_into(&mut rep);

    // Snapshot both detectors, probe, then kill -9 and restart from disk.
    let mut conn = Conn::open(server.addr)?;
    let tsnap = format!("/t/{TENANT}/admin/snapshot");
    call_checked(&mut rep, &mut conn, "POST", &tsnap, b"", Expect::Ok);
    call_checked(
        &mut rep,
        &mut conn,
        "POST",
        "/admin/snapshot",
        b"",
        Expect::Ok,
    );
    let before = call_checked(
        &mut rep,
        &mut conn,
        "POST",
        &tscore,
        data.probe(),
        Expect::Scores,
    );
    drop(conn);
    drop(server);
    let mut restores = Vec::new();
    for i in 0..RESTARTS {
        let head = ["--serve", "127.0.0.1:0", "--load-model"]
            .map(str::to_owned)
            .to_vec();
        let args = serve_args(
            [head, vec![path_arg(&dir.join("snap"))]].concat(),
            &[
                "--replay-log".to_owned(),
                path_arg(&dir.join("replay.log")),
                "--save-model".to_owned(),
                path_arg(&dir.join("snap")),
                "--access-log".to_owned(),
                path_arg(&dir.join(format!("access-restart{i}.log"))),
            ],
        );
        let t0 = Instant::now();
        let server = Server::spawn(&env.bin, &args, &dir.join(format!("stderr-restart{i}.log")))?;
        let mut conn = Conn::open(server.addr)?;
        let after = call_checked(
            &mut rep,
            &mut conn,
            "POST",
            &tscore,
            data.probe(),
            Expect::Scores,
        );
        restores.push(t0.elapsed());
        rep.check(before.is_some() && after == before, || {
            format!("restart {i}: probe answer differs from the pre-kill binary's")
        });
    }

    let ingest_ns = &res.latency_ns[0];
    let refit_ns = &res.latency_ns[1];
    rep.metric("setup_s", median_secs(&setup_times), "s", setup_times.len());
    let events_per_s = res.items_per_s();
    rep.metric("items_per_s", events_per_s, "items/s", ingest_ns.len());
    rep.detail(
        "ingest.events_per_s",
        events_per_s,
        "events/s",
        ingest_ns.len(),
    );
    rep.latency_details("ingest", ingest_ns);
    rep.detail(
        "refit.p50_ms",
        quantile_ms(refit_ns, 0.5),
        "ms",
        refit_ns.len(),
    );
    rep.detail("restore_s", median_secs(&restores), "s", restores.len());
    Ok(rep)
}
