//! The `(--mode, --index)` dispatch through the shipped binary: every
//! pairing it runs gives one answer, and every pairing or flag it cannot
//! run is refused with a message, before any input is read.
//!
//! Covered pairings: csv × {kd, slim, brute} and lines × {slim, brute}.
//! Batch `--points` reports agree across backends once the lines that
//! name the backend or count its work are dropped, a `--save-model` →
//! `--load-model` round trip reproduces the fit's report, and
//! `--stream` output with refits off agrees across backends.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const CSV_BACKENDS: [&str; 3] = ["kd", "slim", "brute"];
const LINES_BACKENDS: [&str; 2] = ["slim", "brute"];

fn mccatch(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mccatch"));
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Runs `mccatch` and insists that it succeeds.
fn ok(args: &[&str]) -> String {
    let out = mccatch(args).output().expect("run mccatch");
    assert!(
        out.status.success(),
        "mccatch {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Runs `mccatch` and insists that it fails; returns its stderr.
fn refused(args: &[&str]) -> String {
    let out = mccatch(args).output().expect("run mccatch");
    assert!(!out.status.success(), "mccatch {args:?} exited 0");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

/// Waits for a child that must exit on its own, killing it after 10 s.
fn wait_bounded(mut child: Child) -> Output {
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll mccatch").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("mccatch did not exit within 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect mccatch")
}

/// Drops the report lines that start with one of `prefixes`.
fn without(report: &str, prefixes: &[&str]) -> String {
    report
        .lines()
        .filter(|l| !prefixes.iter().any(|p| l.starts_with(p)))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// A file under the temp dir, unique to this process and test.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("mccatch-dispatch-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }

    fn with(name: &str, contents: &[u8]) -> Self {
        let f = Self::new(name);
        std::fs::write(&f.0, contents).expect("write temp file");
        f
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A deterministic draw in `[0, 1)` (a 64-bit LCG).
fn unit(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// 240 points on a 2-d square, plus a tight 6-point microcluster far off.
fn csv_data() -> String {
    let mut s = 7u64;
    let mut text = String::new();
    for _ in 0..240 {
        text += &format!("{:.3},{:.3}\n", 10.0 * unit(&mut s), 10.0 * unit(&mut s));
    }
    for _ in 0..6 {
        text += &format!("{:.3},{:.3}\n", 40.0 + unit(&mut s), 40.0 + unit(&mut s));
    }
    text
}

/// 150 syllable names, plus 5 near-copies of one long odd string.
fn names_data() -> String {
    const SYL: [&str; 8] = ["ba", "ko", "ri", "ma", "te", "lu", "sa", "no"];
    let mut s = 11u64;
    let mut text = String::new();
    for _ in 0..150 {
        for _ in 0..3 {
            text += SYL[(unit(&mut s) * SYL.len() as f64) as usize];
        }
        text += "\n";
    }
    for tail in ["q", "x", "z", "w", "k"] {
        text += &format!("xqzjwkxqzj{tail}\n");
    }
    text
}

/// The batch, save/load and stream checks for one mode over its backends.
fn check_mode(mode: &str, backends: &[&str], data: &str, warmup: &str) {
    let input = TempFile::with(&format!("{mode}.in"), data.as_bytes());
    let mut batch = Vec::new();
    let mut stream = Vec::new();
    for &index in backends {
        let base = ["--mode", mode, "--index", index, "--input", input.path()];
        let snap = TempFile::new(&format!("{mode}.{index}.snap"));
        let fit = ok(&[&base[..], &["--points", "--save-model", snap.path()]].concat());
        assert!(
            fit.contains(&format!("# index: {index}\n")),
            "{mode}/{index}:\n{fit}"
        );
        let loaded = ok(&["--points", "--load-model", snap.path()]);
        assert_eq!(
            without(&fit, &["# stage seconds"]),
            without(&loaded, &["# stage seconds"]),
            "{mode}/{index}: the loaded snapshot reports differently"
        );
        batch.push(without(
            &fit,
            &["# index:", "# distance evals", "# stage seconds"],
        ));
        // With refits off the model is fixed, so the output cannot depend
        // on when a background refit lands.
        stream.push(ok(&[
            &base[..],
            &["--stream", "--warmup", warmup, "--refit-every", "0"],
        ]
        .concat()));
    }
    for (i, &index) in backends.iter().enumerate().skip(1) {
        assert_eq!(
            batch[0], batch[i],
            "{mode}: {} vs {index} batch",
            backends[0]
        );
        assert_eq!(
            stream[0], stream[i],
            "{mode}: {} vs {index} stream",
            backends[0]
        );
    }
    assert!(
        batch[0].contains("\ttrue\n"),
        "{mode}: nothing flagged:\n{}",
        batch[0]
    );
}

#[test]
fn csv_backends_give_one_report_one_snapshot_and_one_stream() {
    check_mode("csv", &CSV_BACKENDS, &csv_data(), "200");
}

#[test]
fn lines_backends_give_one_report_one_snapshot_and_one_stream() {
    check_mode("lines", &LINES_BACKENDS, &names_data(), "120");
}

#[test]
fn kd_is_refused_in_lines_mode_in_every_form() {
    let names = TempFile::with("kd-lines.in", names_data().as_bytes());
    let forms: [&[&str]; 3] = [
        &["--input", names.path()],
        &["--stream", "--input", names.path()],
        &["--serve", "127.0.0.1:0", "--input", names.path()],
    ];
    for form in forms {
        let err = refused(&[&["--mode", "lines", "--index", "kd"][..], form].concat());
        assert!(err.contains("--mode csv"), "{form:?}: {err}");
    }
}

#[test]
fn the_vp_index_is_gone() {
    let err = refused(&["--index", "vp"]);
    assert!(err.contains("brute|kd|slim"), "{err}");
}

/// A snapshot tagged with a backend this build lacks is refused with
/// the refit advice, not rebuilt under another tree.
#[test]
fn a_vp_snapshot_is_refused() {
    let input = TempFile::with("vp.in", csv_data().as_bytes());
    let kd = TempFile::new("vp.kd.snap");
    ok(&["--input", input.path(), "--save-model", kd.path()]);
    let mut bytes = std::fs::read(kd.path()).expect("read snapshot");
    // magic(4) + version(2) + flags(2) + point_kind(1) + backend_len(1),
    // then the backend name.
    assert_eq!(&bytes[9..12], b"\x02kd");
    bytes[10..12].copy_from_slice(b"vp");
    let body = bytes.len() - 4;
    let crc = mccatch::persist::crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    let vp = TempFile::with("vp.snap", &bytes);
    let err = refused(&["--load-model", vp.path()]);
    assert!(
        err.contains("\"vp\"") && err.contains("--index slim"),
        "{err}"
    );
}

/// A mistyped `--mode` is refused before any input is read: stdin stays
/// open and unwritten, and the process still exits.
#[test]
fn a_mistyped_mode_fails_before_reading_input() {
    let mut child = mccatch(&["--mode", "typo"])
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn mccatch");
    let stdin = child.stdin.take();
    let out = wait_bounded(child);
    drop(stdin);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown mode: typo"), "{err}");
}

/// Batch `--load-model` checks `--mode` against the snapshot's point
/// kind, as it does `--index` against its backend.
#[test]
fn a_contradicting_mode_is_refused_on_load() {
    let input = TempFile::with("mode.in", csv_data().as_bytes());
    let snap = TempFile::new("mode.snap");
    ok(&["--input", input.path(), "--save-model", snap.path()]);
    let err = refused(&["--mode", "lines", "--load-model", snap.path()]);
    assert!(err.contains("--mode") && err.contains("vectors"), "{err}");
    let err = refused(&["--index", "slim", "--load-model", snap.path()]);
    assert!(err.contains("--index kd"), "{err}");
    let mut child = mccatch(&["--mode", "csv", "--load-model", snap.path()])
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn mccatch");
    // The snapshot is the input: nothing is read from stdin.
    let stdin = child.stdin.take();
    let out = wait_bounded(child);
    drop(stdin);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
