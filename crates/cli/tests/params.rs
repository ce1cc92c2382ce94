//! Hyperparameter checks through the shipped binary: an invalid value
//! exits non-zero with a message naming the parameter, before any data
//! is read.

use std::io::Write;
use std::process::{Command, Output, Stdio};

/// Runs `mccatch --radii {radii}` over a small CSV on stdin.
fn run_with_radii(radii: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mccatch"))
        .args(["--radii", radii, "--top", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mccatch");
    let csv: String = (0..40)
        .map(|i| format!("{},{}\n", i % 8, i / 8))
        .chain(["90,90\n".to_owned()])
        .collect();
    // The binary may exit before reading stdin; a broken pipe is fine.
    let _ = child.stdin.take().expect("stdin").write_all(csv.as_bytes());
    child.wait_with_output().expect("wait for mccatch")
}

#[test]
fn num_radii_past_64_is_a_cli_error() {
    for radii in ["65", "70"] {
        let out = run_with_radii(radii);
        assert!(!out.status.success(), "--radii {radii} exited 0");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("num_radii"), "--radii {radii}: {err}");
    }
    let out = run_with_radii("64");
    assert!(
        out.status.success(),
        "--radii 64: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
