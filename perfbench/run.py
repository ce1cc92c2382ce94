#!/usr/bin/env python3
"""Builds the repository and runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the release `mccatch` binary and
the harness package under perfbench/harness (into $CARGO_TARGET_DIR, or
.bench_build when unset), then runs the harness, whose stdout ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. Build output
goes to stderr. See perfbench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fit-vectors", "fit-strings", "serve-score", "ingest-refit"]
# The harness must finish well inside the 180 s a run may take.
HARNESS_TIMEOUT_S = 170
# Hashed when the checkout is not a git repository, to name the source.
SOURCE_PATHS = ["Cargo.toml", "Cargo.lock", "crates", "vendor"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit, or a hash of the sources when there is no git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in SOURCE_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def cargo_build(args):
    cmd = ["cargo", "build", "--release", "--offline", *args]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    for need in ["Cargo.toml", "crates/cli/Cargo.toml", "perfbench/harness/Cargo.toml"]:
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from a full checkout of the repository")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.environ["CARGO_TARGET_DIR"] = target
    cargo_build(["-p", "mccatch-cli"])
    cargo_build(["--manifest-path", os.path.join(ROOT, "perfbench/harness/Cargo.toml")])

    cmd = [
        os.path.join(target, "release", "perfbench-harness"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--server-bin", os.path.join(target, "release", "mccatch"),
        "--out-dir", os.path.join(ROOT, ".perfbench"),
    ]
    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    # A process group of its own, so a timeout can stop the harness and
    # every server it started with one signal.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    sys.stdout.write(out.decode())
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
