#!/usr/bin/env python3
"""Builds and runs one workload of the lcm workspace benchmark.

    python3 lcmbench/run.py --workload batch-cold --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds the `lcmbench` package from
source (into $CARGO_TARGET_DIR, default `.bench_build`) and runs it; the
workloads' fixed parameters are constants of the package (`src/gen.rs`).
The last stdout line is the result object; the exit code is non-zero when
a build failed or any output check failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(cmd, env):
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def tool_version(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload}")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path"]
    build(cargo + [os.path.join(HERE, "Cargo.toml")], env)

    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = tool_version(["git", "-C", ROOT, "rev-parse", "HEAD"])
    cmd = [
        os.path.join(target, "release", "lcmbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work", os.path.join(target, "lcmbench-work", args.workload),
        "--rustc", tool_version(["rustc", "-V"]),
        "--rev", rev,
    ]
    # Its own session, so a timeout stops everything it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"run.py: {args.workload} ran longer than {RUN_TIMEOUT_S} s")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    # The result must carry exactly the metrics BENCHMARK.json declares.
    result = json.loads(stdout.strip().splitlines()[-1])
    declared = bench["per_layer" if args.trace == "1" else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in declared):
        sys.exit("run.py: the reported metrics differ from those BENCHMARK.json declares")


if __name__ == "__main__":
    main()
