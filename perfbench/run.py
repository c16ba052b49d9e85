#!/usr/bin/env python3
"""Builds and runs the Camelot proof-service benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library, the shardd worker, the benchmark and its self-test into
.bench_build/ (later calls rebuild incrementally), runs the self-test,
then runs the benchmark. Build output goes to stderr; the benchmark's
stdout passes through unchanged, so the last line is its JSON result.
Traced runs write a Chrome trace-event file under .bench_build/traces/.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "-j", "4"],
        ]
        for cmd in steps:
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "proof_service.cpp")):
        print("run.py: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        build()
        subprocess.run([os.path.join(BUILD, "perfbench_selftest")], check=True,
                       stdout=sys.stderr, timeout=60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build or self-test failed: {e}", file=sys.stderr)
        return 3

    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [
        os.path.join(BUILD, "camelot_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--shardd", os.path.join(BUILD, "shardd"),
    ]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
