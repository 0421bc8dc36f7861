#!/usr/bin/env python3
"""Runs one workload of the axml benchmark and prints its metrics.

    python3 perfbench/run.py --workload fleet_read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the library and the benchmark binary
(perfbench/CMakeLists.txt) into .bench_build/perfbench first — a no-op
when nothing changed — then runs that binary. Its stdout is
passed through; its last line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 the binary also
writes the spans of its last traced pass to
.bench_build/spans/<workload>-seed<n>.json (Chrome trace format).
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fleet_read", "doc_churn", "aql_query")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds axml_perfbench; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env, timeout=BUILD_TIMEOUT_S)
    return BUILD / "axml_perfbench"


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"}:
            raise ValueError(f"metric {name} has keys {sorted(m)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="prove the oracles count tampered results")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        exe = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"build failed: {e}")
        return 1

    if args.selftest:
        cmd = [str(exe), "--selftest"]
    else:
        cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = ROOT / ".bench_build" / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            cmd += ["--spans-out",
                    str(spans / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"axml_perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"axml_perfbench exited with {proc.returncode}")
        return 1
    if args.selftest:
        sys.stdout.write(proc.stdout)
        return 0
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        check_result(lines[-1])
    except (IndexError, ValueError) as e:
        log(f"malformed result line: {e}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
