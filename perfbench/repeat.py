#!/usr/bin/env python3
"""Repeats benchmark runs and summarizes each metric's spread.

    python3 perfbench/repeat.py --runs 10 --seed-base 1 --out set1.json
    python3 perfbench/repeat.py --runs 10 --seed-base 1 --out set2.json
    python3 perfbench/repeat.py --compare set1.json set2.json

Runs every workload (or --workloads a,b) --runs times through run.py,
seed --seed-base, --seed-base+1, ..., and prints per metric the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
A spread over a third of the bound is marked "wide", over the bound
"OVER". --compare reads two saved sets and prints, per workload and
metric, how far the second median moved from the first in the
metric's worse direction, against the same bound. Run from the root of
a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").splitlines()[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0], None, values[0]))
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def print_set(results, metrics):
    for workload, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct={correct}, "
              f"failed {failed} / attempted {attempted}")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(values)
            bound = metrics.get(name, {}).get("bound")
            mark = ""
            if bound is not None and name != "setup_s":
                mark = ("OVER" if spread > bound
                        else "wide" if spread > bound / 3 else "")
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} "
                  f"{mark}")


def compare(first, second, metrics):
    worst_ok = True
    for workload in first:
        print(f"\n{workload}")
        for name in first[workload][0]["metrics"]:
            m1 = statistics.median(
                r["metrics"][name]["value"] for r in first[workload])
            m2 = statistics.median(
                r["metrics"][name]["value"] for r in second[workload])
            spec = metrics.get(name, {})
            worse = (m2 - m1) if spec.get("better") == "lower" else (m1 - m2)
            share = worse / m1 if m1 else 0.0
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                ok = share <= bound
                worst_ok = worst_ok and ok
                verdict = "ok" if ok else "WORSE"
            print(f"  {name:34} {m1:14.6g} -> {m2:14.6g} "
                  f"worse by {share:+8.4f} {verdict}")
    return worst_ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--seconds", type=float,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="save the raw results as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare two saved sets instead of running")
    args = ap.parse_args()
    spec, metrics = load_spec()

    if args.compare:
        sets = [json.loads(Path(p).read_text()) for p in args.compare]
        return 0 if compare(sets[0], sets[1], metrics) else 1

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    for workload in workloads:
        results[workload] = []
        for i in range(args.runs):
            seed = args.seed_base + i
            results[workload].append(
                run_once(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    print_set(results, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
