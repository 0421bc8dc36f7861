#!/usr/bin/env python3
"""Compares two perfbench results: simulated metrics exactly, host metrics
for information.

    python3 scripts/bench_diff.py BASE NEW [--expect-move fleet_read]

BASE and NEW are each either a perfbench result line (the last line of
`perfbench/run.py` output, alone or at the end of a captured log; its
workload is named `result`) or a `perfbench/repeat.py --out` set
({workload: [result, ...]}, run i at seed --seed-base + i). Both sides must hold the same
workloads with the same number of runs; runs pair by position, so both
sets must start at the same seed.

Simulated metrics (sim_*, wire_*, msgs_*) are deterministic for a seed.
For every workload not named by --expect-move each must match exactly,
run by run. For a named workload they are printed, median to median.
Host metrics (everything else) are printed only: they spread with the
machine. Every NEW run must also report correct=true.

Exit status: 0 when every check holds, 1 when one fails, 2 when the
inputs cannot be read or do not pair up.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

Result = dict[str, Any]
ResultSet = dict[str, list[Result]]

SIMULATED_PREFIXES = ("sim_", "wire_", "msgs_")


class InputError(Exception):
    """Raised when an input is not a result line or a set, or the two
    inputs do not pair up."""


def is_simulated(metric: str) -> bool:
    return metric.startswith(SIMULATED_PREFIXES)


def is_result(obj: object) -> bool:
    return isinstance(obj, dict) and isinstance(obj.get("metrics"), dict)


def parse(text: str) -> ResultSet:
    """Reads a result line or a repeat.py set from `text`."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise InputError("empty input") from None
        try:
            obj = json.loads(lines[-1])
        except json.JSONDecodeError as e:
            raise InputError(f"last line is not JSON: {e}") from None
    if is_result(obj):
        return {"result": [obj]}
    if (isinstance(obj, dict) and obj
            and all(isinstance(runs, list) and runs
                    and all(is_result(r) for r in runs)
                    for runs in obj.values())):
        result_set: ResultSet = obj
        return result_set
    raise InputError("neither a perfbench result line nor a repeat.py set")


def load(path: str) -> ResultSet:
    try:
        return parse(Path(path).read_text())
    except OSError as e:
        raise InputError(str(e)) from None
    except InputError as e:
        raise InputError(f"{path}: {e}") from None


def value(run: Result, metric: str) -> float:
    return float(run["metrics"][metric]["value"])


def median(runs: list[Result], metric: str) -> float:
    return statistics.median(value(r, metric) for r in runs)


def relative(before: float, after: float) -> str:
    if before == 0:
        return "" if after == 0 else "(new)"
    return f"({(after - before) / before:+.2%})"


def diff(base: ResultSet, new: ResultSet, expect_move: set[str],
         out: list[str]) -> bool:
    """Appends a report of NEW against BASE to `out`; returns True when
    every check holds."""
    if set(base) != set(new):
        raise InputError(f"workloads differ: {sorted(base)} vs {sorted(new)}")
    unknown = expect_move - set(base)
    if unknown:
        raise InputError(f"--expect-move names no workload: {sorted(unknown)}")
    ok = True
    for workload in sorted(base):
        b_runs, n_runs = base[workload], new[workload]
        if len(b_runs) != len(n_runs):
            raise InputError(f"{workload}: {len(b_runs)} runs vs "
                             f"{len(n_runs)}")
        moving = workload in expect_move
        out.append(f"{workload}: {len(b_runs)} run(s) paired by position, "
                   + ("simulated metrics may move"
                      if moving else "simulated metrics must match"))
        if not all(r.get("correct") is True for r in n_runs):
            out.append("  FAIL correct is not true in every new run")
            ok = False
        for metric in sorted(b_runs[0]["metrics"]):
            if any(metric not in r["metrics"] for r in b_runs + n_runs):
                raise InputError(f"{workload}: {metric} missing in some run")
            before, after = median(b_runs, metric), median(n_runs, metric)
            if not is_simulated(metric) or moving:
                kind = "sim " if is_simulated(metric) else "host"
                out.append(f"  {kind} {metric:32} {before:14.6g} -> "
                           f"{after:14.6g} {relative(before, after)}")
                continue
            differ = [i for i, (b, n) in enumerate(zip(b_runs, n_runs))
                      if value(b, metric) != value(n, metric)]
            if differ:
                ok = False
                i = differ[0]
                out.append(f"  FAIL {metric:32} differs in {len(differ)}/"
                           f"{len(b_runs)} run(s); run {i}: "
                           f"{value(b_runs[i], metric)!r} -> "
                           f"{value(n_runs[i], metric)!r}")
            else:
                out.append(f"  same {metric:32} {before:14.6g} "
                           f"(all {len(b_runs)} identical)")
    return ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Compares two perfbench results: simulated metrics "
                    "exactly, host metrics for information.")
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--expect-move", action="append", default=[],
                    metavar="WORKLOAD",
                    help="a workload whose simulated metrics may change "
                         "(repeatable)")
    args = ap.parse_args(argv)
    expect_move = set(args.expect_move)
    out: list[str] = []
    try:
        base = load(args.base)
        new = load(args.new)
        ok = diff(base, new, expect_move, out)
    except InputError as e:
        print(f"bench_diff.py: {e}", file=sys.stderr)
        return 2
    print("\n".join(out))
    print("OK: simulated metrics match" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
