#!/usr/bin/env python3
"""Validate machine-readable bench output and Chrome-trace exports.

Two modes:

  check_bench_json.py <bench_*.json> [more.json ...]
      Validates each file against the bench schema emitted by
      AXML_BENCH_JSON_DIR (see bench/bench_common.h): schema_version 1,
      a bench name, and a non-empty runs[] where every run has a name,
      iterations >= 1, numeric counters (the four standard counters
      when present), and a metrics object of non-negative integers.

  check_bench_json.py --trace <trace.json>
      Validates a Chrome trace-event export from Tracer::ToChromeJson
      (see $AXML_TRACE_OUT): non-empty traceEvents, required per-event
      fields, at least one trace id (tid) shared by >= 2 events — a
      causal chain, the whole point of the tracer — and at least one
      span of each instrumented layer (cat "net", "replica", "eval").

Exit code 1 with one line per failure. Run from anywhere.
"""

import json
import pathlib
import sys

REQUIRED_EVENT_FIELDS = ("name", "cat", "ph", "ts", "pid", "tid")
# The layers that record spans: the network, the replica subsystem and
# the evaluator. An export missing one has lost that layer's spans.
REQUIRED_CATEGORIES = ("net", "replica", "eval")


def check_bench(path: pathlib.Path) -> list[str]:
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(f"{path}: {msg}")

    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable ({e})"]
    if doc.get("schema_version") != 1:
        err(f"schema_version is {doc.get('schema_version')!r}, want 1")
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        err("missing/empty 'bench' name")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        err("missing/empty 'runs'")
        return errors
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not isinstance(run.get("name"), str) or not run.get("name"):
            err(f"{where}: missing/empty 'name'")
        if not isinstance(run.get("iterations"), int) or run["iterations"] < 1:
            err(f"{where}: bad 'iterations' {run.get('iterations')!r}")
        counters = run.get("counters")
        if not isinstance(counters, dict):
            err(f"{where}: missing 'counters' object")
            counters = {}
        for name, value in counters.items():
            if not isinstance(value, (int, float)):
                err(f"{where}: counter {name!r} is not numeric: {value!r}")
        # Standard counters travel as a set: a simulator bench that
        # records any of them must record all four (dropping one is
        # drift), while a pure micro-bench (bench_wire, bench_engine)
        # may report only its own counters.
        standard = ("sim_s", "remote_KB", "msgs", "results")
        if any(std in counters for std in standard):
            for std in standard:
                if std not in counters:
                    err(f"{where}: standard counter {std!r} missing")
        metrics = run.get("metrics")
        if not isinstance(metrics, dict):
            err(f"{where}: missing 'metrics' object")
            continue
        for name, value in metrics.items():
            if not isinstance(value, int) or value < 0:
                err(f"{where}: metric {name!r} not a non-negative int: "
                    f"{value!r}")
    return errors


def check_trace(path: pathlib.Path) -> list[str]:
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(f"{path}: {msg}")

    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable ({e})"]
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        err("missing/empty 'traceEvents'")
        return errors
    tid_counts: dict[object, int] = {}
    categories: set[object] = set()
    for i, ev in enumerate(events):
        for field in REQUIRED_EVENT_FIELDS:
            if field not in ev:
                err(f"traceEvents[{i}]: missing {field!r}")
        if ev.get("ph") != "X":
            err(f"traceEvents[{i}]: ph is {ev.get('ph')!r}, want 'X'")
        tid = ev.get("tid")
        tid_counts[tid] = tid_counts.get(tid, 0) + 1
        categories.add(ev.get("cat"))
    if not any(count >= 2 for count in tid_counts.values()):
        err("no trace id (tid) is shared by >= 2 events — causal "
            "propagation is broken")
    for cat in REQUIRED_CATEGORIES:
        if cat not in categories:
            err(f"no span with cat {cat!r}")
    return errors


def main() -> int:
    args = sys.argv[1:]
    if not args:
        print((__doc__ or "").strip(), file=sys.stderr)
        return 2
    errors: list[str] = []
    if args[0] == "--trace":
        if len(args) != 2:
            print("--trace takes exactly one file", file=sys.stderr)
            return 2
        errors = check_trace(pathlib.Path(args[1]))
    else:
        for arg in args:
            errors += check_bench(pathlib.Path(arg))
    for line in errors:
        print(line, file=sys.stderr)
    if not errors:
        print(f"check_bench_json: OK ({' '.join(args)})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
