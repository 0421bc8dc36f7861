#!/usr/bin/env python3
"""Self-test for bench_diff.py: an exact simulated match passes, any
simulated difference fails unless its workload is expected to move, and
host metrics never fail. Also checks that the committed CI baseline,
scripts/perfbench_baseline.json, holds one seed-1 run per workload.

Runs under the stdlib unittest runner:
    python3 scripts/bench_diff_test.py
and as the `bench_diff_selftest` ctest case.
"""

from __future__ import annotations

import copy
import io
import json
import pathlib
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from typing import Any

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import bench_diff as bd  # noqa: E402  (path bootstrap above)


def result(sim_p50: float = 34.0, msgs: float = 4.73, setup_s: float = 0.1,
           correct: bool = True) -> dict[str, Any]:
    return {
        "correct": correct,
        "attempted": 1024,
        "failed": 0,
        "metrics": {
            "sim_ms_p50": {"value": sim_p50, "unit": "ms"},
            "msgs_per_op": {"value": msgs, "unit": "count"},
            "wire_bytes_per_op": {"value": 272.2, "unit": "B"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "net.drain_ms_p50": {"value": 0.01, "unit": "ms"},
        },
    }


def run_set(sim_p50: float = 34.0, msgs: float = 4.73,
            setup_s: float = 0.1) -> dict[str, list[dict[str, Any]]]:
    """Two workloads of two runs; the first doc_churn run takes the
    arguments."""
    return {"fleet_read": [result(), result()],
            "doc_churn": [result(sim_p50, msgs, setup_s), result()]}


class BenchDiffTest(unittest.TestCase):
    def run_main(self, base: object, new: object, *args: str) -> int:
        with tempfile.TemporaryDirectory() as tmp:
            paths: list[str] = []
            for name, obj in (("base", base), ("new", new)):
                path = pathlib.Path(tmp) / name
                text = obj if isinstance(obj, str) else json.dumps(obj)
                path.write_text(text)
                paths.append(str(path))
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                return bd.main([*paths, *args])

    def test_identical_sets_pass(self) -> None:
        self.assertEqual(self.run_main(run_set(), run_set()), 0)

    def test_simulated_difference_fails(self) -> None:
        for changed in (run_set(sim_p50=34.5), run_set(msgs=4.7300001)):
            with self.subTest(changed=changed):
                self.assertEqual(self.run_main(run_set(), changed), 1)

    def test_expected_move_allows_a_simulated_difference(self) -> None:
        self.assertEqual(
            self.run_main(run_set(), run_set(msgs=5.4), "--expect-move",
                          "doc_churn"), 0)
        # ...but only in the named workload.
        self.assertEqual(
            self.run_main(run_set(), run_set(msgs=5.4), "--expect-move",
                          "fleet_read"), 1)

    def test_host_difference_is_reported_not_failed(self) -> None:
        self.assertEqual(self.run_main(run_set(), run_set(setup_s=9.0)), 0)

    def test_incorrect_new_run_fails(self) -> None:
        bad = run_set()
        bad["doc_churn"][1]["correct"] = False
        self.assertEqual(self.run_main(run_set(), bad), 1)

    def test_result_lines_compare_like_one_run_sets(self) -> None:
        log = "run.py: building\n" + json.dumps(result()) + "\n"
        self.assertEqual(self.run_main(log, result()), 0)
        self.assertEqual(self.run_main(log, result(sim_p50=1.0)), 1)
        # A lone result line is the workload named "result".
        self.assertEqual(self.run_main(log, result(sim_p50=1.0),
                                       "--expect-move", "result"), 0)

    def test_inputs_that_do_not_pair_are_errors(self) -> None:
        short = copy.deepcopy(run_set())
        short["doc_churn"].pop()
        self.assertEqual(self.run_main(run_set(), short), 2)
        self.assertEqual(self.run_main(run_set(), {"doc_churn": [result()]}),
                         2)
        self.assertEqual(self.run_main(run_set(), "not json"), 2)
        self.assertEqual(
            self.run_main(run_set(), run_set(), "--expect-move", "nope"), 2)

    def test_committed_baseline_holds_one_run_per_workload(self) -> None:
        # CI diffs its seed-1 results against this file.
        root = pathlib.Path(__file__).resolve().parent.parent
        spec = json.loads((root / "BENCHMARK.json").read_text())
        baseline = bd.load(str(root / "scripts" / "perfbench_baseline.json"))
        self.assertEqual(set(baseline),
                         {w["name"] for w in spec["workloads"]})
        for runs in baseline.values():
            self.assertEqual(len(runs), 1)
            self.assertIs(runs[0]["correct"], True)
            self.assertEqual(runs[0]["failed"], 0)


if __name__ == "__main__":
    unittest.main()
