#!/usr/bin/env python3
"""Self-test for check_bench_json.py --trace: a valid export passes, and
an export that lacks a causal chain or one instrumented layer's spans
(net, replica, eval) fails.

Runs under the stdlib unittest runner:
    python3 scripts/check_bench_json_test.py
and as the `check_bench_json_selftest` ctest case.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import unittest
from typing import Any

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_bench_json as cbj  # noqa: E402  (path bootstrap above)


def span(cat: str, name: str, tid: int) -> dict[str, Any]:
    return {"name": name, "cat": cat, "ph": "X", "ts": 0.0, "dur": 1.0,
            "pid": 0, "tid": tid, "args": {"bytes": 0, "seq": 0}}


def export(*spans: dict[str, Any]) -> dict[str, Any]:
    return {"traceEvents": list(spans)}


VALID = export(span("replica", "mutation", 1), span("net", "notify", 1),
               span("eval", "fetch", 2))


class CheckTraceTest(unittest.TestCase):
    def check(self, doc: dict[str, Any]) -> list[str]:
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.json"
            path.write_text(json.dumps(doc))
            return cbj.check_trace(path)

    def test_valid_export_passes(self) -> None:
        self.assertEqual(self.check(VALID), [])

    def test_export_without_eval_spans_fails(self) -> None:
        errors = self.check(export(*[s for s in VALID["traceEvents"]
                                     if s["cat"] != "eval"]))
        self.assertEqual(len(errors), 1)
        self.assertIn("no span with cat 'eval'", errors[0])

    def test_export_without_a_shared_trace_id_fails(self) -> None:
        errors = self.check(export(span("replica", "mutation", 1),
                                   span("net", "notify", 2),
                                   span("eval", "fetch", 3)))
        self.assertEqual(len(errors), 1)
        self.assertIn("causal", errors[0])


if __name__ == "__main__":
    unittest.main()
