#!/usr/bin/env python3
"""Self-test for check_source.py: every lint must flag its negative
fixture and accept the clean one.

This is what makes the lint gate load-bearing: a regression that stops
a check from firing fails here, not silently in review. Fixtures live
in scripts/lint_fixtures/; each encodes both the violation the check
exists for and the nearby shapes it must NOT flag (waivers, wrapped
news, deleted special members, ordered containers).

Runs under the stdlib unittest runner (no third-party test deps):
    python3 scripts/check_source_test.py
and as the `check_source_selftest` ctest case.
"""

from __future__ import annotations

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_source as cs  # noqa: E402  (path bootstrap above)

FIXTURES = pathlib.Path(__file__).resolve().parent / "lint_fixtures"


def fixture(name: str, pose_as: str | None = None) -> cs.SourceFile:
    """Loads a fixture, optionally posing as `pose_as` relative to src/
    (header-guard expectations derive from the posed path)."""
    sf = cs.load(FIXTURES / name)
    if pose_as is not None:
        return cs.SourceFile(cs.REPO_ROOT / "src" / pose_as, sf.raw, sf.code)
    return sf


def flagged_lines(findings: list[cs.Finding], check: str) -> list[int]:
    return sorted(f.line for f in findings if f.check == check)


def marked_lines(sf: cs.SourceFile, marker: str = "MUST be flagged") -> list[int]:
    return sorted(i for i, line in enumerate(sf.raw, 1) if marker in line)


class DeterminismTest(unittest.TestCase):
    def test_flags_each_marked_line_and_honors_waiver(self) -> None:
        sf = fixture("bad_determinism.cc")
        findings = list(cs.check_determinism(sf))
        self.assertEqual(flagged_lines(findings, "determinism"), marked_lines(sf))


class UnorderedIterationTest(unittest.TestCase):
    def test_flags_bare_loop_not_waived_or_ordered(self) -> None:
        sf = fixture("bad_unordered_iteration.cc")
        findings = list(cs.check_unordered_iteration(sf))
        self.assertEqual(
            flagged_lines(findings, "unordered-iteration"), marked_lines(sf)
        )


class HeaderHygieneTest(unittest.TestCase):
    def test_flags_wrong_guard_name(self) -> None:
        sf = fixture("bad_header_guard.h", pose_as="bad_header_guard.h")
        findings = list(cs.check_header_hygiene(sf))
        self.assertEqual(len(findings), 1, findings)
        self.assertIn("AXML_BAD_HEADER_GUARD_H_", findings[0].message)

    def test_flags_pragma_once(self) -> None:
        sf = fixture("bad_pragma_once.h", pose_as="bad_pragma_once.h")
        findings = list(cs.check_header_hygiene(sf))
        self.assertTrue(any("#pragma once" in f.message for f in findings))

    def test_expected_guard_spelling(self) -> None:
        path = cs.REPO_ROOT / "src" / "replica" / "transfer_cache.h"
        self.assertEqual(
            cs.expected_guard(path), "AXML_REPLICA_TRANSFER_CACHE_H_"
        )


class RawNewDeleteTest(unittest.TestCase):
    def test_flags_bare_new_and_delete_only(self) -> None:
        sf = fixture("bad_raw_new.cc")
        findings = list(cs.check_raw_new_delete(sf))
        self.assertEqual(flagged_lines(findings, "raw-new-delete"), marked_lines(sf))

    def test_flags_new_handed_to_shared_ownership(self) -> None:
        sf = fixture("bad_shared_new.cc")
        findings = list(cs.check_raw_new_delete(sf))
        self.assertEqual(flagged_lines(findings, "raw-new-delete"), marked_lines(sf))

    def test_exempt_file_is_skipped(self) -> None:
        sf = fixture("bad_raw_new.cc")
        posed = cs.SourceFile(
            cs.REPO_ROOT / "src" / "xml" / "label_interner.cc", sf.raw, sf.code
        )
        self.assertEqual(list(cs.check_raw_new_delete(posed)), [])


class SizeEstimateTest(unittest.TestCase):
    def test_flags_estimates_and_clone_ships_not_sanctioned_forms(self) -> None:
        sf = fixture(
            "bad_size_estimate.cc", pose_as="replica/bad_size_estimate.cc"
        )
        findings = list(cs.check_size_estimate(sf))
        self.assertEqual(flagged_lines(findings, "size-estimate"), marked_lines(sf))

    def test_priced_layers_are_gated_in_run_checks(self) -> None:
        for d in cs.SIZE_ESTIMATE_DIRS:
            self.assertTrue((cs.REPO_ROOT / d).is_dir(), d)


class ReplicaEncodeTest(unittest.TestCase):
    def test_flags_encodes_not_decodes_or_waived_calls(self) -> None:
        sf = fixture(
            "bad_replica_encode.cc", pose_as="replica/bad_replica_encode.cc"
        )
        findings = list(cs.check_replica_encode(sf))
        self.assertEqual(
            flagged_lines(findings, "replica-encode"), marked_lines(sf)
        )

    def test_replica_layer_is_gated_in_run_checks(self) -> None:
        self.assertTrue((cs.REPO_ROOT / cs.REPLICA_ENCODE_DIR).is_dir())


class InjectedRngTest(unittest.TestCase):
    def test_flags_private_entropy_and_accepts_borrowed_pointer(self) -> None:
        sf = fixture(
            "bad_fault_injector_rng.cc", pose_as="net/fault_injector.cc"
        )
        findings = list(cs.check_injected_rng(sf))
        self.assertEqual(flagged_lines(findings, "injected-rng"), marked_lines(sf))

    def test_real_injector_only_borrows(self) -> None:
        for name in ("fault_injector.h", "fault_injector.cc"):
            sf = cs.load(cs.REPO_ROOT / "src" / "net" / name)
            self.assertEqual(list(cs.check_injected_rng(sf)), [], name)


class NoThreadsTest(unittest.TestCase):
    def test_flags_threads_and_locks_not_atomics_or_sleep(self) -> None:
        sf = fixture("bad_thread.cc")
        findings = list(cs.check_no_threads(sf))
        self.assertEqual(flagged_lines(findings, "no-threads"), marked_lines(sf))


class ProcessStateTest(unittest.TestCase):
    def test_flags_mutable_function_local_statics_only(self) -> None:
        sf = fixture("bad_process_state.cc")
        findings = list(cs.check_process_state(sf))
        self.assertEqual(flagged_lines(findings, "process-state"), marked_lines(sf))

    def test_flags_each_initializer_form(self) -> None:
        for line, flagged in [
            ("static SchemaTypePtr t(new SchemaType(Kind::kText, 0, {}));", True),
            ("static std::string s;", True),
            ("static int n = 0;", True),
            ("static int n{0};", True),
            ("static const SchemaTypePtr t(new SchemaType(Kind::kAny, 0, {}));", False),
            ("static int Make(int x) { return x; }", False),
            ("static auto Make() noexcept -> int {", False),
        ]:
            with self.subTest(line=line):
                self.assertEqual(bool(cs._STATIC_VAR_RE.search(line)), flagged)


class CleanFixtureTest(unittest.TestCase):
    def test_no_check_fires_on_clean_code(self) -> None:
        sf = fixture("clean.cc")
        findings = (
            list(cs.check_determinism(sf))
            + list(cs.check_unordered_iteration(sf))
            + list(cs.check_raw_new_delete(sf))
            + list(cs.check_no_threads(sf))
            + list(cs.check_process_state(sf))
        )
        self.assertEqual(findings, [])


class RealTreeTest(unittest.TestCase):
    def test_repository_is_lint_clean(self) -> None:
        findings = cs.run_checks()
        self.assertEqual(findings, [], "\n".join(str(f) for f in findings))


if __name__ == "__main__":
    unittest.main()
