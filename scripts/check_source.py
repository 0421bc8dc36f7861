#!/usr/bin/env python3
"""Project-specific source lints the compiler cannot enforce.

Eight checks over src/ (and tests/, bench/, examples/ where noted),
each pinning a repo-wide contract that used to live only in review
comments:

  determinism          The simulator is deterministic by construction:
                       one seeded Rng (common/rng.h), virtual time from
                       the EventLoop. rand()/srand(), std::random_device
                       and wall-clock reads (system_clock, steady_clock,
                       time(), gettimeofday) would leak real-world state
                       into observable output, so they are banned in
                       src/, tests/, bench/ and examples/.

  unordered-iteration  Iterating an unordered container feeds hash-order
                       into whatever the loop produces. Range-for over a
                       same-file unordered_map/set needs an explicit
                       ``// lint: unordered-iteration-ok`` suppression —
                       forcing the author to claim order-independence.

  header-hygiene       src/**.h guards must spell AXML_<PATH>_H_ (no
                       #pragma once anywhere): predictable, collision-
                       free, greppable.

  raw-new-delete       Ownership is smart-pointer-only. A ``new`` must
                       be wrapped by a smart-pointer constructor on the
                       same line (factories with private constructors);
                       ``delete`` expressions are banned. Intentionally
                       leaky process-wide singletons are allowlisted.

  size-estimate        In the layers that price or ship data (src/net,
                       src/replica, src/opt, src/algebra, src/peer,
                       src/scenario) a tree's size is its encoded wire
                       size and trees cross links as encoded payloads
                       (xml/wire.h). XML-text ``SerializedSize()`` call
                       sites and clones handed straight to a network
                       send reintroduce the priced != actual drift the
                       wire format exists to kill. (src/xml keeps
                       SerializedSize for sharding's grouping
                       heuristics, where shard-boundary stability is
                       the point.)

  injected-rng         Fault-injection sources (src/**/fault_injector*)
                       draw randomness ONLY through the injected
                       ``Rng*`` — never by constructing a value-type
                       Rng, re-seeding one, or reaching for a std::
                       engine. A private randomness source would break
                       the contract that one sim seed replays every
                       fault verdict identically (and that an idle
                       injector is byte-identical to no injector).

  replica-encode       Replica content is encoded once: SplitDocument
                       encodes every shard and manifest at the origin,
                       and a landing stores the bytes that crossed the
                       wire. So src/replica/ calls neither
                       ``wire::EncodeTree`` nor ``wire::EncodedTreeSize``
                       — a call there re-encodes content whose bytes
                       already exist. The one call that encodes an
                       unsharded whole document for shipment carries
                       the waiver.

  no-threads           One simulation per thread, one thread per
                       process: nothing in src/, tests/, bench/ or
                       examples/ starts a thread or takes a lock, so
                       the simulator needs no thread-safety machinery.
                       std::thread, std::jthread, std::async,
                       pthread_create, std::mutex, std::shared_mutex and
                       std::condition_variable are banned there.
                       std::atomic (the log level) and
                       std::this_thread::sleep_for stay legal.

Suppressions: append ``// lint: allow-<check>`` (e.g. ``// lint:
allow-determinism``) to the flagged line or the line above. Use rarely;
the comment is the audit trail.

Exit 0 when clean; exit 1 with one ``path:line: [check] message`` per
finding. Run from anywhere — paths resolve against the repo root. The
linter's own tests (check_source_test.py) run every check against
negative fixtures in scripts/lint_fixtures/, so a check that stops
firing fails CI.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Iterable, Iterator, NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# raw-new-delete: intentionally leaky process-wide singletons (never
# destroyed, so no destruction-order fiasco at exit).
NEW_DELETE_EXEMPT = {"src/xml/label_interner.cc"}


class Finding(NamedTuple):
    path: pathlib.Path
    line: int
    check: str
    message: str

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO_ROOT)
        return f"{rel}:{self.line}: [{self.check}] {self.message}"


class SourceFile(NamedTuple):
    path: pathlib.Path
    raw: list[str]
    code: list[str]  # comments and string literals blanked, line-aligned


_STRING_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)*\'')


def strip_comments(text: str) -> str:
    """Blanks comments and string/char literals, preserving line breaks."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            end = text.find("\n", i)
            i = n if end == -1 else end
        elif ch == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            out.append(" " * (end - i - text.count("\n", i, end)))
            out.extend("\n" * text.count("\n", i, end))
            i = end
        elif ch in "\"'":
            m = _STRING_RE.match(text, i)
            if m:
                out.append(" " * (m.end() - m.start()))
                i = m.end()
            else:
                out.append(ch)
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def load(path: pathlib.Path) -> SourceFile:
    text = path.read_text()
    raw = text.splitlines()
    code = strip_comments(text).splitlines()
    # strip_comments reorders the blanks of a block comment; only line
    # count parity matters, and it is preserved.
    while len(code) < len(raw):
        code.append("")
    return SourceFile(path, raw, code)


def suppressed(sf: SourceFile, line: int, check: str) -> bool:
    """True when line (1-based) or the one above carries the waiver."""
    marker = f"lint: allow-{check}"
    for lineno in (line, line - 1):
        if 1 <= lineno <= len(sf.raw) and marker in sf.raw[lineno - 1]:
            return True
    return False


def cxx_files(dirs: Iterable[str]) -> Iterator[pathlib.Path]:
    for d in dirs:
        root = REPO_ROOT / d
        if not root.is_dir():
            continue
        for ext in ("*.h", "*.cc", "*.cpp"):
            yield from sorted(root.rglob(ext))


# --- determinism ---

_NONDET_RES = [
    (re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\b(?:system|steady|high_resolution)_clock\b"), "wall clock"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0|&)"), "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
]


def check_determinism(sf: SourceFile) -> Iterator[Finding]:
    """No ambient randomness or wall-clock reads: one Rng, virtual time."""
    for i, line in enumerate(sf.code, 1):
        for pattern, what in _NONDET_RES:
            if pattern.search(line) and not suppressed(sf, i, "determinism"):
                yield Finding(
                    sf.path,
                    i,
                    "determinism",
                    f"{what} leaks nondeterminism into a deterministic "
                    "simulation — use common/rng.h / EventLoop::now()",
                )


# --- unordered-iteration ---

_UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+(\w+)"
)
_RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*\*?(\w+)\s*\)")


def check_unordered_iteration(sf: SourceFile) -> Iterator[Finding]:
    """Range-for over an unordered container needs an explicit waiver."""
    text = "\n".join(sf.code)
    unordered_names = set(_UNORDERED_DECL_RE.findall(text))
    if not unordered_names:
        return
    for i, line in enumerate(sf.code, 1):
        m = _RANGE_FOR_RE.search(line)
        if (
            m
            and m.group(1) in unordered_names
            and not suppressed(sf, i, "unordered-iteration")
        ):
            yield Finding(
                sf.path,
                i,
                "unordered-iteration",
                f"range-for over unordered container '{m.group(1)}' feeds "
                "hash-order into the output — iterate a sorted view, or "
                "waive with '// lint: allow-unordered-iteration' if the "
                "loop is order-independent",
            )


# --- header-hygiene ---


def expected_guard(path: pathlib.Path) -> str:
    rel = path.relative_to(REPO_ROOT / "src")
    token = re.sub(r"[^A-Za-z0-9]", "_", str(rel)).upper()
    return f"AXML_{token}_"


def check_header_hygiene(sf: SourceFile) -> Iterator[Finding]:
    """src headers carry the canonical AXML_<PATH>_H_ include guard."""
    for i, line in enumerate(sf.code, 1):
        if "#pragma once" in line:
            yield Finding(
                sf.path, i, "header-hygiene",
                "#pragma once — use the AXML_<PATH>_H_ guard",
            )
    if sf.path.suffix != ".h":
        return
    want = expected_guard(sf.path)
    guard_lines = [
        (i, line)
        for i, line in enumerate(sf.code, 1)
        if line.startswith("#ifndef")
    ]
    if not guard_lines:
        yield Finding(sf.path, 1, "header-hygiene", f"missing include guard {want}")
        return
    lineno, first = guard_lines[0]
    got = first.split()[1] if len(first.split()) > 1 else ""
    if got != want:
        yield Finding(
            sf.path, lineno, "header-hygiene",
            f"include guard is {got or '(empty)'}, expected {want}",
        )


# --- raw-new-delete ---

_NEW_RE = re.compile(r"\bnew\b(?!\s*\()")
# `TreePtr(new ...)`, `std::unique_ptr<T>(new ...)`, and the named-
# variable form `static SchemaTypePtr t(new ...)` all count as wrapped.
_WRAPPED_NEW_RE = re.compile(
    r"(?:Ptr|_ptr\s*<[^<>;]*(?:<[^<>]*>)?[^<>;]*>)(?:\s+\w+)?\s*\(\s*new\b"
)
_DELETE_EXPR_RE = re.compile(r"\bdelete\b\s*(?:\[\s*\]\s*)?[\w(*:]")


def check_raw_new_delete(sf: SourceFile) -> Iterator[Finding]:
    """Smart-pointer-only ownership outside the allowlisted singletons."""
    rel = str(sf.path.relative_to(REPO_ROOT))
    if rel in NEW_DELETE_EXEMPT:
        return
    for i, line in enumerate(sf.code, 1):
        if suppressed(sf, i, "raw-new-delete"):
            continue
        for new_at in (m.start() for m in _NEW_RE.finditer(line)):
            wrapped = any(
                w.start() < new_at < w.end()
                for w in _WRAPPED_NEW_RE.finditer(line)
            )
            if not wrapped:
                yield Finding(
                    sf.path, i, "raw-new-delete",
                    "raw 'new' outside a same-line smart-pointer wrapper — "
                    "use std::make_unique/make_shared (or wrap the new in "
                    "the owning pointer's constructor on this line)",
                )
        if _DELETE_EXPR_RE.search(line):
            yield Finding(
                sf.path, i, "raw-new-delete",
                "'delete' expression — ownership is smart-pointer-only",
            )


# --- size-estimate ---

# The layers where every byte count is (or prices) a transfer. src/xml
# is exempt: sharding's grouping heuristics measure XML text size on
# purpose (stable shard boundaries), and wire.cc is the encoder itself.
SIZE_ESTIMATE_DIRS = (
    "src/net",
    "src/replica",
    "src/opt",
    "src/algebra",
    "src/peer",
    "src/scenario",
)

_SIZE_ESTIMATE_RE = re.compile(r"(?:\.|->)\s*SerializedSize\s*\(")
_CLONE_SHIP_RE = re.compile(r"\bSend(?:Reliable|Notify)?\s*\(.*\bClone\s*\(")


def check_size_estimate(sf: SourceFile) -> Iterator[Finding]:
    """Priced layers read encoded sizes and ship encoded payloads."""
    for i, line in enumerate(sf.code, 1):
        if suppressed(sf, i, "size-estimate"):
            continue
        if _SIZE_ESTIMATE_RE.search(line):
            yield Finding(
                sf.path,
                i,
                "size-estimate",
                "XML-text SerializedSize() in a priced layer — the wire "
                "size is wire::EncodedTreeSize / wire::EncodedTextSize "
                "(xml/wire.h); a parallel size estimate drifts from the "
                "bytes the network actually charges",
            )
        if _CLONE_SHIP_RE.search(line):
            yield Finding(
                sf.path,
                i,
                "size-estimate",
                "tree clone handed to a network send — trees cross links "
                "as encoded wire::Payload bytes, decoded at arrival "
                "(xml/wire.h); shipping an in-process clone bypasses the "
                "priced-size == encoded-size contract",
            )


# --- replica-encode ---

REPLICA_ENCODE_DIR = "src/replica"

_REPLICA_ENCODE_RE = re.compile(
    r"\b(?:wire::)?(?:EncodeTree|EncodedTreeSize)\s*\("
)


def check_replica_encode(sf: SourceFile) -> Iterator[Finding]:
    """The replica layer forwards stored bytes; it does not encode."""
    for i, line in enumerate(sf.code, 1):
        if _REPLICA_ENCODE_RE.search(line) and not suppressed(
            sf, i, "replica-encode"
        ):
            yield Finding(
                sf.path,
                i,
                "replica-encode",
                "tree encode in the replica layer — shard and manifest "
                "bytes are encoded once by SplitDocument, and landings "
                "store the bytes they received; splice or store those "
                "instead of re-encoding",
            )


# --- injected-rng ---

# A value-type `Rng name...` declaration (pointer `Rng*` and reference
# `Rng&` shapes deliberately do not match: borrowing is the contract).
_VALUE_RNG_RE = re.compile(r"\bRng\s+\w+\s*(?:[;({=]|$)")
_INJECTED_RNG_RES = [
    (_VALUE_RNG_RE, "value-type Rng construction"),
    (re.compile(r"(?:\.|->)\s*Seed\s*\("), "re-seeding an Rng"),
    (
        re.compile(
            r"\b(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
            r"|ranlux\w*|knuth_b)\b"
        ),
        "std:: random engine",
    ),
]


def check_injected_rng(sf: SourceFile) -> Iterator[Finding]:
    """Fault-injection code owns no randomness: it borrows one Rng*."""
    for i, line in enumerate(sf.code, 1):
        for pattern, what in _INJECTED_RNG_RES:
            if pattern.search(line) and not suppressed(sf, i, "injected-rng"):
                yield Finding(
                    sf.path,
                    i,
                    "injected-rng",
                    f"{what} inside fault-injection code — the injector "
                    "must draw only from the Rng* handed to its "
                    "constructor, or seed replay and the idle==off "
                    "byte-identity guarantee break",
                )


# --- no-threads ---

_THREAD_RES = [
    (re.compile(r"\bstd\s*::\s*j?thread\b"), "std::thread"),
    (re.compile(r"\bstd\s*::\s*async\b"), "std::async"),
    (re.compile(r"\bpthread_create\s*\("), "pthread_create()"),
    (re.compile(r"\bstd\s*::\s*(?:shared_)?mutex\b"), "std::mutex"),
    (re.compile(r"\bstd\s*::\s*condition_variable\b"),
     "std::condition_variable"),
]


def check_no_threads(sf: SourceFile) -> Iterator[Finding]:
    """One thread per process: no thread starts, no locks."""
    for i, line in enumerate(sf.code, 1):
        for pattern, what in _THREAD_RES:
            if pattern.search(line) and not suppressed(sf, i, "no-threads"):
                yield Finding(
                    sf.path,
                    i,
                    "no-threads",
                    f"{what} in a one-thread simulator — a System runs "
                    "on one thread and nothing here is shared across "
                    "threads; run two simulations as two processes",
                )


def run_checks() -> list[Finding]:
    findings: list[Finding] = []
    for path in cxx_files(["src", "tests", "bench", "examples"]):
        sf = load(path)
        rel_parts = path.relative_to(REPO_ROOT).parts
        top = rel_parts[0]
        if top == "src":
            findings.extend(check_header_hygiene(sf))
        if top == "src" and "fault_injector" in path.name:
            findings.extend(check_injected_rng(sf))
        rel_posix = "/".join(rel_parts)
        if rel_posix.startswith(tuple(d + "/" for d in SIZE_ESTIMATE_DIRS)):
            findings.extend(check_size_estimate(sf))
        if rel_posix.startswith(REPLICA_ENCODE_DIR + "/"):
            findings.extend(check_replica_encode(sf))
        findings.extend(check_determinism(sf))
        findings.extend(check_no_threads(sf))
        findings.extend(check_unordered_iteration(sf))
        findings.extend(check_raw_new_delete(sf))
    return findings


def main() -> int:
    findings = run_checks()
    for finding in findings:
        print(finding)
    if findings:
        print(f"check_source: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
