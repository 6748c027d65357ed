#!/usr/bin/env python3
"""sdlbench_lint: machine-checks the determinism & artifact invariants.

The repo's contract — same spec => byte-identical campaign.json, seed-
paired runs reproduce — rests on a handful of source-level invariants
that used to live only in reviewers' heads. This linter turns them into
gates (docs/INVARIANTS.md catalogues the why behind each rule):

  libc-rand            no std::rand/srand: all randomness flows from
                       seeded support/random.hpp streams
  wall-clock           no system_clock/time()/localtime in scanned code:
                       wall-clock values in results break reproducibility
  steady-clock         steady_clock only at allowlisted telemetry sites
                       (suppressed-with-reason in runner.cpp/fleet.cpp);
                       bench/ is exempt — measuring time is its purpose
  unordered-iteration  no unordered containers in serializer TUs, where
                       iteration order would leak into artifact bytes
  printf-float         floats become text via support::fmt_roundtrip
                       (shortest round trip); printf %f/%g/%e is display-
                       only and must carry a suppression saying so
  raw-artifact-write   artifact writes go through support::atomic_io
                       (atomic_write / AppendWriter), never raw
                       ofstream/fopen, so readers never see torn files
  fp-contract          the root CMakeLists keeps -ffp-contract=off and no
                       build file smuggles in -ffast-math/=fast, which
                       would break cross-TU bitwise identities
  failpoint-catalog    every failpoint site named in src/ or tools/
                       (support/failpoint.hpp call sites and schedule
                       strings) appears in docs/ROBUSTNESS.md's site
                       catalog, so injectable faults stay discoverable

Suppression grammar (trailing on the offending line, or standalone on
the line directly above it; `#` instead of `//` in CMake files):

    // sdlbench-lint: allow(<rule>[,<rule>...]): <reason>

The reason is mandatory; an unknown rule id or a suppression that
matches nothing fails the run loudly (exit 2), so allowances cannot rot.

Usage:  tools/sdlbench_lint.py [--root DIR] [--list-rules] [-q]
Exit:   0 clean, 1 findings, 2 bad suppressions / usage errors.
Stdlib only; no third-party dependencies.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import re
import sys

CXX_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")
SCAN_DIRS = ("src", "tools", "tests", "bench")

# TUs whose job is producing artifact/report bytes: iteration order of an
# unordered container here would leak straight into the output.
SERIALIZER_GLOBS = (
    "src/support/json.*",
    "src/support/yaml.*",
    "src/support/csv.*",
    "src/campaign/report.*",
    "src/campaign/checkpoint.*",
    "src/campaign/campaign_io.*",
    "src/core/config_io.*",
    "src/data/*",
)

SUPPRESS_RE = re.compile(
    r"(?://|#)\s*sdlbench-lint:\s*allow\(([^)]*)\)\s*:?\s*(.*)$"
)


class Rule:
    def __init__(self, rule_id, pattern, dirs, message, file_globs=None,
                 exclude_globs=None):
        self.id = rule_id
        self.pattern = re.compile(pattern)
        self.dirs = dirs
        self.message = message
        self.file_globs = file_globs          # None = every file in scope
        self.exclude_globs = exclude_globs or ()

    def applies_to(self, rel):
        top = rel.split("/", 1)[0]
        if top not in self.dirs:
            return False
        if any(fnmatch.fnmatch(rel, g) for g in self.exclude_globs):
            return False
        if self.file_globs is not None:
            return any(fnmatch.fnmatch(rel, g) for g in self.file_globs)
        return True


RULES = {
    "libc-rand": Rule(
        "libc-rand",
        r"\bstd::rand\b|\bsrand\s*\(|(?<![\w:.>])rand\s*\(",
        SCAN_DIRS,
        "libc rand is unseeded global state; draw from support/random.hpp "
        "seeded streams so runs reproduce",
    ),
    "wall-clock": Rule(
        "wall-clock",
        r"system_clock|\bstd::time\s*\(|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
        r"|\blocaltime\b|\bgmtime\b|\bstrftime\b|\bctime\b|\bclock\s*\(\s*\)",
        SCAN_DIRS,
        "wall-clock reads leak the run date into results and break "
        "byte-identity; use modeled time (wei::Transport::now)",
    ),
    "steady-clock": Rule(
        "steady-clock",
        r"\bsteady_clock\b|\bhigh_resolution_clock\b",
        ("src", "tools", "tests"),
        "monotonic wall time is allowlisted telemetry only (journal "
        "wall_seconds, fleet heartbeats); suppress with a reason or use "
        "modeled time",
    ),
    "unordered-iteration": Rule(
        "unordered-iteration",
        r"\bstd::unordered_(?:map|set|multimap|multiset)\b",
        ("src",),
        "unordered containers in a serializer TU make artifact bytes "
        "depend on hash order; use std::map or a sorted vector",
        file_globs=SERIALIZER_GLOBS,
    ),
    "printf-float": Rule(
        "printf-float",
        r"%[-+ #0]*(?:\d+|\*)?(?:\.(?:\d+|\*))?[aefgAEFG]",
        ("src", "tools"),
        "float formatting outside support::fmt_roundtrip does not round-"
        "trip (CSV/JSON must agree byte-for-byte); printf floats are for "
        "human display only — suppress with a reason at display sites",
    ),
    "raw-artifact-write": Rule(
        "raw-artifact-write",
        r"\bstd::ofstream\b|\bofstream\s+\w|\bstd::fopen\b|(?<![\w:])fopen\s*\(",
        ("src", "tools", "bench"),
        "artifact writes bypassing support::atomic_io can be seen torn "
        "by readers/resumed runs; use atomic_write or AppendWriter",
    ),
}

FP_CONTRACT_RULE = "fp-contract"
FAILPOINT_RULE = "failpoint-catalog"
ALL_RULE_IDS = tuple(RULES) + (FP_CONTRACT_RULE, FAILPOINT_RULE)
SPECIAL_RULE_MESSAGES = {
    FP_CONTRACT_RULE: "build files keep -ffp-contract=off and no "
                      "fast-math flags",
    FAILPOINT_RULE: "failpoint sites named in src/ and tools/ appear in "
                    "docs/ROBUSTNESS.md's site catalog",
}
# Fast-math and the members of it that change computed values. The
# -fno- forms of these are safe, and so is -fno-trapping-math: it only
# drops the assumption that FP operations may trap.
FP_BAD_FLAGS = re.compile(r"-ffast-math|-ffp-contract=fast|-funsafe-math"
                          r"-optimizations|-Ofast\b|-fassociative-math"
                          r"|-freciprocal-math|-ffinite-math-only"
                          r"|-fno-signed-zeros")
FP_GUARD = "-ffp-contract=off"

# Failpoint sites surface in C++ two ways: as the string argument of a
# failpoint call (evaluate/maybe_fail, plus atomic_io's forwarding
# lambda), and inside schedule strings ("site=kill@..."). Site names are
# dotted lower-case; the dot keeps ordinary words out.
FAILPOINT_SITE_DIRS = ("src", "tools")
FAILPOINT_CATALOG_DOC = "docs/ROBUSTNESS.md"
FAILPOINT_CALL_RE = re.compile(
    r'(?:evaluate|maybe_fail|fail_and_discard_tmp)\s*\(\s*'
    r'"([a-z0-9_]+\.[a-z0-9_.]+)"')
FAILPOINT_SPEC_RE = re.compile(
    r'"([a-z0-9_]+(?:\.[a-z0-9_]+)+)=(?:err|kill|delay)')


def load_failpoint_catalog(root):
    """Backtick-quoted dotted site names in the robustness doc, or None
    when the doc is missing entirely."""
    path = os.path.join(root, FAILPOINT_CATALOG_DOC)
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError:
        return None
    return set(re.findall(r"`([a-z0-9_]+\.[a-z0-9_.]+)`", text))


def strip_comments(text):
    """Returns the text with //, /* */ comments blanked (strings kept).

    Line count and column positions are preserved so findings point at
    the real source location. Handles escapes and R"delim(...)delim" raw
    strings; a '#' CMake comment is handled by the CMake scanner, not
    here.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '/' and i + 1 < n and text[i + 1] == '/':
            while i < n and text[i] != '\n':
                i += 1
        elif c == '/' and i + 1 < n and text[i + 1] == '*':
            i += 2
            while i < n and not (text[i] == '*' and i + 1 < n and
                                 text[i + 1] == '/'):
                if text[i] == '\n':
                    out.append('\n')
                i += 1
            i += 2 if i < n else 0
        elif c == 'R' and i + 1 < n and text[i + 1] == '"':
            j = text.find('(', i + 2)
            if j < 0:
                out.append(c)
                i += 1
                continue
            delim = text[i + 2:j]
            end = text.find(')' + delim + '"', j + 1)
            end = n if end < 0 else end + len(delim) + 2
            out.append(text[i:end])
            i = end
        elif c in '"\'':
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == '\\' and i + 1 < n:
                    out.append(text[i:i + 2])
                    i += 2
                else:
                    out.append(text[i])
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Suppression:
    def __init__(self, rel, line_no, rules, reason):
        self.rel = rel
        self.line_no = line_no      # line the suppression *covers*
        self.rules = rules
        self.reason = reason
        self.used = False


def collect_suppressions(rel, raw_lines, errors):
    """Maps covered-line-number -> [Suppression]; validates the grammar."""
    covered = {}
    pending = []  # standalone suppressions waiting for the next code line
    for idx, raw in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(raw)
        if m:
            rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
            reason = m.group(2).strip()
            bad = [r for r in rules if r not in ALL_RULE_IDS]
            if bad:
                errors.append(
                    f"{rel}:{idx}: unknown rule(s) in suppression: "
                    f"{', '.join(bad)} (known: {', '.join(ALL_RULE_IDS)})")
                continue
            if not rules:
                errors.append(f"{rel}:{idx}: suppression names no rule")
                continue
            if not reason:
                errors.append(
                    f"{rel}:{idx}: suppression for {', '.join(rules)} "
                    f"carries no reason — say why the allowance is safe")
                continue
            before = raw[:m.start()].strip()
            if before:                      # trailing: covers its own line
                sup = Suppression(rel, idx, rules, reason)
                covered.setdefault(idx, []).append(sup)
            else:                           # standalone: covers next code line
                pending.append(Suppression(rel, idx, rules, reason))
        elif raw.strip() and pending:
            for sup in pending:
                sup.line_no = idx
                covered.setdefault(idx, []).append(sup)
            pending = []
    for sup in pending:
        errors.append(f"{rel}:{sup.line_no}: standalone suppression covers "
                      f"no following line")
    return covered


def scan_cxx_file(root, rel, findings, errors, suppressions_out,
                  failpoint_catalog=None):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        errors.append(f"{rel}: unreadable ({exc})")
        return
    raw_lines = text.splitlines()
    code_text = strip_comments(text)
    code_lines = code_text.splitlines()
    covered = collect_suppressions(rel, raw_lines, errors)
    for sups in covered.values():
        suppressions_out.extend(sups)

    rules = [r for r in RULES.values() if r.applies_to(rel)]
    for idx, code in enumerate(code_lines, start=1):
        for rule in rules:
            if not rule.pattern.search(code):
                continue
            sups = [s for s in covered.get(idx, []) if rule.id in s.rules]
            if sups:
                for s in sups:
                    s.used = True
                continue
            findings.append((rel, idx, rule.id, rule.message))

    # failpoint-catalog: dotted site names at failpoint call sites and in
    # schedule strings must be documented. Matched against the whole
    # (comment-stripped) text because call arguments wrap across lines.
    if rel.split("/", 1)[0] not in FAILPOINT_SITE_DIRS:
        return
    for pattern in (FAILPOINT_CALL_RE, FAILPOINT_SPEC_RE):
        for m in pattern.finditer(code_text):
            site = m.group(1)
            idx = code_text.count("\n", 0, m.start(1)) + 1
            sups = [s for s in covered.get(idx, [])
                    if FAILPOINT_RULE in s.rules]
            if sups:
                for s in sups:
                    s.used = True
                continue
            if failpoint_catalog is None:
                findings.append((
                    rel, idx, FAILPOINT_RULE,
                    f"failpoint site '{site}' is referenced but "
                    f"{FAILPOINT_CATALOG_DOC} does not exist — the site "
                    f"catalog is the discoverability contract"))
            elif site not in failpoint_catalog:
                findings.append((
                    rel, idx, FAILPOINT_RULE,
                    f"failpoint site '{site}' is missing from "
                    f"{FAILPOINT_CATALOG_DOC}'s site catalog — document "
                    f"it (name, layer, what the injected fault models)"))


def scan_build_files(root, findings, errors, suppressions_out):
    """The fp-contract rule: scans CMake build files, not C++."""
    build_files = ["CMakeLists.txt", "CMakePresets.json"]
    for top in SCAN_DIRS + ("cmake", "examples"):
        top_dir = os.path.join(root, top)
        for dirpath, _dirnames, filenames in os.walk(top_dir):
            for name in filenames:
                if name == "CMakeLists.txt" or name.endswith(".cmake"):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    build_files.append(rel.replace(os.sep, "/"))

    guard_seen = False
    for rel in build_files:
        path = os.path.join(root, rel)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8", errors="replace") as fh:
            raw_lines = fh.read().splitlines()
        covered = collect_suppressions(rel, raw_lines, errors)
        for sups in covered.values():
            suppressions_out.extend(sups)
        for idx, raw in enumerate(raw_lines, start=1):
            code = raw.split("#", 1)[0]
            if FP_GUARD in code:
                guard_seen = True
            if FP_BAD_FLAGS.search(code):
                sups = [s for s in covered.get(idx, [])
                        if FP_CONTRACT_RULE in s.rules]
                if sups:
                    for s in sups:
                        s.used = True
                    continue
                findings.append((
                    rel, idx, FP_CONTRACT_RULE,
                    "fast-math/contracted-FMA flags break the cross-TU "
                    "bitwise identity contracts (batched == sequential)"))
    if not guard_seen:
        findings.append((
            "CMakeLists.txt", 0, FP_CONTRACT_RULE,
            f"root build must keep '{FP_GUARD}': FMA contraction is a "
            f"per-callsite compiler choice that breaks bitwise identities"))


def iter_source_files(root):
    for top in SCAN_DIRS:
        top_dir = os.path.join(root, top)
        if not os.path.isdir(top_dir):
            continue
        for dirpath, dirnames, filenames in os.walk(top_dir):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                yield rel.replace(os.sep, "/")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sdlbench_lint",
        description="determinism & artifact-discipline linter (see "
                    "docs/INVARIANTS.md)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: the parent of tools/)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="findings only, no summary line")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in ALL_RULE_IDS:
            message = (RULES[rule_id].message if rule_id in RULES else
                       SPECIAL_RULE_MESSAGES[rule_id])
            print(f"{rule_id}: {message}")
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(root):
        print(f"sdlbench_lint: no such root: {root}", file=sys.stderr)
        return 2

    findings, errors, suppressions = [], [], []
    failpoint_catalog = load_failpoint_catalog(root)
    for rel in iter_source_files(root):
        scan_cxx_file(root, rel, findings, errors, suppressions,
                      failpoint_catalog)
    scan_build_files(root, findings, errors, suppressions)

    for sup in suppressions:
        if not sup.used:
            errors.append(
                f"{sup.rel}:{sup.line_no}: suppression for "
                f"{', '.join(sup.rules)} matches no finding — stale "
                f"allowances must be removed")

    for rel, line_no, rule_id, message in sorted(findings):
        print(f"{rel}:{line_no}: [{rule_id}] {message}")
    for err in errors:
        print(f"error: {err}", file=sys.stderr)

    if not args.quiet:
        used = sum(1 for s in suppressions if s.used)
        print(f"sdlbench_lint: {len(findings)} finding(s), {used} "
              f"suppression(s) honored", file=sys.stderr)
    if errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
