#!/usr/bin/env python3
"""Compare a BENCH_hotpath.json run against a committed baseline.

Walks both documents, pairs numeric leaves by their JSON path, infers the
improvement direction from the metric name (``*_ns``/``*_seconds`` lower
is better; ``*_per_sec``/``speedup*`` higher is better; anything else is
informational only), and reports the relative regression of each paired
metric. Exits non-zero when any metric regresses by more than
``--tolerance`` percent, unless ``--warn-only`` is given.

Usage:
  tools/bench_compare.py --baseline bench/baselines/BENCH_hotpath.baseline.json \
      --current BENCH_hotpath.json [--tolerance 25] [--warn-only]

Stdlib only; no third-party dependencies.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def numeric_leaves(node, path=""):
    """Yields (path, value) for every numeric leaf; list items are keyed
    by a stable label (scenario / n+candidates) when present, falling
    back to the index. ``null`` leaves are yielded as ``None`` so the
    caller can reject a gated metric that lost its value instead of
    silently dropping it from the comparison."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            label = str(index)
            if isinstance(item, dict):
                if "scenario" in item:
                    label = str(item["scenario"])
                elif "n" in item and "candidates" in item:
                    label = f"n{item['n']}_c{item['candidates']}"
            yield from numeric_leaves(item, f"{path}[{label}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)
    elif node is None:
        yield path, None


def direction(path):
    """'lower' / 'higher' is better, or None for informational metrics."""
    leaf = path.rsplit(".", 1)[-1]
    if leaf.endswith(("_ns", "_seconds", "_s")) or "_ns_" in leaf:
        return "lower"
    if leaf.endswith("_per_sec") or leaf.startswith("speedup") or "_speedup" in leaf:
        return "higher"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument("--current", required=True, help="freshly produced JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=25.0,
        help="max tolerated regression in percent (default: 25)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0 (noisy runners)",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="SUBSTR",
        help=(
            "compare only metrics whose path contains SUBSTR (e.g. "
            "'speedup' to gate on hardware-portable ratios only)"
        ),
    )
    args = parser.parse_args(argv)

    with open(args.baseline, encoding="utf-8") as f:
        baseline = dict(numeric_leaves(json.load(f)))
    with open(args.current, encoding="utf-8") as f:
        current = dict(numeric_leaves(json.load(f)))

    def in_scope(path):
        if direction(path) is None:
            return False
        return args.only is None or args.only in path

    # A gated metric that is null, NaN, or infinite cannot be compared
    # — and every float comparison against NaN is False, so without this
    # check a NaN run would sail through the gate. Name each bad metric
    # and fail instead.
    invalid = []
    for doc_name, doc in (("baseline", baseline), ("current", current)):
        for path in sorted(doc):
            value = doc[path]
            if in_scope(path) and (value is None or not math.isfinite(value)):
                invalid.append((doc_name, path, value))
    bad_paths = {path for _, path, _ in invalid}

    regressions = []
    improvements = 0
    compared = 0
    for path, base_value in sorted(baseline.items()):
        sense = direction(path)
        if (not in_scope(path) or path in bad_paths or path not in current
                or base_value == 0):
            continue
        compared += 1
        cur_value = current[path]
        if sense == "lower":
            delta_pct = (cur_value - base_value) / base_value * 100.0
        else:
            delta_pct = (base_value - cur_value) / base_value * 100.0
        if delta_pct > args.tolerance:
            regressions.append((path, base_value, cur_value, delta_pct))
        elif delta_pct < 0:
            improvements += 1

    missing = sorted(p for p in baseline if in_scope(p) and p not in current)
    added = sorted(p for p in current if in_scope(p) and p not in baseline)

    print(
        f"bench_compare: {compared} metrics compared, "
        f"{improvements} improved, {len(regressions)} regressed "
        f"beyond {args.tolerance:.0f}%"
    )
    for doc_name, path, value in invalid:
        shown = "null" if value is None else repr(value)
        print(f"  INVALID {doc_name} value for {path}: {shown} "
              "(gated metrics must be finite numbers)")
    for path in missing:
        print(f"  warning: metric disappeared: {path}")
    for path in added:
        print(f"  note: new metric (no baseline): {path}")
    for path, base_value, cur_value, delta_pct in regressions:
        print(
            f"  REGRESSION {path}: baseline {base_value:.4g} -> "
            f"current {cur_value:.4g}  ({delta_pct:+.1f}%)"
        )

    if not args.warn_only:
        if invalid:
            print("bench_compare: FAIL — gated metrics with null/NaN/inf "
                  "values (see INVALID lines above)")
            return 1
        # A gate that compares nothing gates nothing: schema renames,
        # an empty/partial current file, or a typoed --only must fail
        # loudly instead of passing vacuously.
        if compared == 0:
            print("bench_compare: FAIL — no metrics were compared "
                  "(schema mismatch, empty run, or bad --only filter?)")
            return 1
        if missing:
            print("bench_compare: FAIL — baseline metrics missing from the "
                  "current run (refresh the baseline if the schema changed "
                  "intentionally)")
            return 1
        if regressions:
            print(
                "bench_compare: FAIL — refresh the baseline intentionally "
                "(docs/BENCHMARKS.md) or fix the regression."
            )
            return 1
    if regressions or missing or invalid:
        print("bench_compare: problems reported as warnings (--warn-only)")
    else:
        print("bench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
