#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py (stdlib unittest; wired into
ctest as ``bench_compare_unittests``).

The cases that matter most are the quiet failure modes of a float-based
gate: NaN (every comparison is False), null leaves (silently invisible
to a numeric walk), and vacuous comparisons — each must fail loudly and
name the offending metric path.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import pathlib
import tempfile
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", pathlib.Path(__file__).resolve().parent / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def run_compare(baseline, current, *extra_args):
    """Writes both docs to a temp dir, runs main(), and returns
    (exit_code, captured_stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        base_path = pathlib.Path(tmp) / "baseline.json"
        cur_path = pathlib.Path(tmp) / "current.json"
        base_path.write_text(json.dumps(baseline), encoding="utf-8")
        cur_path.write_text(json.dumps(current), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench_compare.main(
                ["--baseline", str(base_path), "--current", str(cur_path), *extra_args]
            )
        return code, out.getvalue()


class DirectionTest(unittest.TestCase):
    def test_latency_suffixes_are_lower_better(self):
        for path in ("a.mean_ns", "a.total_seconds", "a.wall_s", "a.p50_ns_hot"):
            self.assertEqual(bench_compare.direction(path), "lower", path)

    def test_throughput_names_are_higher_better(self):
        for path in ("a.frames_per_sec", "a.speedup", "a.batch_speedup"):
            self.assertEqual(bench_compare.direction(path), "higher", path)

    def test_everything_else_is_informational(self):
        for path in ("a.samples", "a.label", "a.best_score"):
            self.assertIsNone(bench_compare.direction(path), path)


class GateTest(unittest.TestCase):
    def test_matching_runs_pass(self):
        code, out = run_compare({"k": {"mean_ns": 100}}, {"k": {"mean_ns": 101}})
        self.assertEqual(code, 0)
        self.assertIn("OK", out)

    def test_regression_beyond_tolerance_fails(self):
        code, out = run_compare(
            {"k": {"mean_ns": 100}}, {"k": {"mean_ns": 200}}, "--tolerance", "25"
        )
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION k.mean_ns", out)

    def test_improvement_of_higher_better_metric_passes(self):
        code, _ = run_compare({"k": {"speedup": 2.0}}, {"k": {"speedup": 3.0}})
        self.assertEqual(code, 0)

    def test_nan_current_value_fails_and_names_the_metric(self):
        # float('nan') serializes as bare NaN, which json.load happily
        # reads back; every comparison against it is False, so without
        # the explicit finiteness check the gate would pass vacuously.
        code, out = run_compare(
            {"k": {"mean_ns": 100}}, {"k": {"mean_ns": float("nan")}}
        )
        self.assertEqual(code, 1)
        self.assertIn("INVALID current value for k.mean_ns", out)

    def test_nan_baseline_value_fails_too(self):
        code, out = run_compare(
            {"k": {"mean_ns": float("nan")}}, {"k": {"mean_ns": 100}}
        )
        self.assertEqual(code, 1)
        self.assertIn("INVALID baseline value for k.mean_ns", out)

    def test_null_gated_leaf_fails_and_names_the_metric(self):
        code, out = run_compare(
            {"k": {"mean_ns": 100, "speedup": 2.0}},
            {"k": {"mean_ns": None, "speedup": 2.0}},
        )
        self.assertEqual(code, 1)
        self.assertIn("INVALID current value for k.mean_ns: null", out)

    def test_null_informational_leaf_is_ignored(self):
        code, _ = run_compare(
            {"k": {"mean_ns": 100, "note": None}}, {"k": {"mean_ns": 100, "note": None}}
        )
        self.assertEqual(code, 0)

    def test_warn_only_reports_nan_but_exits_zero(self):
        code, out = run_compare(
            {"k": {"mean_ns": 100}},
            {"k": {"mean_ns": float("nan")}},
            "--warn-only",
        )
        self.assertEqual(code, 0)
        self.assertIn("INVALID current value for k.mean_ns", out)
        self.assertIn("warnings", out)

    def test_vacuous_comparison_fails(self):
        code, out = run_compare({"k": {"label": 3}}, {"k": {"label": 3}})
        self.assertEqual(code, 1)
        self.assertIn("no metrics were compared", out)

    def test_missing_gated_metric_fails(self):
        code, out = run_compare(
            {"k": {"mean_ns": 100, "old_ns": 5}}, {"k": {"mean_ns": 100}}
        )
        self.assertEqual(code, 1)
        self.assertIn("metric disappeared: k.old_ns", out)

    def test_only_filters_scope(self):
        baseline = {"k": {"speedup": 2.0, "mean_ns": 100}}
        current = {"k": {"speedup": 2.0, "mean_ns": 900}}
        code, _ = run_compare(baseline, current, "--only", "speedup")
        self.assertEqual(code, 0)

    def test_list_items_are_keyed_by_stable_labels(self):
        leaves = dict(
            bench_compare.numeric_leaves(
                {"rows": [{"scenario": "base", "mean_ns": 10},
                          {"n": 64, "candidates": 256, "mean_ns": 20}]}
            )
        )
        self.assertIn("rows[base].mean_ns", leaves)
        self.assertIn("rows[n64_c256].mean_ns", leaves)


if __name__ == "__main__":
    unittest.main()
