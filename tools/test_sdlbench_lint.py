#!/usr/bin/env python3
"""Unit tests for tools/sdlbench_lint.py (stdlib unittest, no deps).

Each rule gets at least one positive case (a tiny synthetic tree that
must be flagged) and one suppressed case (the same offense carrying a
reasoned allowance, which must lint clean). The suppression grammar's
failure modes — unknown rule id, missing reason, stale allowance — are
exercised explicitly because they are what keeps the gate honest.

Run directly (`python3 tools/test_sdlbench_lint.py`) or via ctest
(`ctest -R sdlbench_lint_unittests`).
"""

import io
import os
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import sdlbench_lint  # noqa: E402


# Every synthetic root gets a guarded CMakeLists so the fp-contract
# "guard missing" finding does not pollute unrelated rule tests.
GUARDED_CMAKE = "add_compile_options(-ffp-contract=off)\n"


class LintHarness(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="sdlbench_lint_test_")
        self.write("CMakeLists.txt", GUARDED_CMAKE)

    def tearDown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path) or self.root, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        return path

    def run_lint(self, *extra_args):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = sdlbench_lint.main(["--root", self.root, *extra_args])
        return code, out.getvalue(), err.getvalue()

    def assert_flags(self, rule_id, rel, content, line=None):
        self.write(rel, content)
        code, out, _err = self.run_lint()
        self.assertEqual(code, 1, f"expected a finding, got:\n{out}")
        self.assertIn(f"[{rule_id}]", out)
        self.assertIn(rel, out)
        if line is not None:
            self.assertIn(f"{rel}:{line}:", out)

    def assert_clean(self, rel, content):
        self.write(rel, content)
        code, out, err = self.run_lint()
        self.assertEqual(code, 0, f"expected clean, got:\n{out}\n{err}")


class TestLibcRand(LintHarness):
    def test_flags_std_rand(self):
        self.assert_flags("libc-rand", "src/solver/x.cpp",
                          "int f() { return std::rand(); }\n", line=1)

    def test_flags_bare_srand(self):
        self.assert_flags("libc-rand", "tools/t.cpp",
                          "void g() { srand(42); }\n")

    def test_member_rand_is_not_flagged(self):
        self.assert_clean("src/solver/x.cpp",
                          "double f(Rng& rng) { return rng.rand(); }\n")

    def test_suppressed_with_reason(self):
        self.assert_clean(
            "src/solver/x.cpp",
            "// sdlbench-lint: allow(libc-rand): exercising the ban in a test fixture\n"
            "int f() { return std::rand(); }\n")


class TestWallClock(LintHarness):
    def test_flags_system_clock(self):
        self.assert_flags(
            "wall-clock", "src/campaign/x.cpp",
            "auto t = std::chrono::system_clock::now();\n", line=1)

    def test_flags_time_nullptr(self):
        self.assert_flags("wall-clock", "tests/t.cpp",
                          "auto t = time(nullptr);\n")

    def test_named_lambda_call_is_not_libc_clock(self):
        # A local callable named `now` must not trip the libc clock() ban.
        self.assert_clean("bench/b.cpp",
                          "auto t0 = now();\ndouble runtime(Runtime& r) "
                          "{ return r.clock_scale; }\n")

    def test_trailing_suppression(self):
        self.assert_clean(
            "src/campaign/x.cpp",
            "auto t = std::chrono::system_clock::now();  "
            "// sdlbench-lint: allow(wall-clock): journal-only timestamp\n")


class TestSteadyClock(LintHarness):
    def test_flags_in_src(self):
        self.assert_flags("steady-clock", "src/campaign/x.cpp",
                          "auto t = std::chrono::steady_clock::now();\n")

    def test_bench_is_out_of_scope(self):
        # Measuring wall time is what bench drivers are *for*.
        self.assert_clean("bench/b.cpp",
                          "auto t = std::chrono::steady_clock::now();\n")

    def test_suppressed_with_reason(self):
        self.assert_clean(
            "src/campaign/x.cpp",
            "// sdlbench-lint: allow(steady-clock): heartbeat deadline, never a report byte\n"
            "auto t = std::chrono::steady_clock::now();\n")


class TestUnorderedIteration(LintHarness):
    SNIPPET = "#include <unordered_map>\nstd::unordered_map<int, int> m;\n"

    def test_flags_in_serializer_tu(self):
        self.assert_flags("unordered-iteration", "src/support/json.cpp",
                          self.SNIPPET, line=2)

    def test_non_serializer_tu_is_out_of_scope(self):
        self.assert_clean("src/solver/bayes.cpp", self.SNIPPET)

    def test_suppressed_with_reason(self):
        self.assert_clean(
            "src/support/json.cpp",
            "// sdlbench-lint: allow(unordered-iteration): lookup only, keys re-sorted before emit\n"
            "std::unordered_map<int, int> m;\n")


class TestPrintfFloat(LintHarness):
    def test_flags_percent_g(self):
        self.assert_flags("printf-float", "src/campaign/x.cpp",
                          'std::snprintf(buf, n, "%g", v);\n')

    def test_flags_precision_f(self):
        self.assert_flags("printf-float", "tools/t.cpp",
                          'std::printf("%.2f\\n", v);\n')

    def test_integer_formats_are_clean(self):
        self.assert_clean("src/campaign/x.cpp",
                          'std::printf("%d %s %zu %04x\\n", i, s, z, u);\n')

    def test_tests_are_out_of_scope(self):
        self.assert_clean("tests/t.cpp", 'std::printf("%.2f\\n", v);\n')

    def test_suppressed_with_reason(self):
        self.assert_clean(
            "tools/t.cpp",
            '// sdlbench-lint: allow(printf-float): progress line for humans\n'
            'std::printf("%.2f\\n", v);\n')


class TestRawArtifactWrite(LintHarness):
    def test_flags_ofstream(self):
        self.assert_flags("raw-artifact-write", "src/data/x.cpp",
                          '#include <fstream>\nstd::ofstream out("a.json");\n',
                          line=2)

    def test_flags_fopen(self):
        self.assert_flags("raw-artifact-write", "bench/b.cpp",
                          'FILE* f = std::fopen("a.json", "w");\n')

    def test_ifstream_reads_are_clean(self):
        self.assert_clean("src/data/x.cpp",
                          'std::ifstream in("a.json");\n')

    def test_tests_are_out_of_scope(self):
        self.assert_clean("tests/t.cpp", 'std::ofstream out("fixture.json");\n')

    def test_suppressed_with_reason(self):
        self.assert_clean(
            "src/data/x.cpp",
            'std::ofstream out(tmp);  '
            '// sdlbench-lint: allow(raw-artifact-write): writes the temp file atomic_write renames\n')


class TestFpContract(LintHarness):
    def test_missing_guard_is_flagged(self):
        self.write("CMakeLists.txt", "project(x)\n")
        code, out, _err = self.run_lint()
        self.assertEqual(code, 1)
        self.assertIn("[fp-contract]", out)

    def test_fast_math_is_flagged(self):
        self.write("src/CMakeLists.txt",
                   "add_compile_options(-ffast-math)\n")
        code, out, _err = self.run_lint()
        self.assertEqual(code, 1)
        self.assertIn("[fp-contract]", out)
        self.assertIn("src/CMakeLists.txt", out)

    def test_value_changing_fast_math_members_are_flagged(self):
        for flag in ("-fassociative-math", "-freciprocal-math",
                     "-ffinite-math-only", "-fno-signed-zeros"):
            with self.subTest(flag=flag):
                self.write("src/CMakeLists.txt",
                           f"target_compile_options(x PRIVATE {flag})\n")
                code, out, _err = self.run_lint()
                self.assertEqual(code, 1, out)
                self.assertIn("[fp-contract]", out)
                self.assertIn("src/CMakeLists.txt:1:", out)

    def test_value_preserving_flags_are_clean(self):
        self.write("src/linalg/CMakeLists.txt",
                   "target_compile_options(x PRIVATE -fno-trapping-math)\n"
                   "target_compile_options(y PRIVATE -fno-associative-math "
                   "-fno-reciprocal-math -fno-finite-math-only "
                   "-fsigned-zeros)\n")
        code, out, _err = self.run_lint()
        self.assertEqual(code, 0, out)

    def test_cmake_comment_is_not_code(self):
        self.write("src/CMakeLists.txt",
                   "# never pass -ffast-math here\nadd_library(x x.cpp)\n")
        code, out, _err = self.run_lint()
        self.assertEqual(code, 0, out)

    def test_hash_suppression_in_cmake(self):
        self.write(
            "src/CMakeLists.txt",
            "# sdlbench-lint: allow(fp-contract): scratch target, excluded from identity suites\n"
            "add_compile_options(-ffast-math)\n")
        code, out, _err = self.run_lint()
        self.assertEqual(code, 0, out)


class TestFailpointCatalog(LintHarness):
    CALL = ('#include "support/failpoint.hpp"\n'
            'void f() { support::failpoint::maybe_fail("demo.site", "io"); }\n')

    def test_documented_site_is_clean(self):
        self.write("docs/ROBUSTNESS.md",
                   "| `demo.site` | demo | a documented site |\n")
        self.assert_clean("src/a.cpp", self.CALL)

    def test_undocumented_site_is_flagged(self):
        self.write("docs/ROBUSTNESS.md",
                   "| `other.site` | demo | the only documented site |\n")
        self.write("src/a.cpp", self.CALL)
        code, out, _err = self.run_lint()
        self.assertEqual(code, 1, out)
        self.assertIn("[failpoint-catalog]", out)
        self.assertIn("'demo.site' is missing from", out)
        self.assertIn("src/a.cpp:2:", out)

    def test_missing_doc_is_its_own_message(self):
        self.write("src/a.cpp", self.CALL)
        code, out, _err = self.run_lint()
        self.assertEqual(code, 1, out)
        self.assertIn("[failpoint-catalog]", out)
        self.assertIn("does not exist", out)

    def test_spec_strings_are_scanned_too(self):
        # Hard-coded schedule strings (e.g. a worker failpoint built in
        # code) name sites without ever calling maybe_fail.
        self.write("docs/ROBUSTNESS.md", "no catalog entries here\n")
        self.assert_flags("failpoint-catalog", "tools/t.cpp",
                          'const char* spec = "demo.site=kill@1#1";\n',
                          line=1)

    def test_tests_are_out_of_scope(self):
        # The framework's own tests arm ad-hoc sites on purpose.
        self.assert_clean("tests/t.cpp", self.CALL)

    def test_suppressed_with_reason(self):
        self.assert_clean(
            "src/a.cpp",
            "// sdlbench-lint: allow(failpoint-catalog): scratch site, not part of the public catalog\n"
            'void f() { support::failpoint::maybe_fail("demo.site", "io"); }\n')


class TestSuppressionGrammar(LintHarness):
    def test_unknown_rule_fails_loudly(self):
        self.write("src/a.cpp",
                   "// sdlbench-lint: allow(no-such-rule): whatever\n"
                   "int x = 0;\n")
        code, _out, err = self.run_lint()
        self.assertEqual(code, 2)
        self.assertIn("unknown rule", err)

    def test_missing_reason_fails_loudly(self):
        self.write("src/a.cpp",
                   "auto t = std::chrono::system_clock::now();  "
                   "// sdlbench-lint: allow(wall-clock):\n")
        code, _out, err = self.run_lint()
        self.assertEqual(code, 2)
        self.assertIn("no reason", err)

    def test_stale_suppression_fails_loudly(self):
        self.write("src/a.cpp",
                   "// sdlbench-lint: allow(wall-clock): nothing here needs this\n"
                   "int x = 0;\n")
        code, _out, err = self.run_lint()
        self.assertEqual(code, 2)
        self.assertIn("matches no finding", err)

    def test_comma_list_covers_both_rules(self):
        self.assert_clean(
            "src/support/json.cpp",
            "// sdlbench-lint: allow(unordered-iteration,wall-clock): synthetic combined case\n"
            "std::unordered_map<int, int> m; auto t = std::chrono::system_clock::now();\n")

    def test_suppression_is_per_rule(self):
        # An allowance for rule A must not hide a finding for rule B on
        # the same line.
        self.write(
            "src/support/json.cpp",
            "// sdlbench-lint: allow(wall-clock): timestamping only\n"
            "std::unordered_map<int, int> m; auto t = std::chrono::system_clock::now();\n")
        code, out, _err = self.run_lint()
        self.assertEqual(code, 1)
        self.assertIn("[unordered-iteration]", out)


class TestScanner(LintHarness):
    def test_comments_are_stripped(self):
        self.assert_clean("src/a.cpp",
                          "// std::rand() in a comment is fine\n"
                          "/* so is std::ofstream in a block\n"
                          "   spanning lines */\nint x = 0;\n")

    def test_string_literals_are_scanned(self):
        # "%g" lives inside a string literal — exactly where printf
        # formats live; stripping must keep strings.
        self.assert_flags("printf-float", "src/campaign/x.cpp",
                          'const char* fmt = "%g";\n')

    def test_finding_points_at_real_line(self):
        self.assert_flags("wall-clock", "src/a.cpp",
                          "int a;\nint b;\n"
                          "auto t = std::chrono::system_clock::now();\n",
                          line=3)

    def test_list_rules_names_every_rule(self):
        code, out, _err = self.run_lint("--list-rules")
        self.assertEqual(code, 0)
        for rule_id in sdlbench_lint.ALL_RULE_IDS:
            self.assertIn(rule_id, out)


class TestRepoIsClean(unittest.TestCase):
    def test_the_actual_repo_lints_clean(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = sdlbench_lint.main(["--root", repo])
        self.assertEqual(
            code, 0,
            f"the repo must lint clean (docs/INVARIANTS.md):\n"
            f"{out.getvalue()}\n{err.getvalue()}")


if __name__ == "__main__":
    unittest.main()
