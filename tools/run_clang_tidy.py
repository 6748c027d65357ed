#!/usr/bin/env python3
"""Run the repo's clang-tidy gate over compile_commands.json.

Thin, stdlib-only driver for the CI lint job (and local use where
clang-tidy is installed): reads the compilation database, keeps the
first-party translation units (src/, tools/, bench/), and runs
clang-tidy with the repo-root .clang-tidy config (WarningsAsErrors:
'*', so any diagnostic fails the gate).

Usage:
    tools/run_clang_tidy.py [-p BUILD_DIR] [-j N] [--clang-tidy BIN] [files...]

With explicit [files...] only those TUs run (fast pre-push loop);
otherwise every first-party TU in the database runs. Exit codes:
0 clean, 1 diagnostics, 2 missing tool/database.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

FIRST_PARTY_PREFIXES = ("src/", "tools/", "bench/")


def first_party_sources(database_path, repo_root):
    with open(database_path, encoding="utf-8") as fh:
        entries = json.load(fh)
    sources = []
    for entry in entries:
        path = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
        if not rel.startswith(FIRST_PARTY_PREFIXES):
            continue  # tests, gtest, example scratch — out of the gate
        sources.append(path)
    return sorted(set(sources))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="run_clang_tidy")
    parser.add_argument("-p", "--build-dir", default="build",
                        help="directory holding compile_commands.json")
    parser.add_argument("-j", "--jobs", type=int,
                        default=max(1, multiprocessing.cpu_count() - 1))
    parser.add_argument("--clang-tidy", default="clang-tidy",
                        help="clang-tidy binary to use")
    parser.add_argument("files", nargs="*",
                        help="restrict the run to these source files")
    args = parser.parse_args(argv)

    tidy = shutil.which(args.clang_tidy)
    if tidy is None:
        print(f"run_clang_tidy: '{args.clang_tidy}' not found on PATH; "
              f"install clang-tidy or pass --clang-tidy", file=sys.stderr)
        return 2

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    database = os.path.join(args.build_dir, "compile_commands.json")
    if not os.path.isfile(database):
        print(f"run_clang_tidy: no {database}; configure with "
              f"-DCMAKE_EXPORT_COMPILE_COMMANDS=ON first", file=sys.stderr)
        return 2

    if args.files:
        sources = [os.path.abspath(f) for f in args.files]
    else:
        sources = first_party_sources(database, repo_root)
    if not sources:
        print("run_clang_tidy: no first-party sources in the database",
              file=sys.stderr)
        return 2

    print(f"run_clang_tidy: {len(sources)} TU(s), {args.jobs} job(s)")
    failures = 0
    # Simple bounded fan-out: chunk the list rather than pulling in a
    # worker-pool dependency; clang-tidy is the bottleneck, not Python.
    running = []
    queue = list(sources)
    while queue or running:
        while queue and len(running) < args.jobs:
            src = queue.pop(0)
            running.append((src, subprocess.Popen(
                [tidy, "-p", args.build_dir, "--quiet", src],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True)))
        src, proc = running.pop(0)
        output, _ = proc.communicate()
        if proc.returncode != 0:
            failures += 1
            rel = os.path.relpath(src, repo_root)
            print(f"--- {rel} ---\n{output}", end="")
    if failures:
        print(f"run_clang_tidy: {failures} TU(s) with diagnostics",
              file=sys.stderr)
        return 1
    print("run_clang_tidy: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
