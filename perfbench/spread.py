#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds N]

Runs run.py once per (workload, seed), untraced, and prints for each
metric the median and the quartile spread ((q3 - q1) / median, as
statistics.quantiles gives the quartiles) next to the metric's bound
from BENCHMARK.json. A spread should stay below a third of its bound.
Raw results are appended to .bench_build/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import benchmath

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    raw_path = os.path.join(ROOT, ".bench_build", "spread.jsonl")

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            with open(raw_path, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            spread = benchmath.quartile_spread(vals)
            bound = bounds[name]
            flag = "" if spread < bound / 3 else ("  (above bound/3)" if spread <= bound
                                                   else "  (ABOVE BOUND)")
            print(f"  {workload:12s} {name:14s} median {statistics.median(vals):.6g} "
                  f"spread {spread:.4f} bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
