#!/usr/bin/env python3
"""Closed-loop benchmark for sdlbench.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the libraries,
sdlbench_fleet and loopbench into .bench_build/perfbench. Workloads:

  gp_long      Bayesian, B=24, N=576 over six 96-well plates
  fleet_mixed  a 24-cell generated-scenario campaign on sdlbench_fleet
  table1_loop  the paper's Table-1 protocol (genetic, B=1, N=128, 96 wells);
               not in BENCHMARK.json: too noisy on a shared host (README.md)

--trace 0 prints the end-to-end metrics of untraced runs of the real
program; --trace 1 prints per-layer metrics from the traced twin (and,
for fleet_mixed, the worker journals). Every metric is printed by name
and unit; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. README.md documents the metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from functools import partial

import benchmath

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
LOOPBENCH = os.path.join(BUILD, "loopbench")
FLEET = os.path.join(BUILD, "sdlbench", "tools", "sdlbench_fleet")

CHILD_TIMEOUT_S = 150
LOOP_THREADS = 2        # the loops' in-process pool (SDLBENCH_WORKERS)
FLEET_WORKERS = 3
FLEET_CELLS = 24
TRACE_BATCHES = 100     # traced batches wanted, so batch p90 is reportable

# Reference campaign seed: fleet_mixed measures it next to the --seed
# campaign so that best_score and the digest check are fixed per build.
FLEET_REFERENCE_SEED = 1
FLEET_SPEC = """\
campaign:
  name: fleet_mixed
  replicates: 2
  base_seed: {base_seed}
  seed_mode: per_cell
grid:
  workcells: ["generated:seed=17..28"]
  solvers: [genetic]
  batch_sizes: [8]
experiment:
  total_samples: 32
"""

END_TO_END = [
    ("samples_per_s", "1/s"),
    ("makespan_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("best_score", "score"),
]

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("solver.ask_s", "s"), ("solver.tell_s", "s"), ("solver.calls", "count"),
    ("devices.camera_s", "s"), ("devices.camera.frames", "count"),
    ("devices.camera.mpix", "Mpix"),
    ("imaging.read_s", "s"), ("imaging.roi_hits", "count"),
    ("imaging.full_scans", "count"), ("imaging.retakes", "count"),
    ("devices.ot2_s", "s"), ("devices.handling_s", "s"),
    ("wei.engine_self_s", "s"), ("wei.commands", "count"),
    ("wei.rejections", "count"), ("wei.interventions", "count"),
    ("data.publish_s", "s"), ("data.publishes", "count"),
    ("des.drain_s", "s"), ("metrics.compute_s", "s"),
    ("core.setup_s", "s"),
    ("loop.batch_p50_ms", "ms"), ("loop.batch_p90_ms", "ms"),
    ("loop.unattributed_s", "s"), ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"), ("proc.cpu_s", "s"), ("proc.parallelism", "ratio"),
    ("campaign.cell_p50_s", "s"), ("campaign.cell_max_s", "s"),
    ("fleet.busy_frac", "ratio"), ("fleet.lpt_ideal_s", "s"),
    ("fleet.overhead_s", "s"), ("fleet.cells_done", "count"),
    ("fleet.cells_failed", "count"),
]
UNITS = dict(END_TO_END + PER_LAYER)


class BenchError(Exception):
    """The benchmark itself could not run (no sources, build or tool
    failure); no result is printed."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no sdlbench sources next to {HERE}; run from a full checkout")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    build_log = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "loopbench", "sdlbench_fleet",
                      "-j", jobs])
        with open(build_log, "w") as out:
            for step in steps:
                if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                    with open(build_log) as f:
                        log(f.read()[-4000:])
                    raise BenchError("build failed: " + " ".join(step))


# --------------------------------------------------------------- children

def run_child(argv, out_path, threads):
    """Runs argv to completion with stdout in out_path. Returns
    (exit code, wall s, peak RSS of the process tree in MB, CPU s)."""
    env = dict(os.environ, SDLBENCH_WORKERS=str(threads))
    with open(out_path, "w") as out, open(out_path + ".err", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=os.path.dirname(out_path))
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            log(err.read()[-2000:])
    # ru_maxrss covers the child and its waited-for descendants (KiB).
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def loopbench(args, run_dir, name, threads=LOOP_THREADS):
    out_path = os.path.join(run_dir, name + ".json")
    code, _, rss, _ = run_child([LOOPBENCH] + args, out_path, threads)
    if code != 0:
        raise BenchError(f"loopbench {args[0]} exited {code}")
    with open(out_path) as f:
        return json.load(f), rss


# -------------------------------------------------------------- workloads

def loop_end_to_end(workload, seed, seconds, run_dir):
    doc, rss = loopbench(["loop", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds)], run_dir, "loop")
    reps = doc["reps"]
    refs = {r["seed"]: r["best_score"] for r in reps if r["reference"]}
    t1 = reps[0]["table1"]
    info = ["run walls (s): " + " ".join(f"{r['makespan_s']:.3f}" for r in reps),
            f"{len(reps)} runs; reference Table-1 metrics (information only): "
            f"TWH {t1['twh_s'] / 3600:.2f} h, CCWH {t1['ccwh']}, "
            f"time per color {int(t1['time_per_color_s'] // 60)} m "
            f"{round(t1['time_per_color_s'] % 60)} s"]
    metrics = {
        "samples_per_s": reps[0]["samples"] / statistics.median(r["run_s"] for r in reps),
        "makespan_s": statistics.median(r["makespan_s"] for r in reps),
        "setup_s": statistics.median(doc["setup_s"]),
        "peak_rss_mb": rss,
        "best_score": statistics.fmean(refs.values()),
    }
    failed = sum(1 for r in reps if not r["ok"])
    return metrics, len(reps), failed, doc["errors"], info


def layer_metrics(entries):
    """Per-layer sums over traced twin runs (see README.md). Returns the
    metrics, the traced loop wall, the traced wall including set-up, and
    notes on metrics that could not be reported."""
    spans = []  # every entry's spans in one list, parents re-indexed
    for entry in entries:
        base = len(spans)
        spans += [(n, p + base if p >= 0 else -1, t0, t1) for n, p, t0, t1 in entry["spans"]]
    sums = {}
    batch_ms = []
    setup_ns = loop_ns = unattributed_ns = 0
    last_tell_end = None
    for (name, _, start, end), self_ns in zip(spans, benchmath.self_times(spans)):
        dur = end - start
        if name == "loop":
            loop_ns += dur
            unattributed_ns += self_ns
            last_tell_end = start
            continue
        if name == "core.setup":
            setup_ns += dur
            continue
        if name == "wei.workflow":
            key = "wei.engine_self_s"
            dur = self_ns
        elif name == "devices.camera":
            key = "devices.camera_s"
        elif name.startswith("devices.ot2"):
            key = "devices.ot2_s"
        elif name.startswith("devices."):
            key = "devices.handling_s"
        else:
            key = name + "_s"
            if name == "solver.tell":
                batch_ms.append((end - last_tell_end) / 1e6)
                last_tell_end = end
        sums[key] = sums.get(key, 0) + dur
    for entry in entries:
        counters = entry["counters"]
        for key, counter in [("solver.calls", "asks"), ("solver.calls", "tells"),
                             ("devices.camera.frames", "frames"),
                             ("devices.camera.mpix", "megapixels"),
                             ("imaging.roi_hits", "roi_hits"),
                             ("imaging.full_scans", "full_scans"),
                             ("imaging.retakes", "retakes"), ("wei.commands", "commands"),
                             ("wei.rejections", "rejections"),
                             ("wei.interventions", "interventions"),
                             ("data.publishes", "publishes")]:
            sums[key] = sums.get(key, 0) + counters[counter]
    out = {}
    for name, unit in PER_LAYER:
        value = sums.get(name, 0)
        out[name] = value / 1e9 if unit == "s" else value
    wall_s = loop_ns / 1e9
    traced_s = (setup_ns + loop_ns) / 1e9
    cpu_s = sum(e["cpu_s"] for e in entries)
    out["core.setup_s"] = setup_ns / 1e9 / len(entries)
    out["loop.unattributed_s"] = unattributed_ns / 1e9
    out["trace.coverage"] = benchmath.coverage(spans, "loop")
    out["proc.cpu_s"] = cpu_s
    out["proc.parallelism"] = cpu_s / traced_s if traced_s else 0.0
    notes = []
    for name, q in [("loop.batch_p50_ms", 50), ("loop.batch_p90_ms", 90)]:
        value = benchmath.percentile(batch_ms, q)
        if value is None:
            notes.append(f"{name}: not reportable from {len(batch_ms)} batches "
                         f"(needs {benchmath.MIN_BEYOND} beyond it); reported as 0")
            value = 0.0
        out[name] = value
    return out, wall_s, traced_s, notes


def shares(metrics, wall_s):
    def pct(*names):
        return 100.0 * sum(metrics[n] for n in names) / wall_s if wall_s else 0.0
    return [f"traced loop wall {wall_s:.3f} s: camera {pct('devices.camera_s'):.1f}%, "
            f"read {pct('imaging.read_s'):.1f}%, "
            f"solver {pct('solver.ask_s', 'solver.tell_s'):.1f}%, "
            f"ot2 {pct('devices.ot2_s'):.1f}%, handling {pct('devices.handling_s'):.1f}%, "
            f"engine {pct('wei.engine_self_s'):.1f}%, publish {pct('data.publish_s'):.1f}%, "
            f"unattributed {pct('loop.unattributed_s'):.1f}%"]


def loop_per_layer(workload, seed, run_dir):
    batches = {"table1_loop": 128, "gp_long": 24}[workload]
    configs = -(-TRACE_BATCHES // batches)
    doc, _ = loopbench(["trace", "--workload", workload, "--seed", str(seed),
                        "--configs", str(configs)], run_dir, "trace")
    entries = doc["configs"]
    metrics, wall_s, traced_s, notes = layer_metrics(entries)
    metrics["trace.overhead"] = traced_s / sum(e["untraced_s"] for e in entries) - 1.0
    info = shares(metrics, wall_s) + notes + [
        "not applicable to a single loop, reported as 0: campaign.*, fleet.*"]
    failed = sum(1 for e in entries if not e["match"])
    return metrics, len(entries), failed, doc["errors"], info


def write_spec(run_dir, base_seed):
    path = os.path.join(run_dir, f"fleet_{base_seed}.yaml")
    with open(path, "w") as f:
        f.write(FLEET_SPEC.format(base_seed=base_seed))
    return path


def fleet_run(spec, run_dir, tag):
    """One sdlbench_fleet campaign. Returns a dict of what it produced and
    a list of check failures."""
    out_dir = os.path.join(run_dir, "fleet_" + tag)
    code, wall, rss, cpu = run_child(
        [FLEET, "--campaign", spec, out_dir, "--workers", str(FLEET_WORKERS),
         "--worker-threads", "1"], os.path.join(run_dir, f"fleet_{tag}.log"), 1)
    run = {"out": out_dir, "makespan_s": wall, "rss_mb": rss, "cpu_s": cpu}
    errors = []
    if code != 0:
        return run, [f"sdlbench_fleet exited {code}"]
    with open(os.path.join(out_dir, "campaign.json"), "rb") as f:
        raw = f.read()
    report = json.loads(raw)
    cells = report["cells"]
    if len(cells) != FLEET_CELLS:
        errors.append(f"campaign.json has {len(cells)} cells, expected {FLEET_CELLS}")
    if "quarantined" in report:
        errors.append("campaign.json lists quarantined cells")
    run["digest"] = hashlib.sha256(raw).hexdigest()
    run["samples"] = sum(len(c["result"]["samples"]) for c in cells)
    run["best_score"] = statistics.fmean(c["result"]["best"]["score"] for c in cells)
    return run, errors


def fleet_setup(spec, run_dir, reps):
    doc, _ = loopbench(["fleet-setup", "--campaign", spec, "--reps", str(reps)], run_dir,
                       "fleet_setup", threads=1)
    return doc


def fleet_end_to_end(seed, seconds, run_dir):
    reference = write_spec(run_dir, FLEET_REFERENCE_SEED)
    seeded = write_spec(run_dir, 1000 + seed)
    setup = []
    # reference, seeded, reference again (digest check), then alternate
    # while another average-length campaign fits the time budget.
    runs, errors, failed = [], [], 0
    start = time.perf_counter()
    while len(runs) < 64:
        used = time.perf_counter() - start
        if len(runs) >= 3 and used + used / len(runs) > seconds:
            break
        spec = reference if len(runs) % 2 == 0 else seeded
        setup += fleet_setup(reference, run_dir, 40)["setup_s"]
        run, run_errors = fleet_run(spec, run_dir, str(len(runs)))
        run["spec"] = spec
        runs.append(run)
        shutil.rmtree(run["out"], ignore_errors=True)
        if run_errors:
            failed += 1
            errors += run_errors
    good = [r for r in runs if "digest" in r]
    if not good:
        raise BenchError("no fleet campaign finished: " + "; ".join(errors))
    for spec in (reference, seeded):
        digests = {r["digest"] for r in good if r["spec"] == spec}
        if len(digests) > 1:
            failed += 1
            errors.append(f"campaign.json differs between runs of {os.path.basename(spec)}")
    makespan = statistics.median(r["makespan_s"] for r in good)
    metrics = {
        "samples_per_s": good[0]["samples"] / makespan,
        "makespan_s": makespan,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["rss_mb"] for r in good),
        "best_score": next(r["best_score"] for r in good if r["spec"] == reference),
    }
    info = [f"{len(runs)} campaigns of {FLEET_CELLS} cells on {FLEET_WORKERS} workers, "
            "makespans (s): " + " ".join(f"{r['makespan_s']:.3f}" for r in runs)]
    return metrics, len(runs), failed, errors, info


def journal_walls(out_dir):
    """cell index -> wall_seconds from every worker journal."""
    walls = {}
    workers = os.path.join(out_dir, "workers")
    for name in sorted(os.listdir(workers)):
        path = os.path.join(workers, name, "cells.jsonl")
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            for line in f:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # a torn tail
                if record.get("schema") == "sdlbench.cell_result.v1":
                    walls.setdefault(record["cell_index"], record["wall_seconds"])
    return walls


def fleet_per_layer(seed, run_dir):
    spec = write_spec(run_dir, 1000 + seed)
    run, errors = fleet_run(spec, run_dir, "traced")
    if "digest" not in run:
        raise BenchError("fleet campaign failed: " + "; ".join(errors))
    order = fleet_setup(spec, run_dir, 1)["schedule_order"]
    walls = journal_walls(run["out"])
    with open(os.path.join(run["out"], "campaign.json")) as f:
        quarantined = len(json.load(f).get("quarantined", []))
    twin, _ = loopbench(["fleet-twin", "--campaign", spec, "--journal",
                         os.path.join(run["out"], "cells.jsonl")], run_dir, "fleet_twin",
                        threads=1)
    entries = twin["configs"]
    metrics, wall_s, traced_s, notes = layer_metrics(entries)
    makespan = run["makespan_s"]
    cell_walls = list(walls.values())
    lpt = benchmath.lpt_ideal([walls[c] for c in order if c in walls], FLEET_WORKERS)
    metrics.update({
        "core.setup_s": twin["setup_s"],
        "trace.overhead": traced_s / sum(cell_walls) - 1.0,
        "proc.cpu_s": run["cpu_s"],
        "proc.parallelism": run["cpu_s"] / makespan,
        "campaign.cell_p50_s": benchmath.percentile(cell_walls, 50) or 0.0,
        "campaign.cell_max_s": max(cell_walls),
        "fleet.busy_frac": sum(cell_walls) / (FLEET_WORKERS * makespan),
        "fleet.lpt_ideal_s": lpt,
        "fleet.overhead_s": makespan - lpt,
        "fleet.cells_done": len(walls),
        "fleet.cells_failed": FLEET_CELLS - len(walls) + quarantined,
    })
    info = [f"fleet makespan {makespan:.3f} s, LPT ideal {lpt:.3f} s, "
            f"sum of cell walls {sum(cell_walls):.3f} s",
            "trace.overhead compares the sequential twin with cells that ran "
            "3-way concurrent in the fleet",
            "proc.* cover the fleet's process tree"] + shares(metrics, wall_s) + notes
    failed = sum(1 for e in entries if not e["match"])
    if len(walls) != FLEET_CELLS or quarantined:
        failed += 1
        errors.append(f"{len(walls)} cells journaled, {quarantined} quarantined")
    return metrics, len(entries), failed, errors + twin["errors"], info


# workload -> (end-to-end run, per-layer run)
WORKLOADS = {
    "table1_loop": (partial(loop_end_to_end, "table1_loop"),
                    partial(loop_per_layer, "table1_loop")),
    "gp_long": (partial(loop_end_to_end, "gp_long"), partial(loop_per_layer, "gp_long")),
    "fleet_mixed": (fleet_end_to_end, fleet_per_layer),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        run_dir = os.path.join(BUILD_ROOT, "runs",
                               f"{args.workload}-{os.getpid()}-{time.time_ns()}")
        os.makedirs(run_dir)
        try:
            end_to_end, per_layer = WORKLOADS[args.workload]
            if args.trace:
                metrics, attempted, failed, errors, info = per_layer(args.seed, run_dir)
            else:
                metrics, attempted, failed, errors, info = end_to_end(
                    args.seed, args.seconds, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    for line in info:
        print(f"# {line}")
    for error in errors:
        print(f"# CHECK FAILED: {error}")
    correct = failed == 0 and not errors
    if args.trace and not correct:
        print("# per-layer block invalid (twin or fleet checks failed); not published")
        metrics = {}
    for name, value in metrics.items():
        print(f"{name:24s} {value:16.6f} {UNITS[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
