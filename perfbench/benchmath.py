"""Arithmetic behind the benchmark's reported numbers.

Kept apart from run.py so test_benchmath.py can check it on hand-worked
inputs. Spans are (name, parent, start_ns, end_ns) tuples as loopbench
writes them; `parent` indexes the enclosing span in the same list, -1
for a root.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# above it; otherwise its value says more about one sample than about
# the distribution.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND
    samples lie beyond it."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans):
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[1] >= 0:
            kids[span[1]].append(i)
    return kids


def self_times(spans):
    """Per-span self time: its duration minus the part of its interval
    that its direct children cover (children clipped to the parent)."""
    kids = _children(spans)
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        clipped = [(max(start, spans[k][2]), min(end, spans[k][3])) for k in kids[i]]
        covered = _covered([iv for iv in clipped if iv[1] > iv[0]])
        out.append((end - start) - covered)
    return out


def coverage(spans, root_name):
    """Share of the `root_name` spans' wall time that their direct
    children cover."""
    selfs = self_times(spans)
    wall = unattributed = 0
    for i, span in enumerate(spans):
        if span[0] == root_name:
            wall += span[3] - span[2]
            unattributed += selfs[i]
    if wall <= 0:
        return 0.0
    return (wall - unattributed) / wall


def lpt_ideal(walls, workers):
    """Makespan of greedily assigning `walls`, in the given order, each to
    the least-loaded of `workers` machines (ties to the lowest index)."""
    loads = [0.0] * workers
    for wall in walls:
        i = min(range(workers), key=lambda w: (loads[w], w))
        loads[i] += wall
    return max(loads) if walls else 0.0


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles' default method)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")
