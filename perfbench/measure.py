"""One measuring process: one set-up, one timed window, optional checks.

``run.py`` starts this module several times in a row, each in a fresh
interpreter, and pools what the processes report.  A fresh process per
set-up matters: a window timed after several set-ups in one process ran
13% slower on ``serve_recovery`` and split into two speeds, because the
earlier set-ups' freed memory scatters the kept stack.

Usage (prints one JSON object)::

    python3 perfbench/measure.py --workload serve_recovery --seed 1 \\
        --seconds 10 --min-ops 400 --trace 0 --check 1
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def measure(workload_cls, seed: int, seconds: float, min_ops: int = 0,
            timer=None, check: bool = False, **sizes) -> dict:
    """Set up, time the window, optionally check outputs; return raw figures."""
    if timer is not None:
        timer.install()
    try:
        return _measure(workload_cls, seed, seconds, min_ops, timer, check, sizes)
    finally:
        if timer is not None:
            timer.uninstall()


def _measure(workload_cls, seed, seconds, min_ops, timer, check, sizes) -> dict:
    clock = time.perf_counter
    started = clock()
    workload = workload_cls(seed, **sizes)
    workload.setup()
    setup_s = clock() - started
    setup_layers = {}
    if timer is not None:
        setup_layers = {name: s.self_ns for name, s in timer.stats.items()}
        timer.reset()

    # Run past the deadline until the head is done and this process has
    # its share of the samples the tail percentile needs.
    min_ops = max(min_ops, workload.head)
    latencies: list[float] = []
    failed = 0
    i = 0
    # Garbage from set-up is collected now, not at a random point inside
    # the window.
    gc.collect()
    started = clock()
    deadline = started + seconds
    while True:
        elapsed, ok = workload.step(i)
        latencies.append(elapsed)
        failed += not ok
        i += 1
        if i == workload.head:
            workload.at_head()
        if i >= min_ops and clock() >= deadline:
            break
    wall = clock() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = {}
    if timer is not None:
        layers = {name: (s.self_ns, s.total_ns, s.calls) for name, s in timer.stats.items()}
    return {
        "setup_s": setup_s,
        "setup_layers": setup_layers,
        "ops": i,
        "failed": failed,
        "wall": wall,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "quality": workload.quality(),
        "counts": workload.head_counts,
        "problems": workload.check() if check else [],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from layers import LayerTimer
    from workloads import WORKLOADS

    timer = LayerTimer() if args.trace else None
    raw = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, args.min_ops,
        timer, bool(args.check),
    )
    if timer is not None:
        raw["overhead_ns"] = timer.per_call_overhead_ns()
    json.dump(raw, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
