"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mine_reviews --seed 1 --seconds 25 --trace 0

The run starts ``WORKERS`` measuring processes one after another (see
``measure.py``).  Each sets the workload up once from the seed and
times its share of the window; the last one also checks the outputs.
Their figures are pooled.  ``--trace 0`` prints the end-to-end metrics,
timed with nothing wrapped.  ``--trace 1`` wraps every layer's entry
point (see ``layers.py``) and prints the per-layer metrics instead.

Lines before the last one start with ``#`` and carry details for a
reader: the host calibration before and after, the tail percentile and
its sample count, each set-up time, the exact head counts, and any
failed check.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Measuring processes per run; ``setup_s`` is the median of their set-ups.
WORKERS = 3

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: A measuring process that takes longer than this is stopped, so that a
#: whole run ends within three minutes.  One normally takes 10–15 s.
WORKER_TIMEOUT_S = 55


def calibrate_ms(repeats: int = 9) -> float:
    """Median time of a fixed pure-Python loop: the host-speed probe."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


def tail(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank *q* percentile and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def min_ops_per_worker(tail_q: float) -> int:
    """Operations each process must reach for a valid pooled tail."""
    return math.ceil(math.ceil((TAIL_MIN_BEYOND + 1) / (1 - tail_q)) / WORKERS)


def pool(raws: list[dict], tail_q: float) -> dict:
    """Pool the figures of several measuring processes into one run."""
    latencies = [x for raw in raws for x in raw["latencies"]]
    tail_value, beyond = tail(latencies, tail_q)
    problems = [p for raw in raws for p in raw["problems"]]
    first = raws[0]
    for raw in raws[1:]:
        if raw["quality"] != first["quality"] or raw["counts"] != first["counts"]:
            problems.append("measuring processes disagree on the deterministic outputs")
    if beyond < TAIL_MIN_BEYOND:
        problems.append(
            f"only {beyond} samples beyond p{tail_q * 100:g}; need {TAIL_MIN_BEYOND}"
        )
    layers = {}
    for name in first["layers"]:
        layers[name] = [sum(raw["layers"][name][k] for raw in raws) for k in range(3)]
    return {
        "setup_times": [raw["setup_s"] for raw in raws],
        "setup_layers": {
            name: statistics.mean(raw["setup_layers"][name] for raw in raws)
            for name in first["setup_layers"]
        },
        "ops": sum(raw["ops"] for raw in raws),
        "failed": sum(raw["failed"] for raw in raws),
        "wall": sum(raw["wall"] for raw in raws),
        "latencies": latencies,
        "tail": tail_value,
        "tail_beyond": beyond,
        "peak_rss_mb": statistics.median(raw["peak_rss_mb"] for raw in raws),
        "layers": layers,
        "overhead_ns": statistics.median(raw.get("overhead_ns", 0.0) for raw in raws),
        "quality": first["quality"],
        "counts": first["counts"],
        "problems": problems,
    }


def end_to_end_metrics(run: dict) -> dict:
    return {
        "setup_s": (statistics.median(run["setup_times"]), "s"),
        "ops_per_s": (run["ops"] / run["wall"], "1/s"),
        "latency_p50_ms": (statistics.median(run["latencies"]) * 1e3, "ms"),
        "latency_tail_ms": (run["tail"] * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "polar_precision": (run["quality"]["polar_precision"], "ratio"),
        "polar_recall": (run["quality"]["polar_recall"], "ratio"),
    }


def per_layer_metrics(run: dict, calib_ms: float) -> dict:
    from layers import LAYER_NAMES

    wall_ns = run["wall"] * 1e9
    ops = run["ops"]
    metrics = {}
    attributed = 0
    calls_total = 0
    for name in LAYER_NAMES:
        self_ns, total_ns, calls = run["layers"][name]
        attributed += self_ns
        calls_total += calls
        metrics[f"{name}.self_ms_per_op"] = (self_ns / 1e6 / ops, "ms")
        metrics[f"{name}.calls_per_op"] = (calls / ops, "count")
        metrics[f"{name}.share_pct"] = (100.0 * self_ns / wall_ns, "%")
        metrics[f"{name}.inclusive_pct"] = (100.0 * total_ns / wall_ns, "%")
        metrics[f"{name}.setup_ms"] = (run["setup_layers"][name] / 1e6, "ms")
    metrics["unattributed_pct"] = (100.0 * (wall_ns - attributed) / wall_ns, "%")
    metrics["trace.overhead_pct"] = (
        100.0 * calls_total * run["overhead_ns"] / wall_ns, "%"
    )
    metrics["trace.ops_per_s"] = (ops / run["wall"], "1/s")
    for name, value in run["counts"].items():
        unit = "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (float(value), unit)
    metrics["host.calib_ms"] = (calib_ms, "ms")
    return metrics


def run_worker(args, seconds: float, min_ops: int, check: bool) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--min-ops", str(min_ops),
        "--trace", str(args.trace), "--check", str(int(check)),
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=False
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"measuring process exited with {done.returncode}")
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tail_q = WORKLOADS[args.workload].tail_q

    calib_before = calibrate_ms()
    min_ops = min_ops_per_worker(tail_q)
    raws = [
        run_worker(args, args.seconds / WORKERS, min_ops, check=k == WORKERS - 1)
        for k in range(WORKERS)
    ]
    run = pool(raws, tail_q)
    calib_after = calibrate_ms()

    if args.trace:
        metrics = per_layer_metrics(run, (calib_before + calib_after) / 2)
    else:
        metrics = end_to_end_metrics(run)
    print(
        f"# workload={args.workload} seed={args.seed} ops={run['ops']} "
        f"wall_s={run['wall']:.3f} tail=p{tail_q * 100:g} samples={run['ops']} "
        f"beyond_tail={run['tail_beyond']} "
        f"calib_before_ms={calib_before:.3f} calib_after_ms={calib_after:.3f} "
        f"setups_s={','.join(f'{t:.3f}' for t in run['setup_times'])}"
    )
    print(f"# head counts: {json.dumps(run['counts'], sort_keys=True)}")
    for problem in run["problems"]:
        print(f"# check failed: {problem}")
    result = {
        "correct": not run["problems"],
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
