"""Small-scale smoke runs of every benchmark workload.

Each workload runs at a fraction of its benchmark size, untraced and
traced.  The tests check that every metric named in ``BENCHMARK.json``
is printed with its unit, that the output checks pass, and that the
quality figures and per-layer counts repeat exactly for a seed.

Run from the repository root::

    python -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from layers import LayerTimer
from measure import measure
from run import end_to_end_metrics, per_layer_metrics, pool
from workloads import COUNT_NAMES, IngestWeb, MineReviews, ServeRecovery

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
    SPEC = json.load(stream)

#: Smoke sizes of each workload.
SMALL = {
    MineReviews: {"docs": 12, "warmup": 2},
    IngestWeb: {"base": 24, "head": 6, "warmup": 1},
    ServeRecovery: {"docs": 24, "head": 300},
}

#: A median tail, so that a few operations give a valid tail.
TAIL_Q = 0.5


def run_small(workload_cls, seed=3, timer=None):
    """Two small measuring processes' worth of figures, pooled."""
    raws = [
        measure(workload_cls, seed, 0.0, 22, timer, check=k == 1, **SMALL[workload_cls])
        for k in range(2)
    ]
    if timer is not None:
        for raw in raws:
            raw["overhead_ns"] = timer.per_call_overhead_ns(calls=1000)
    return pool(raws, TAIL_Q)


def units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def test_benchmark_names_the_three_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == [w.name for w in SMALL]


@pytest.mark.parametrize("workload_cls", list(SMALL), ids=lambda w: w.name)
def test_smoke_run_prints_every_metric_and_repeats(workload_cls):
    first = run_small(workload_cls)
    assert first["problems"] == []
    assert first["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    metrics = end_to_end_metrics(first)
    assert units(metrics) == expected
    assert all(value > 0 for value, _ in metrics.values())

    second = run_small(workload_cls)
    assert second["quality"] == first["quality"]
    assert second["counts"] == first["counts"]
    assert set(first["counts"]) == set(COUNT_NAMES)


@pytest.mark.parametrize("workload_cls", list(SMALL), ids=lambda w: w.name)
def test_traced_run_attributes_the_whole_window(workload_cls):
    timer = LayerTimer()
    raw = run_small(workload_cls, timer=timer)
    assert raw["problems"] == []
    metrics = per_layer_metrics(raw, 1.0)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(metrics) == expected
    shares = sum(v for name, (v, _) in metrics.items() if name.endswith(".share_pct"))
    assert shares + metrics["unattributed_pct"][0] == pytest.approx(100.0)
    # Tracing leaves the counts alone.
    assert raw["counts"] == run_small(workload_cls)["counts"]


def test_traced_run_restores_every_wrapped_function():
    from repro.core.miner import SentimentMiner

    original = SentimentMiner.__dict__["mine_document"]
    run_small(MineReviews, timer=LayerTimer())
    assert SentimentMiner.__dict__["mine_document"] is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine_reviews",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
