"""Shared benchmark configuration.

Every table/figure benchmark runs its experiment once (rounds=1) — the
experiments are deterministic end-to-end runs, not microbenchmarks — and
prints the reproduced table to the real stdout so it survives pytest's
capture.  ``REPRO_BENCH_SCALE`` (default 0.15) scales dataset sizes;
1.0 reproduces the paper's document counts.

The wall-clock gates (throughput, observability overhead, lint cache)
share :func:`paired_rounds` and :func:`median_ratio`, and every gate
writes its ``BENCH_*.json`` artifact through :func:`write_json`.
"""

import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

import pytest

DEFAULT_SCALE = 0.15


@pytest.fixture(scope="session")
def scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))


@pytest.fixture(scope="session")
def seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", 2005))


def emit(text: str) -> None:
    """Print to the unbuffered real stdout, bypassing pytest capture."""
    sys.__stdout__.write("\n" + text + "\n")
    sys.__stdout__.flush()


@pytest.fixture()
def report():
    return emit


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@dataclass
class PairedRounds:
    """Per-round wall times and last results of two interleaved runs."""

    first_times: list[float]
    second_times: list[float]
    first_result: Any
    second_result: Any

    @property
    def first_best(self) -> float:
        return min(self.first_times)

    @property
    def second_best(self) -> float:
        return min(self.second_times)


def paired_rounds(
    run_first: Callable[[], tuple[float, Any]],
    run_second: Callable[[], tuple[float, Any]],
    rounds: int,
    warmup: bool = True,
) -> PairedRounds:
    """Optionally warm up, then interleave *rounds* first/second rounds.

    Each closure times its own hot section and returns ``(elapsed,
    result)``, so setup (corpus generation, index build) stays off the
    stopwatch.  A noisy neighbour slows both halves of a pair roughly
    equally, so a per-pair ratio is far more stable than either
    absolute time.
    """
    if warmup:
        run_first()
        run_second()
    first_times: list[float] = []
    second_times: list[float] = []
    first_result = second_result = None
    for _ in range(rounds):
        elapsed, first_result = run_first()
        first_times.append(elapsed)
        elapsed, second_result = run_second()
        second_times.append(elapsed)
    return PairedRounds(first_times, second_times, first_result, second_result)


def median_ratio(numerators: list[float], denominators: list[float]) -> tuple[float, list[float]]:
    """The median of the paired ratios, and the sorted ratios themselves."""
    ratios = sorted(n / d for n, d in zip(numerators, denominators))
    return ratios[len(ratios) // 2], ratios


def write_json(path: str, payload: dict, section: str | None = None) -> None:
    """Write a bench artifact as sorted, indented JSON.

    With *section*, *payload* is merged into the artifact under that key,
    so several gates can share one file.
    """
    if section is not None:
        merged: dict = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as stream:
                merged = json.load(stream)
        merged[section] = payload
        payload = merged
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
