"""Benchmark: serving availability under a seeded chaos plan.

Drives the resilient mode-B serving layer with the closed-loop load
generator in two regimes and writes ``BENCH_serving_availability.json``:

* **chaos** — a seeded fault plan kills one index node outright and
  schedules service faults on every surviving node endpoint (≥5% of the
  request count).  The contract under test: ≥99% of requests still get
  a well-formed (possibly ``degraded``) response inside their deadline,
  nothing is ever served after its deadline, and two runs with the same
  seed produce byte-identical reports.
* **overload** — no faults, but request bursts larger than the admission
  queue, to exercise load shedding: the shed rate must be non-zero and
  every shed request must get an explicit 503-style envelope.
"""

import json
import os

from conftest import emit, run_once, write_json

from repro.eval.reporting import format_table
from repro.platform.serving import LoadProfile, build_scenario

CHAOS_SEED = 7
SEED = 2005
DOCS = 24
REQUESTS = 300
FAULT_FRACTION = 0.08
#: Acceptance thresholds.
MIN_AVAILABILITY = 0.99
MIN_FAULT_RATE = 0.05

OUT_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_serving_availability.json"
)

#: Overload regime: bursts far above the queue limit force shedding.
OVERLOAD_QUEUE_LIMIT = 12
OVERLOAD_PROFILE = LoadProfile(
    requests=REQUESTS, burst_min=16, burst_max=40
)


def _chaos_report() -> dict:
    scenario = build_scenario(
        seed=SEED,
        docs=DOCS,
        chaos_seed=CHAOS_SEED,
        fault_fraction=FAULT_FRACTION,
        profile=LoadProfile(requests=REQUESTS),
    )
    return scenario.run()


def _overload_report() -> dict:
    scenario = build_scenario(
        seed=SEED,
        docs=DOCS,
        chaos_seed=None,
        profile=OVERLOAD_PROFILE,
        queue_limit=OVERLOAD_QUEUE_LIMIT,
    )
    return scenario.run()


def _bench() -> dict:
    first = _chaos_report()
    second = _chaos_report()
    overload = _overload_report()
    return {"chaos": first, "chaos_repeat": second, "overload": overload}


def test_bench_serving_availability(benchmark, report):
    results = run_once(benchmark, _bench)
    chaos, repeat, overload = (
        results["chaos"],
        results["chaos_repeat"],
        results["overload"],
    )

    # Determinism: the identical seed must reproduce the identical report.
    assert json.dumps(chaos, sort_keys=True) == json.dumps(repeat, sort_keys=True)

    # Fault pressure is real: one dead node, ≥5% injected service faults.
    assert chaos["dead_nodes"], "the chaos plan must kill an index node"
    assert chaos["faults_injected"] >= MIN_FAULT_RATE * chaos["requests"]

    # The availability contract.
    assert chaos["requests"] == REQUESTS
    assert chaos["malformed_responses"] == 0
    assert chaos["late_responses"] == 0, "nothing is ever served past its deadline"
    assert chaos["availability"] >= MIN_AVAILABILITY
    assert chaos["degraded"] > 0, "losing a node must surface degraded responses"

    # Overload regime: shedding engages and stays explicit.
    assert overload["shed_rate"] > 0.0
    assert overload["malformed_responses"] == 0
    assert overload["late_responses"] == 0

    payload = {
        "availability": chaos["availability"],
        "p50_latency": chaos["p50_latency"],
        "p99_latency": chaos["p99_latency"],
        "shed_rate": overload["shed_rate"],
        "hedge_wins": chaos["hedge_wins"],
        "chaos": chaos,
        "overload": overload,
        "deterministic": True,
        "requests": REQUESTS,
        "chaos_seed": CHAOS_SEED,
    }
    write_json(OUT_PATH, payload)

    rows = [
        ["availability", f"{chaos['availability']:.4f}", f"{overload['availability']:.4f}"],
        ["p50 latency", f"{chaos['p50_latency']:.3f}", f"{overload['p50_latency']:.3f}"],
        ["p99 latency", f"{chaos['p99_latency']:.3f}", f"{overload['p99_latency']:.3f}"],
        ["shed rate", f"{chaos['shed_rate']:.4f}", f"{overload['shed_rate']:.4f}"],
        ["degraded", chaos["degraded"], overload["degraded"]],
        ["expired", chaos["expired"], overload["expired"]],
        ["hedge wins", chaos["hedge_wins"], overload["hedge_wins"]],
        ["faults injected", chaos["faults_injected"], overload["faults_injected"]],
    ]
    report(
        format_table(
            ["metric", "chaos", "overload"],
            rows,
            title=f"serving availability ({REQUESTS} requests, chaos seed {CHAOS_SEED})",
        )
    )
