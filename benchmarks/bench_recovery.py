"""Benchmark: availability and restore latency through crash-restart recovery.

Runs the restart-enabled serving scenario across several chaos seeds and
writes ``BENCH_recovery.json``.  Each seeded run kills an index node
mid-run, restarts it inside the run, and lets the
:class:`~repro.platform.recovery.RecoveryManager` re-replicate, catch the
rejoined node up by anti-entropy, and re-admit it through breaker probes.
The contract under test:

* ≥99% of requests are answered well-formed and in-deadline *while*
  recovery is happening (availability gate);
* nothing is ever served after its deadline;
* the cluster settles — replication factor restored, WAL drained, no
  divergent replicas — before the run report is cut;
* the p95 restore duration (death to RF restored, in sim time) stays
  under a fixed ceiling across all seeds;
* the same seed reproduces the identical report byte-for-byte.
"""

import json
import os

from conftest import run_once, write_json

from repro.eval.reporting import format_table
from repro.obs import Obs, SLOMonitor, default_serving_slos
from repro.platform.serving import LoadProfile, build_scenario

SEED = 2005
DOCS = 24
REQUESTS = 200
CHAOS_SEEDS = (3, 5, 7, 11, 13)
#: Gentler service-fault pressure than bench_serving: this bench isolates
#: the cost of node loss + recovery, not request-level fault soak.
FAULT_FRACTION = 0.02
#: Acceptance thresholds.
MIN_AVAILABILITY = 0.99
MAX_P95_RESTORE = 40.0  # sim-time units, death → RF restored

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_recovery.json")


def _run(chaos_seed: int) -> dict:
    obs = Obs.enabled()
    scenario = build_scenario(
        seed=SEED,
        docs=DOCS,
        chaos_seed=chaos_seed,
        fault_fraction=FAULT_FRACTION,
        profile=LoadProfile(requests=REQUESTS),
        obs=obs,
        slo=SLOMonitor(obs, default_serving_slos()),
        restarts=True,
    )
    return scenario.run()


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _bench() -> dict:
    reports = {seed: _run(seed) for seed in CHAOS_SEEDS}
    repeat = _run(CHAOS_SEEDS[0])
    return {"reports": reports, "repeat": repeat}


def test_bench_recovery(benchmark, report):
    results = run_once(benchmark, _bench)
    reports, repeat = results["reports"], results["repeat"]

    # Determinism: same seed, byte-identical report — including every
    # recovery event, transfer count, and restore duration.
    assert json.dumps(reports[CHAOS_SEEDS[0]], sort_keys=True) == json.dumps(
        repeat, sort_keys=True
    )

    restore_durations = []
    for seed, run in reports.items():
        recovery = run["recovery"]
        # The full lifecycle ran: a death, a rejoin, and re-admission.
        assert recovery["deaths"] >= 1, f"seed {seed}: no node death"
        assert recovery["rejoins"] >= 1, f"seed {seed}: node never rejoined"
        assert recovery["transfers"] >= 1, f"seed {seed}: nothing re-replicated"
        # The cluster healed completely before the report was cut.
        assert recovery["settled"] is True, f"seed {seed}: did not settle"
        assert recovery["under_replicated"] == []
        # Availability during recovery.
        assert run["malformed_responses"] == 0
        assert run["late_responses"] == 0, "nothing is served past its deadline"
        assert run["availability"] >= MIN_AVAILABILITY, (
            f"seed {seed}: availability {run['availability']:.4f}"
        )
        restore_durations.extend(recovery["restore_durations"])

    assert restore_durations, "no restore durations were recorded"
    p95_restore = _percentile(restore_durations, 0.95)
    assert p95_restore <= MAX_P95_RESTORE

    availabilities = [run["availability"] for run in reports.values()]
    payload = {
        "chaos_seeds": list(CHAOS_SEEDS),
        "requests": REQUESTS,
        "fault_fraction": FAULT_FRACTION,
        "min_availability": min(availabilities),
        "p95_restore_duration": p95_restore,
        "restore_durations": restore_durations,
        "deterministic": True,
        "runs": {
            str(seed): {
                "availability": run["availability"],
                "p99_latency": run["p99_latency"],
                "recovery": run["recovery"],
            }
            for seed, run in reports.items()
        },
    }
    write_json(OUT_PATH, payload)

    rows = [
        [
            seed,
            f"{run['availability']:.4f}",
            run["recovery"]["transfers"],
            run["recovery"]["docs_shipped"],
            f"{max(run['recovery']['restore_durations'], default=0.0):.2f}",
            run["recovery"]["probes_admitted"],
        ]
        for seed, run in reports.items()
    ]
    report(
        format_table(
            ["chaos seed", "availability", "transfers", "docs", "restore", "probes"],
            rows,
            title=(
                f"recovery under crash-restart ({REQUESTS} requests/seed, "
                f"p95 restore {p95_restore:.2f})"
            ),
        )
    )
