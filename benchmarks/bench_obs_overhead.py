"""Benchmark: instrumentation overhead, tracing on vs. off.

Two gates, both asserting the design's central claim — observability is
cheap enough to leave compiled in, and free when switched off:

* **mine** — the mode-A corpus mine run with the zero-cost default
  observability context (no-op tracer/audit, live metrics) vs. fully
  enabled (spans + audit trail);
* **serving** — the end-to-end mode-B scenario under a seeded chaos
  plan: corpus mining and segment ingest (background root traces)
  followed by the served load, where every request opens a span tree
  (request → shard reads → bus attempts, plus hedge/fastfail spans) and
  the SLO monitor classifies every response into its burn windows.  The
  gate covers the whole scenario; the serve-loop-only ratio is recorded
  ungated — the simulated loop does ~15 spans of bookkeeping per request
  against almost no request work, so its ratio is an upper bound no real
  deployment would see.

Each gate interleaves off/on rounds (``conftest.paired_rounds``),
compares the median paired ratio against ``MAX_OVERHEAD``, and checks
the on/off outputs are identical — telemetry must never change results.
Both sections are written to ``BENCH_obs_overhead.json`` so CI can
track the ratios over time.
"""

import os
import time

from conftest import PairedRounds, emit, median_ratio, paired_rounds, write_json

from repro.core import SentimentMiner, Subject
from repro.corpora import DIGITAL_CAMERA, ReviewGenerator
from repro.eval.reporting import format_table
from repro.obs import Obs, SLOMonitor, default_serving_slos
from repro.platform.serving import LoadProfile, build_scenario

DOCS = 30
#: Interleaved rounds per mode; the gate compares the *median* paired
#: on/off ratio, so more rounds shrink the median's noise floor.
ROUNDS = 15
#: Enabled-mode overhead budget (fraction of the disabled-mode time).
MAX_OVERHEAD = 0.10
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs_overhead.json")

SERVING_DOCS = 24
SERVING_REQUESTS = 150
SERVING_CHAOS_SEED = 7


def _emit_and_gate(title: str, rounds: PairedRounds) -> tuple[float, list[float]]:
    """Print and gate the median on/off overhead; return it and the ratios."""
    median, ratios = median_ratio(rounds.second_times, rounds.first_times)
    overhead = median - 1.0
    emit(
        format_table(
            ["mode", "best seconds"],
            [
                ["tracing off", f"{rounds.first_best:.4f}"],
                ["tracing on", f"{rounds.second_best:.4f}"],
                ["overhead", f"{overhead:+.1%}"],
            ],
            title=title,
        )
    )
    assert overhead < MAX_OVERHEAD, (
        f"instrumentation overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%}"
    )
    return overhead, ratios


def test_bench_obs_overhead_mine():
    docs = ReviewGenerator(DIGITAL_CAMERA, seed=1).generate_dplus(DOCS)
    documents = [(d.doc_id, d.text) for d in docs]
    subjects = [Subject(p) for p in DIGITAL_CAMERA.products] + [
        Subject(f) for f in DIGITAL_CAMERA.features
    ]

    def run(obs_factory):
        miner = SentimentMiner(subjects=subjects, obs=obs_factory())
        start = time.perf_counter()
        result = miner.mine_corpus(iter(documents))
        return time.perf_counter() - start, result

    rounds = paired_rounds(lambda: run(Obs.default), lambda: run(Obs.enabled), ROUNDS)
    off_result, on_result = rounds.first_result, rounds.second_result

    # Same pipeline either way: identical judgments, only extra telemetry.
    assert [j.as_pair() for j in on_result.judgments] == [
        j.as_pair() for j in off_result.judgments
    ]
    assert off_result.audit == []
    assert len(on_result.audit) >= len(on_result.judgments)

    overhead, ratios = _emit_and_gate(
        f"observability overhead: mine ({DOCS} docs, best of {ROUNDS})", rounds
    )
    write_json(
        OUT_PATH,
        {
            "documents": DOCS,
            "rounds": ROUNDS,
            "tracing_off_best_seconds": rounds.first_best,
            "tracing_on_best_seconds": rounds.second_best,
            "paired_ratios": ratios,
            "overhead_fraction": overhead,
            "max_overhead_fraction": MAX_OVERHEAD,
            "judgments": len(on_result.judgments),
            "audit_entries": len(on_result.audit),
        },
        section="mine",
    )


def test_bench_obs_overhead_serving():
    serve_times: dict[bool, list] = {False: [], True: []}

    def run(enabled: bool):
        obs = Obs.enabled() if enabled else Obs.default()
        slo = SLOMonitor(obs, default_serving_slos()) if enabled else None
        start = time.perf_counter()
        scenario = build_scenario(
            obs=obs,
            docs=SERVING_DOCS,
            batches=3,
            chaos_seed=SERVING_CHAOS_SEED,
            profile=LoadProfile(requests=SERVING_REQUESTS),
            slo=slo,
        )
        served_from = time.perf_counter()
        report = scenario.run()
        end = time.perf_counter()
        serve_times[enabled].append(end - served_from)
        return end - start, report

    rounds = paired_rounds(lambda: run(False), lambda: run(True), ROUNDS)
    off_report, on_report = rounds.first_result, rounds.second_result
    serve_median, _ = median_ratio(serve_times[True], serve_times[False])
    serve_only_overhead = serve_median - 1.0

    # Telemetry must not change a single response.  Latency percentiles
    # may drift by whole-span clock ticks (each span advances the sim
    # clock by TICK to order simultaneous events); everything else —
    # statuses, availability, hedges, failovers, breakers — must match
    # exactly, with the slo section (absent when off) set aside.
    ticky = ("p50_latency", "p99_latency")
    on_core = {k: v for k, v in on_report.items() if k != "slo" and k not in ticky}
    off_core = {k: v for k, v in off_report.items() if k not in ticky}
    assert on_core == off_core
    for key in ticky:
        assert abs(on_report[key] - off_report[key]) < 1e-2
    assert on_report["slo"]["slos"], "SLO monitor saw no traffic"

    overhead, ratios = _emit_and_gate(
        "observability overhead: serving scenario "
        f"({SERVING_DOCS} docs + {SERVING_REQUESTS} requests, "
        f"chaos seed {SERVING_CHAOS_SEED}, best of {ROUNDS})",
        rounds,
    )
    write_json(
        OUT_PATH,
        {
            "documents": SERVING_DOCS,
            "requests": SERVING_REQUESTS,
            "chaos_seed": SERVING_CHAOS_SEED,
            "rounds": ROUNDS,
            "tracing_off_best_seconds": rounds.first_best,
            "tracing_on_best_seconds": rounds.second_best,
            "paired_ratios": ratios,
            "overhead_fraction": overhead,
            "max_overhead_fraction": MAX_OVERHEAD,
            # Ungated: the serve loop alone, where ~15 spans/request meet
            # near-zero per-request work.  Tracked for trend, not gated.
            "serve_only_overhead_fraction": serve_only_overhead,
            "availability": on_report["availability"],
            "hedges": on_report["hedges"],
            "failovers": on_report["failovers"],
        },
        section="serving",
    )
