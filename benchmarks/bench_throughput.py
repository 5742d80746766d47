"""Benchmark: hot-path throughput, optimized pipeline vs. naive reference.

Mines a syndication-heavy corpus (each base review republished under
several document ids, the shape that motivated the hot path) two ways:

* **reference** — the naive implementations kept alive for the
  differential harness: n-gram window spotter, no split/tag/parse
  memoisation, one full pipeline pass per document (``mine_corpus``);
* **optimized** — the production path: Aho–Corasick spotter, bounded
  split/tag/parse memos, the whole corpus through one call of the
  Mode A engine (``mine_batch``).

Both runs must produce byte-identical judgments and stats — speed is
the *only* permitted difference.  The gate fails if the median paired
wall-clock speedup drops below ``MIN_SPEEDUP`` or the batched path's
simulated throughput falls below ``DOCS_PER_SIM_SEC_FLOOR``.  The
engine charges stage cost once per stage per call (spot and analyze
here; the split is uncharged), not per document, so the sim-clock
series is deterministic: 80 documents over 0.5 sim-sec.  Results go to
``BENCH_throughput.json`` so CI can track both ratios over time, with
the optimized run's split/tag/parse memo hit ratios beside them.
"""

import os
import sys
import time

from conftest import emit, median_ratio, paired_rounds, write_json

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from repro.core import SentimentMiner, Subject
from repro.corpora import DIGITAL_CAMERA, ReviewGenerator
from repro.eval.reporting import format_table
from repro.obs import Obs

from tests.support.reference import reference_miner

#: Distinct base reviews, and how many syndicated copies of each.
BASE_DOCS = 10
SYNDICATION = 8
#: Interleaved reference/optimized rounds; the gate uses the median
#: paired ratio, so a noisy neighbour slowing one round hits both sides.
ROUNDS = 7
#: The optimized path must stay at least this much faster (wall-clock).
MIN_SPEEDUP = 2.0
#: Simulated throughput floor for the batched path (docs per sim-sec).
#: Deterministic: mine_batch charges STAGE_COST once per charged stage
#: per call (160 docs/sim-sec on this corpus), so regressing to
#: per-document stage cost (2 docs/sim-sec) trips this immediately.
DOCS_PER_SIM_SEC_FLOOR = 50.0
OUT_PATH = os.path.join(REPO_ROOT, "BENCH_throughput.json")


def _corpus() -> list[tuple[str, str]]:
    base = ReviewGenerator(DIGITAL_CAMERA, seed=42).generate_dplus(BASE_DOCS)
    return [
        (f"{doc.doc_id}~syn{copy}", doc.text)
        for doc in base
        for copy in range(SYNDICATION)
    ]


def _subjects() -> list[Subject]:
    return [Subject(p) for p in DIGITAL_CAMERA.products] + [
        Subject(f) for f in DIGITAL_CAMERA.features
    ]


def _reference_run(documents, subjects):
    obs = Obs.default()
    miner = reference_miner(subjects, obs=obs)
    start = time.perf_counter()
    result = miner.mine_corpus(documents)
    return time.perf_counter() - start, (obs.clock.now, result)


def _optimized_run(documents, subjects):
    obs = Obs.default()
    miner = SentimentMiner(subjects=subjects, obs=obs)
    start = time.perf_counter()
    result = miner.mine_batch(documents)
    return time.perf_counter() - start, (obs.clock.now, result, _memo_hit_ratios(obs))


def _memo_hit_ratios(obs) -> dict[str, float]:
    """Hit ratio of each nlp memo, from the counters the miner publishes."""
    ratios = {}
    for memo in ("split", "tag", "parse"):
        hits = obs.metrics.value("nlp.memo_hits", memo=memo)
        misses = obs.metrics.value("nlp.memo_misses", memo=memo)
        ratios[memo] = hits / (hits + misses) if hits + misses else 0.0
    return ratios


def test_bench_throughput():
    documents = _corpus()
    subjects = _subjects()

    rounds = paired_rounds(
        lambda: _reference_run(documents, subjects),
        lambda: _optimized_run(documents, subjects),
        ROUNDS,
    )
    ref_best, opt_best = rounds.first_best, rounds.second_best
    ref_sim, ref_result = rounds.first_result
    opt_sim, opt_result, memo_hit_ratios = rounds.second_result
    speedup, ratios = median_ratio(rounds.first_times, rounds.second_times)

    # The optimization contract: identical output, only faster.
    assert opt_result.judgments == ref_result.judgments
    assert opt_result.stats == ref_result.stats

    docs = len(documents)
    opt_docs_per_sim_sec = docs / opt_sim if opt_sim else float("inf")
    ref_docs_per_sim_sec = docs / ref_sim if ref_sim else float("inf")

    payload = {
        "base_docs": BASE_DOCS,
        "syndication": SYNDICATION,
        "documents": docs,
        "rounds": ROUNDS,
        "judgments": len(opt_result.judgments),
        "reference_best_seconds": ref_best,
        "optimized_best_seconds": opt_best,
        "paired_ratios": ratios,
        "speedup_vs_reference": speedup,
        "min_speedup": MIN_SPEEDUP,
        "reference_docs_per_sim_sec": ref_docs_per_sim_sec,
        "optimized_docs_per_sim_sec": opt_docs_per_sim_sec,
        "docs_per_sim_sec_floor": DOCS_PER_SIM_SEC_FLOOR,
        "memo_hit_ratios": memo_hit_ratios,
    }
    write_json(OUT_PATH, payload)

    emit(
        format_table(
            ["path", "best seconds", "docs/sim-sec"],
            [
                ["reference (naive)", f"{ref_best:.4f}", f"{ref_docs_per_sim_sec:.1f}"],
                ["optimized (AC+memo+batch)", f"{opt_best:.4f}", f"{opt_docs_per_sim_sec:.1f}"],
                ["median speedup", f"{speedup:.2f}x", ""],
                *[
                    [f"{memo} memo hit ratio", f"{ratio:.3f}", ""]
                    for memo, ratio in memo_hit_ratios.items()
                ],
            ],
            title=f"hot-path throughput ({docs} docs, {ROUNDS} paired rounds)",
        )
    )
    assert speedup >= MIN_SPEEDUP, (
        f"median speedup {speedup:.2f}x fell below the {MIN_SPEEDUP:.1f}x gate"
    )
    assert opt_docs_per_sim_sec >= DOCS_PER_SIM_SEC_FLOOR, (
        f"batched throughput {opt_docs_per_sim_sec:.1f} docs/sim-sec "
        f"below floor {DOCS_PER_SIM_SEC_FLOOR:.1f}"
    )
