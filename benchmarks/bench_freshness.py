"""Benchmark: freshness of the incremental crawl→analyze→index→serve loop.

Drives the same seeded corpus through the serving stack two ways — one
offline pass and N incremental delta batches — and measures, in
simulated time, how fresh the incremental path keeps the index while
the router serves concurrent load:

* **freshness lag** — sim time from a batch entering the indexer to its
  segment being queryable on every shard (p50/p95 over batches);
* **sustained throughput** — documents indexed per unit of simulated
  time across the whole incremental run;
* **the equivalence gate** — the batched build must serve a
  byte-identical end-state report to the one-pass build, with and
  without chaos (one index node killed, ≥5% service faults).

Writes ``BENCH_freshness.json``; fails when the freshness-lag ceiling
or docs/sec floor is breached, or when byte-identity breaks.
"""

import json
import os

from conftest import emit, run_once, write_json

from repro.core import SentimentMiner, Subject
from repro.corpora import DOMAINS, ReviewGenerator
from repro.eval.reporting import format_table
from repro.obs import Obs
from repro.platform.datastore import DataStore
from repro.platform.entity import Entity
from repro.platform.ingestion import DELTA_ADD, DocumentDelta
from repro.platform.segments import CompactionPolicy, DeltaIndexer, LiveIndexer
from repro.platform.serving import (
    LoadProfile,
    ReplicatedIndex,
    ServingRouter,
    build_scenario,
)
from repro.platform.serving.loadgen import percentile
from repro.platform.vinci import VinciBus

SEED = 2005
CHAOS_SEED = 7
DOCS = 24
REQUESTS = 200
BATCHES = 6
FAULT_FRACTION = 0.08

#: Acceptance thresholds (simulated units).  Mining charges ~0.5 sim
#: units per document, so a 4-document batch is queryable in ~2 units;
#: the ceiling/floor trip on regressions, not normal variance.
MAX_P95_FRESHNESS_LAG = 2.5
MIN_DOCS_PER_SIM_SEC = 1.5

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_freshness.json")


def _run(*, batches, chaos_seed, obs=None):
    scenario = build_scenario(
        seed=SEED,
        docs=DOCS,
        chaos_seed=chaos_seed,
        fault_fraction=FAULT_FRACTION,
        profile=LoadProfile(requests=REQUESTS),
        obs=obs,
        batches=batches,
    )
    return scenario.run()


def _freshness_stats() -> dict:
    """Instrumented incremental run with concurrent serving load.

    Batches stream through the :class:`LiveIndexer` while the router
    answers reads between absorbs — the live loop, not an offline bulk
    build.  Freshness lag is ingest-to-queryable per batch, in simulated
    time; throughput is documents per unit of simulated indexing time.
    """
    obs = Obs.default()
    started = obs.clock.now
    vocab = DOMAINS["digital_camera"]
    documents = ReviewGenerator(vocab, seed=SEED).generate_dplus(DOCS)
    subjects = [Subject(p) for p in vocab.products] + [
        Subject(f) for f in vocab.features
    ]
    miner = SentimentMiner(subjects=subjects, obs=obs)
    store = DataStore()
    store.store_all(Entity(entity_id=d.doc_id, content=d.text) for d in documents)
    index = ReplicatedIndex(8, 4, replication=2)
    live = LiveIndexer(
        index,
        DeltaIndexer(miner, obs=obs),
        obs=obs,
        policy=CompactionPolicy(),
    )
    bus = VinciBus(obs=obs)
    router = ServingRouter(index, store, bus, obs=obs, latency_seed=SEED)

    deltas = [
        DocumentDelta(
            kind=DELTA_ADD,
            entity_id=d.doc_id,
            entity=Entity(entity_id=d.doc_id, content=d.text),
        )
        for d in documents
    ]
    size = max(1, -(-len(deltas) // BATCHES))  # ceil division
    lags = []
    reads = 0
    for start in range(0, len(deltas), size):
        stats = live.apply_batch(deltas[start : start + size])
        lags.append(stats["freshness_lag"])
        # Concurrent serving load: reads land between every absorb.
        for subject in (vocab.products[0], vocab.features[0]):
            envelope = router.serve("counts", {"subject": subject})
            assert envelope["meta"]["status"] == "ok"
            reads += 1
        envelope = router.serve("search", {"q": vocab.features[0]})
        assert envelope["meta"]["status"] == "ok"
        reads += 1
    indexing_time = sum(lags)
    docs = live.documents_indexed
    return {
        "batches": len(lags),
        "documents_indexed": docs,
        "interleaved_reads": reads,
        "lag_p50": percentile(lags, 0.50),
        "lag_p95": percentile(lags, 0.95),
        "lag_max": max(lags),
        "indexing_sim_time": indexing_time,
        "docs_per_sim_sec": (docs / indexing_time) if indexing_time else 0.0,
        "compactions": int(obs.metrics.counter("segments.compactions").value),
        "total_sim_time": obs.clock.now - started,
    }


def _bench() -> dict:
    return {
        "freshness": _freshness_stats(),
        "one_pass": _run(batches=None, chaos_seed=None),
        "batched": _run(batches=BATCHES, chaos_seed=None),
        "one_pass_chaos": _run(batches=None, chaos_seed=CHAOS_SEED),
        "batched_chaos": _run(batches=BATCHES, chaos_seed=CHAOS_SEED),
    }


def test_bench_freshness(benchmark, report):
    results = run_once(benchmark, _bench)
    fresh = results["freshness"]

    # The equivalence gate: byte-identical end-state reports, one-pass
    # vs N batches, without and with serving chaos.
    assert json.dumps(results["batched"], sort_keys=True) == json.dumps(
        results["one_pass"], sort_keys=True
    ), "incremental build must serve a byte-identical report"
    assert json.dumps(results["batched_chaos"], sort_keys=True) == json.dumps(
        results["one_pass_chaos"], sort_keys=True
    ), "byte-identity must hold under serving chaos"

    # Chaos pressure is real in the gated pair.
    chaos = results["batched_chaos"]
    assert chaos["dead_nodes"], "the chaos plan must kill an index node"
    assert chaos["faults_injected"] >= 0.05 * REQUESTS

    # Freshness contract: every batch becomes queryable quickly, and the
    # loop sustains real indexing throughput in simulated time.
    assert fresh["batches"] == BATCHES
    assert fresh["documents_indexed"] == DOCS
    assert fresh["lag_p95"] <= MAX_P95_FRESHNESS_LAG, (
        f"p95 freshness lag {fresh['lag_p95']:.3f} exceeds "
        f"{MAX_P95_FRESHNESS_LAG}"
    )
    assert fresh["docs_per_sim_sec"] >= MIN_DOCS_PER_SIM_SEC, (
        f"sustained {fresh['docs_per_sim_sec']:.2f} docs/sim-sec below "
        f"floor {MIN_DOCS_PER_SIM_SEC}"
    )

    payload = {
        "freshness": fresh,
        "byte_identical": True,
        "byte_identical_under_chaos": True,
        "availability_batched_chaos": chaos["availability"],
        "thresholds": {
            "max_p95_freshness_lag": MAX_P95_FRESHNESS_LAG,
            "min_docs_per_sim_sec": MIN_DOCS_PER_SIM_SEC,
        },
        "seed": SEED,
        "chaos_seed": CHAOS_SEED,
        "batches": BATCHES,
        "docs": DOCS,
        "requests": REQUESTS,
    }
    write_json(OUT_PATH, payload)

    rows = [
        ["batches", fresh["batches"]],
        ["documents indexed", fresh["documents_indexed"]],
        ["freshness lag p50", f"{fresh['lag_p50']:.4f}"],
        ["freshness lag p95", f"{fresh['lag_p95']:.4f}"],
        ["freshness lag max", f"{fresh['lag_max']:.4f}"],
        ["docs / sim-sec", f"{fresh['docs_per_sim_sec']:.2f}"],
        ["compactions", fresh["compactions"]],
        ["byte-identical (plain)", "yes"],
        ["byte-identical (chaos)", "yes"],
        ["availability under chaos", f"{chaos['availability']:.4f}"],
    ]
    report(
        format_table(
            ["metric", "value"],
            rows,
            title=f"index freshness ({DOCS} docs in {BATCHES} batches, seed {SEED})",
        )
    )
