"""Benchmark for the aggregate-statistics corpus miner.

"Examples of [corpus]-level miners are computing aggregate statistics,
duplicate detection, trending, and clustering."  Of these the
reproduction keeps aggregate statistics (the chaos tests exercise it
too) and trending (``examples/trend_tracking.py``); this benchmark runs
aggregate statistics through the simulated cluster's map/reduce path.
"""

from conftest import run_once

from repro.corpora import DIGITAL_CAMERA, MUSIC, ReviewGenerator
from repro.eval import format_table
from repro.miners import AggregateStatisticsMiner
from repro.platform import Cluster, DataStore, Entity


def _review_store(scale: float, seed: int) -> DataStore:
    store = DataStore(num_partitions=8)
    camera = ReviewGenerator(DIGITAL_CAMERA, seed=seed).generate_dplus(max(10, int(120 * scale)))
    music = ReviewGenerator(MUSIC, seed=seed + 1).generate_dplus(max(10, int(80 * scale)))
    documents = camera + music
    for document in documents:
        store.store(Entity(entity_id=document.doc_id, content=document.text))
    return store


def test_aggregate_statistics(benchmark, scale, seed, report):
    store = _review_store(scale, seed)

    def run():
        merged, _ = Cluster(store, num_nodes=4).run_corpus_miner(AggregateStatisticsMiner())
        return merged

    stats = run_once(benchmark, run)
    report(
        format_table(
            ["metric", "value"],
            [
                ["documents", stats.documents],
                ["tokens", stats.tokens],
                ["vocabulary", stats.vocabulary_size],
                ["mean tokens/doc", f"{stats.mean_tokens_per_document:.1f}"],
                ["top terms", ", ".join(t for t, _ in stats.top_terms(5))],
            ],
            title="Aggregate corpus statistics",
        )
    )
    assert stats.documents == len(store)
    assert stats.vocabulary_size > 100
