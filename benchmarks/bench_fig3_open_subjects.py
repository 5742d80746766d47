"""Benchmark + reproduction of Figure 3: open-subject mining.

Mode B: named-entity spotting discovers the subjects, sentiment-bearing
sentences are analyzed offline, and a sentiment index serves arbitrary
subject queries at interactive speed.

The second benchmark quantifies the paper's motivation for the offline
pass: "this runtime execution of sentiment analysis is too slow for most
users expecting real time response" — querying the prebuilt sentiment
index is orders of magnitude faster than analyzing matching documents at
query time.
"""

import time

from conftest import emit, run_once

from repro.core import SentimentMiner, Subject
from repro.core.model import Polarity
from repro.corpora import PHARMACEUTICAL, pharmaceutical_web
from repro.eval import figure3_open_subjects, format_table
from repro.platform import DataStore, Entity, InvertedIndex, SentimentIndex


def test_figure3_open_subject_mining(benchmark, scale, seed, report):
    result = run_once(benchmark, figure3_open_subjects, seed=seed, scale=scale)
    report(result.render())

    assert result.indexed_judgments > 0
    assert result.subjects_discovered >= 5
    # Every pre-seeded company should have been discovered without any
    # subject list being provided.
    assert len(result.query_results) == 3
    assert any(
        counts["positive"] + counts["negative"] > 0
        for counts in result.query_results.values()
    )


def test_figure3_offline_index_vs_runtime_analysis(benchmark, scale, seed, report):
    dataset = pharmaceutical_web(seed=seed, scale=scale)
    subject = PHARMACEUTICAL.products[0]

    # Shared substrate: stored entities + text index.
    store = DataStore(num_partitions=8)
    text_index = InvertedIndex()
    for document in dataset.dplus:
        entity = Entity(entity_id=document.doc_id, content=document.text)
        store.store(entity)
        text_index.add_entity(entity)

    # Offline pass (done once, amortised): mine everything, build the
    # sentiment index.
    open_miner = SentimentMiner()
    sentiment_index = SentimentIndex()
    sentiment_index.add_all(
        open_miner.mine_corpus((d.doc_id, d.text) for d in dataset.dplus).judgments
    )

    def runtime_query():
        """The rejected design: analyze matching documents per query."""
        miner = SentimentMiner(subjects=[Subject(subject)])
        counts = {Polarity.POSITIVE: 0, Polarity.NEGATIVE: 0}
        for entity_id in text_index.search(f'"{subject}"'):
            entity = store.get(entity_id)
            for judgment in miner.mine_document(entity.content, entity_id).polar_judgments():
                counts[judgment.polarity] += 1
        return counts

    def indexed_query():
        return sentiment_index.counts(subject)

    start = time.perf_counter()
    runtime_counts = runtime_query()
    runtime_seconds = time.perf_counter() - start
    indexed_counts = benchmark(indexed_query)
    start = time.perf_counter()
    for _ in range(100):
        indexed_query()
    indexed_seconds = (time.perf_counter() - start) / 100

    speedup = runtime_seconds / max(indexed_seconds, 1e-9)
    # Wall-clock figures vary run to run, so they stay out of the printed
    # table (which must diff cleanly between commits) and go to the
    # benchmark's extra info instead.
    benchmark.extra_info.update(
        runtime_ms=1000 * runtime_seconds,
        indexed_ms=1000 * indexed_seconds,
        speedup=speedup,
    )
    report(
        format_table(
            ["query path", "positive", "negative"],
            [
                [
                    "runtime analysis",
                    runtime_counts[Polarity.POSITIVE],
                    runtime_counts[Polarity.NEGATIVE],
                ],
                [
                    "sentiment index",
                    indexed_counts[Polarity.POSITIVE],
                    indexed_counts[Polarity.NEGATIVE],
                ],
            ],
            title=f"Figure 3 motivation: query results for {subject!r}",
        )
    )
    assert speedup > 100  # the offline pass pays for itself immediately
