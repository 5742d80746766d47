"""Unit tests for the aggregate statistics corpus miner."""

import pytest

from repro.miners import AggregateStatisticsMiner
from repro.platform import Cluster, DataStore, Entity


def mine_statistics(store):
    result, _ = Cluster(store, num_nodes=2).run_corpus_miner(AggregateStatisticsMiner())
    return result


def store_with(docs):
    store = DataStore(num_partitions=3)
    for eid, (text, source) in docs.items():
        store.store(Entity(entity_id=eid, content=text, source=source))
    return store


class TestAggregateStatistics:
    @pytest.fixture()
    def stats(self):
        store = store_with(
            {
                "a": ("The camera works. The camera shines.", "webcrawl"),
                "b": ("Batteries drain quickly sometimes.", "newsfeed"),
                "c": ("The camera arrived today.", "webcrawl"),
            }
        )
        return mine_statistics(store)

    def test_document_and_source_counts(self, stats):
        assert stats.documents == 3
        assert stats.per_source == {"webcrawl": 2, "newsfeed": 1}

    def test_token_counts(self, stats):
        assert stats.tokens > 10
        assert stats.mean_tokens_per_document == pytest.approx(stats.tokens / 3)

    def test_sentence_estimate(self, stats):
        assert stats.sentences_estimate == 4

    def test_top_terms_exclude_stopwords(self, stats):
        top = dict(stats.top_terms(5))
        assert "camera" in top
        assert "the" not in top

    def test_vocabulary_size(self, stats):
        assert stats.vocabulary_size >= 10

    def test_empty_corpus(self):
        stats = mine_statistics(DataStore(num_partitions=2))
        assert stats.documents == 0
        assert stats.mean_tokens_per_document == 0.0

