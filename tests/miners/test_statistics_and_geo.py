"""Unit tests for aggregate statistics and geographic context miners."""

import pytest

from repro.miners import (
    AggregateStatisticsMiner,
    GeographicContextMiner,
    TokenizerMiner,
)
from repro.platform import DataStore, Entity, run_corpus_miner


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
        return run_corpus_miner(AggregateStatisticsMiner(), store)

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
        stats = run_corpus_miner(AggregateStatisticsMiner(), DataStore(num_partitions=2))
        assert stats.documents == 0
        assert stats.mean_tokens_per_document == 0.0


class TestGeographicContext:
    def geo(self, text, gazetteer=None):
        entity = Entity(entity_id="g", content=text)
        TokenizerMiner().process(entity)
        GeographicContextMiner(gazetteer).process(entity)
        return entity

    def test_single_place(self):
        entity = self.geo("The office opened in Tokyo last year.")
        (a,) = entity.layer("geo")
        assert entity.text_of(a) == "Tokyo"
        assert a.label == "asia"
        assert entity.metadata["geo_region"] == "asia"

    def test_multiword_place(self):
        entity = self.geo("We flew to San Jose for the conference.")
        (a,) = entity.layer("geo")
        assert entity.text_of(a) == "San Jose"

    def test_person_cue_suppresses(self):
        entity = self.geo("Dr. London presented the results.")
        assert entity.layer("geo") == []
        assert "geo_region" not in entity.metadata

    def test_lowercase_not_matched(self):
        entity = self.geo("the london fog rolled in")
        assert entity.layer("geo") == []

    def test_dominant_region(self):
        entity = self.geo("Paris and Berlin beat Tokyo this quarter in London.")
        assert entity.metadata["geo_region"] == "europe"

    def test_custom_gazetteer(self):
        entity = self.geo("Meeting in Gotham tomorrow.", gazetteer={"gotham": "fiction"})
        (a,) = entity.layer("geo")
        assert a.label == "fiction"

    def test_rerun_is_idempotent(self):
        entity = self.geo("Tokyo again.")
        GeographicContextMiner().process(entity)
        assert len(entity.layer("geo")) == 1
