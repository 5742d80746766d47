"""Durability: a mined store survives save/load with results intact."""

import pytest

from repro.core import SentimentMiner, Subject
from repro.corpora import DIGITAL_CAMERA, ReviewGenerator
from repro.miners import SentimentEntityMiner, judgments_from
from repro.platform import DataStore, Entity, InvertedIndex, MinerPipeline, SentimentIndex


@pytest.fixture(scope="module")
def mined_store():
    reviews = ReviewGenerator(DIGITAL_CAMERA, seed=123).generate_dplus(8)
    store = DataStore(num_partitions=4)
    for document in reviews:
        store.store(Entity(entity_id=document.doc_id, content=document.text))
    miner = SentimentMiner([Subject(p) for p in DIGITAL_CAMERA.products])
    pipeline = MinerPipeline([SentimentEntityMiner(miner)])
    pipeline.run(store)
    return store


def _sentiment_pairs(store):
    pairs = []
    for entity in store.scan():
        for judgment in judgments_from(entity):
            pairs.append((entity.entity_id, judgment.as_pair()))
    return sorted(pairs)


class TestMinedStoreRoundtrip:
    def test_judgments_survive_save_load(self, mined_store, tmp_path):
        mined_store.save(tmp_path / "db")
        loaded = DataStore.load(tmp_path / "db")
        assert _sentiment_pairs(loaded) == _sentiment_pairs(mined_store)

    def test_sentiment_index_rebuilds_identically(self, mined_store, tmp_path):
        mined_store.save(tmp_path / "db")
        loaded = DataStore.load(tmp_path / "db")

        def build_index(store):
            index = SentimentIndex()
            for entity in store.scan():
                index.add_all(judgments_from(entity))
            return index

        original = build_index(mined_store)
        rebuilt = build_index(loaded)
        assert len(original) == len(rebuilt)
        for subject in original.subjects():
            assert original.counts(subject) == rebuilt.counts(subject)

    def test_text_index_rebuilds_identically(self, mined_store, tmp_path):
        mined_store.save(tmp_path / "db")
        loaded = DataStore.load(tmp_path / "db")
        a, b = InvertedIndex(), InvertedIndex()
        a.add_all(mined_store.scan())
        b.add_all(loaded.scan())
        assert a.document_count == b.document_count
        for term in ("camera", "excellent", "battery"):
            assert a.search(term) == b.search(term)

    def test_no_reprocessing_needed_after_load(self, mined_store, tmp_path):
        """Loaded entities keep their layers; miners need not re-run."""
        mined_store.save(tmp_path / "db")
        loaded = DataStore.load(tmp_path / "db")
        for entity in loaded.scan():
            original = mined_store.get(entity.entity_id)
            assert entity.has_layer("spot")
            assert entity.has_layer("sentiment")
            for layer in ("spot", "sentiment"):
                assert entity.layer(layer) == original.layer(layer)
