"""End-to-end integration tests: the full platform flow of Figure 1.

ingest (multi-source) → data store → cluster miner pipeline → inverted +
sentiment indices → hosted services → application views.
"""

import pytest

from repro.core import Polarity, SentimentMiner, Subject
from repro.corpora import DIGITAL_CAMERA, ReviewGenerator
from repro.miners import SentimentEntityMiner, judgments_from
from repro.platform import (
    Cluster,
    CustomerDataIngestor,
    DataStore,
    IngestionManager,
    InvertedIndex,
    MinerPipeline,
    NewsFeedIngestor,
    SentimentIndex,
    VinciBus,
    register_services,
)


@pytest.fixture(scope="module")
def platform_stack():
    """A fully-built platform over a small synthetic corpus."""
    reviews = ReviewGenerator(DIGITAL_CAMERA, seed=77).generate_dplus(12)
    store = DataStore(num_partitions=8)
    manager = IngestionManager(store)
    manager.add_source(
        NewsFeedIngestor([(d.doc_id, d.text, "2004-06-01") for d in reviews[:6]])
    )
    manager.add_source(
        CustomerDataIngestor(
            [{"account": i, "comment": d.text} for i, d in enumerate(reviews[6:])]
        )
    )
    ingestion = manager.ingest()

    subjects = [Subject(p) for p in DIGITAL_CAMERA.products]
    pipeline = MinerPipeline([SentimentEntityMiner(SentimentMiner(subjects))])
    cluster = Cluster(store, num_nodes=4)
    run = cluster.run_pipeline(pipeline)

    index = InvertedIndex()
    sentiment_index = SentimentIndex()
    for entity in store.scan():
        index.add_entity(entity)
        sentiment_index.add_all(judgments_from(entity))
    bus = VinciBus()
    register_services(bus, store, index, sentiment_index)
    return {
        "store": store,
        "ingestion": ingestion,
        "run": run,
        "index": index,
        "sentiment_index": sentiment_index,
        "bus": bus,
    }


class TestIngestToStore:
    def test_all_sources_loaded(self, platform_stack):
        assert platform_stack["ingestion"].per_source == {"newsfeed": 6, "customer": 6}
        assert len(platform_stack["store"]) == 12

    def test_every_entity_annotated(self, platform_stack, tmp_path):
        store = platform_stack["store"]
        store.save(tmp_path / "db")
        loaded = {entity.entity_id: entity for entity in DataStore.load(tmp_path / "db").scan()}
        assert len(loaded) == 12
        for entity in store.scan():
            assert entity.layers() == ["sentiment", "spot"]
            spans = [a.span for a in entity.layer("spot")]
            assert spans == [a.span for a in entity.layer("sentiment")]
            restored = loaded[entity.entity_id]
            for layer in ("spot", "sentiment"):
                assert restored.layer(layer) == entity.layer(layer)

    def test_pipeline_ran_every_miner_on_every_entity(self, platform_stack):
        runs = platform_stack["run"].pipeline.miner_runs
        assert all(count == 12 for count in runs.values())


class TestIndices:
    def test_text_index_covers_corpus(self, platform_stack):
        assert platform_stack["index"].document_count == 12

    def test_sentiment_index_populated(self, platform_stack):
        assert len(platform_stack["sentiment_index"]) > 0

    def test_concept_query_finds_sentiment_pages(self, platform_stack):
        positives = platform_stack["index"].search("sentiment:+")
        assert positives  # at least one page carries positive sentiment

    def test_boolean_and_concept_combined(self, platform_stack):
        index = platform_stack["index"]
        combined = index.search("sentiment:+ AND camera")
        assert combined <= index.search("camera")


class TestServices:
    def test_counts_service_consistent_with_index(self, platform_stack):
        bus = platform_stack["bus"]
        sentiment_index = platform_stack["sentiment_index"]
        for subject in sentiment_index.subjects()[:3]:
            via_service = bus.request("sentiment.counts", {"subject": subject})
            direct = sentiment_index.counts(subject)
            assert via_service["ok"] is True
            assert via_service["data"]["positive"] == direct[Polarity.POSITIVE]
            assert via_service["data"]["negative"] == direct[Polarity.NEGATIVE]

    def test_sentence_listing_returns_real_sentences(self, platform_stack):
        bus = platform_stack["bus"]
        subject = platform_stack["sentiment_index"].subjects()[0]
        rows = bus.request("sentiment.sentences", {"subject": subject})["data"]["rows"]
        assert rows
        for row in rows:
            assert subject.lower() in row["sentence"].lower()
            assert row["sentence"].endswith((".", "!", "?"))


class TestDeterminism:
    def test_same_seed_same_judgments(self):
        def run():
            reviews = ReviewGenerator(DIGITAL_CAMERA, seed=99).generate_dplus(4)
            miner = SentimentMiner(subjects=[Subject(p) for p in DIGITAL_CAMERA.products])
            out = []
            for d in reviews:
                result = miner.mine_document(d.text, d.doc_id)
                out.extend(j.as_pair() for j in result.judgments)
            return out

        assert run() == run()
