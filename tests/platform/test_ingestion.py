"""Unit tests for the ingestors."""

from repro.platform.datastore import DataStore
from repro.platform.ingestion import (
    BulletinBoardIngestor,
    CustomerDataIngestor,
    IngestionManager,
    NewsFeedIngestor,
)


class TestIngestors:
    def test_newsfeed(self):
        ingestor = NewsFeedIngestor([("Title", "Body text.", "2004-05-01")])
        (entity,) = ingestor.fetch()
        assert entity.source == "newsfeed"
        assert entity.content == "Title. Body text."
        assert entity.metadata["date"] == "2004-05-01"

    def test_bboard_flattens_thread(self):
        ingestor = BulletinBoardIngestor([("cameras", ["First post.", "Reply."])])
        (entity,) = ingestor.fetch()
        assert entity.content == "First post. Reply."
        assert entity.metadata["posts"] == 2

    def test_customer_records(self):
        ingestor = CustomerDataIngestor(
            [{"account": 42, "comment": "Great service."}]
        )
        (entity,) = ingestor.fetch()
        assert entity.content == "Great service."
        assert entity.metadata == {"account": 42}

    def test_customer_custom_text_field(self):
        ingestor = CustomerDataIngestor(
            [{"note": "Bad service.", "id": 1}], text_field="note"
        )
        (entity,) = ingestor.fetch()
        assert entity.content == "Bad service."


class TestIngestionManager:
    def test_multi_source_ingest(self):
        store = DataStore(num_partitions=2)
        manager = IngestionManager(store)
        manager.add_source(
            CustomerDataIngestor([{"comment": f"Note {i}."} for i in range(4)])
        )
        manager.add_source(NewsFeedIngestor([("T", "B.", "2004-01-01")]))
        report = manager.ingest()
        assert report.per_source == {"customer": 4, "newsfeed": 1}
        assert report.total == 5
        assert len(store) == 5

    def test_sources_listed(self):
        manager = IngestionManager(DataStore())
        manager.add_source(NewsFeedIngestor([]))
        assert manager.sources == ["newsfeed"]
