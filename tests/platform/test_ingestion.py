"""Unit tests for the crawler and ingestors."""

import pytest

from repro.platform.datastore import DataStore
from repro.platform.ingestion import (
    BulletinBoardIngestor,
    CrawlPage,
    CustomerDataIngestor,
    IngestionManager,
    NewsFeedIngestor,
    WebCrawler,
)


def site():
    return {
        "http://a": CrawlPage("http://a", "Page A.", links=("http://b", "http://c")),
        "http://b": CrawlPage("http://b", "Page B.", links=("http://a",)),
        "http://c": CrawlPage("http://c", "Page C.", links=("http://d",)),
        "http://d": CrawlPage("http://d", "Page D."),
    }


class TestWebCrawler:
    def test_bfs_visits_reachable_pages(self):
        crawler = WebCrawler(site(), seeds=["http://a"])
        ids = [e.entity_id for e in crawler.fetch()]
        assert ids == ["web:http://a", "web:http://b", "web:http://c", "web:http://d"]

    def test_cycle_safe(self):
        crawler = WebCrawler(site(), seeds=["http://a"])
        assert len(list(crawler.fetch())) == 4

    def test_max_pages_budget(self):
        crawler = WebCrawler(site(), seeds=["http://a"], max_pages=2)
        assert len(list(crawler.fetch())) == 2

    def test_unreachable_pages_skipped(self):
        crawler = WebCrawler(site(), seeds=["http://c"])
        ids = {e.entity_id for e in crawler.fetch()}
        assert ids == {"web:http://c", "web:http://d"}

    def test_dead_seed_ignored(self):
        crawler = WebCrawler(site(), seeds=["http://nowhere"])
        assert list(crawler.fetch()) == []

    def test_url_in_metadata(self):
        crawler = WebCrawler(site(), seeds=["http://a"], max_pages=1)
        (entity,) = crawler.fetch()
        assert entity.metadata["url"] == "http://a"

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            WebCrawler(site(), seeds=[], max_pages=0)


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
        manager.add_source(WebCrawler(site(), seeds=["http://a"]))
        manager.add_source(NewsFeedIngestor([("T", "B.", "2004-01-01")]))
        report = manager.ingest()
        assert report.per_source == {"webcrawl": 4, "newsfeed": 1}
        assert report.total == 5
        assert len(store) == 5

    def test_sources_listed(self):
        manager = IngestionManager(DataStore())
        manager.add_source(NewsFeedIngestor([]))
        assert manager.sources == ["newsfeed"]
