"""Ingestion: crawler and source-specific ingestors.

"Large-scale Web content acquisition is done by Web crawlers.
Acquisition of other sources, such as traditional news feeds,
preprocessed bulletin boards, NNTP, and a variety of both structured and
unstructured customer data is done by a set of ingestors that handle the
unique delivery method and format of each source."

Sources here are synthetic (DESIGN.md Section 2) but each ingestor still
owns a distinct wire format, so the ingestion → datastore path is real:

* :class:`WebCrawler` — follows links within a seeded synthetic site map;
* :class:`NewsFeedIngestor` — headline/body records;
* :class:`BulletinBoardIngestor` — threaded posts, flattened per thread;
* :class:`CustomerDataIngestor` — structured ``field=value`` records.

:class:`IngestionManager` drains these sources into the
:class:`~repro.platform.datastore.DataStore` in one offline pass.  The
live path is separate: :class:`DocumentDelta` batches (adds, updates,
deletes) are appended to the
:class:`~repro.platform.wal.WriteAheadLog` and applied by
:class:`~repro.platform.segments.LiveIndexer`, which seals the log
record once the batch's segment is absorbed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from .datastore import DataStore
from .entity import Entity


class Source(abc.ABC):
    """A document source feeding the ingestion manager."""

    name: str = "source"

    @abc.abstractmethod
    def fetch(self) -> Iterator[Entity]:
        """Yield entities in delivery order."""


@dataclass
class CrawlPage:
    """One synthetic web page with outgoing links."""

    url: str
    content: str
    links: tuple[str, ...] = ()
    metadata: dict[str, Any] = field(default_factory=dict)


class WebCrawler(Source):
    """Breadth-first crawler over an in-memory site graph.

    Honors per-host page budgets the way a polite crawler would; the
    graph is a dict url → :class:`CrawlPage`.
    """

    name = "webcrawl"

    def __init__(self, site: dict[str, CrawlPage], seeds: Iterable[str], max_pages: int = 10000):
        if max_pages < 1:
            raise ValueError("max_pages must be positive")
        self._site = dict(site)
        self._seeds = list(seeds)
        self._max_pages = max_pages

    def fetch(self) -> Iterator[Entity]:
        visited: set[str] = set()
        frontier = list(self._seeds)
        count = 0
        while frontier and count < self._max_pages:
            url = frontier.pop(0)
            if url in visited or url not in self._site:
                continue
            visited.add(url)
            page = self._site[url]
            metadata = {"url": url, "links": list(page.links), **page.metadata}
            yield Entity(
                entity_id=f"web:{url}",
                content=page.content,
                source=self.name,
                metadata=metadata,
            )
            count += 1
            frontier.extend(link for link in page.links if link not in visited)


class NewsFeedIngestor(Source):
    """Traditional news feed: (headline, body, date) records."""

    name = "newsfeed"

    def __init__(self, articles: Iterable[tuple[str, str, str]]):
        self._articles = list(articles)

    def fetch(self) -> Iterator[Entity]:
        for index, (headline, body, date) in enumerate(self._articles):
            yield Entity(
                entity_id=f"news:{index:06d}",
                content=f"{headline}. {body}",
                source=self.name,
                metadata={"headline": headline, "date": date},
            )


class BulletinBoardIngestor(Source):
    """Preprocessed bulletin board threads: one entity per thread."""

    name = "bboard"

    def __init__(self, threads: Iterable[tuple[str, list[str]]]):
        self._threads = list(threads)

    def fetch(self) -> Iterator[Entity]:
        for index, (topic, posts) in enumerate(self._threads):
            yield Entity(
                entity_id=f"bboard:{index:06d}",
                content=" ".join(posts),
                source=self.name,
                metadata={"topic": topic, "posts": len(posts)},
            )


class CustomerDataIngestor(Source):
    """Structured customer records with one free-text field."""

    name = "customer"

    def __init__(self, records: Iterable[dict[str, Any]], text_field: str = "comment"):
        self._records = list(records)
        self._text_field = text_field

    def fetch(self) -> Iterator[Entity]:
        for index, record in enumerate(self._records):
            text = str(record.get(self._text_field, ""))
            metadata = {k: v for k, v in record.items() if k != self._text_field}
            yield Entity(
                entity_id=f"customer:{index:06d}",
                content=text,
                source=self.name,
                metadata=metadata,
            )


#: Document delta kinds flowing to the incremental indexer.
DELTA_ADD = "add"
DELTA_UPDATE = "update"
DELTA_DELETE = "delete"
DELTA_KINDS = (DELTA_ADD, DELTA_UPDATE, DELTA_DELETE)


@dataclass(frozen=True)
class DocumentDelta:
    """One document-level change.

    ``add`` and ``update`` carry the full new entity version (documents
    are indexed atomically, never patched); ``delete`` carries only the
    id.  Deltas are totally ordered by delivery: a later delta for the
    same id supersedes an earlier one.
    """

    kind: str
    entity_id: str
    entity: Entity | None = None

    def __post_init__(self) -> None:
        if self.kind not in DELTA_KINDS:
            raise ValueError(f"unknown delta kind {self.kind!r}")
        if not self.entity_id:
            raise ValueError("delta requires an entity_id")
        if self.kind == DELTA_DELETE:
            if self.entity is not None:
                raise ValueError("delete deltas carry no entity body")
        else:
            if self.entity is None:
                raise ValueError(f"{self.kind} delta requires an entity body")
            if self.entity.entity_id != self.entity_id:
                raise ValueError(
                    f"delta id {self.entity_id!r} disagrees with entity id "
                    f"{self.entity.entity_id!r}"
                )


@dataclass
class IngestionReport:
    """Per-source ingestion counts."""

    per_source: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.per_source.values())


class IngestionManager:
    """Pulls every whole-corpus :class:`Source` and loads the data store.

    :meth:`ingest` drains the sources in one offline pass.  Live
    document changes do not come through here: they are
    :class:`DocumentDelta` batches that the caller logs in a
    :class:`~repro.platform.wal.WriteAheadLog` and hands to
    :meth:`~repro.platform.segments.LiveIndexer.apply_batch`.
    """

    def __init__(self, store: DataStore):
        self._store = store
        self._sources: list[Source] = []

    def add_source(self, source: Source) -> None:
        self._sources.append(source)

    @property
    def sources(self) -> list[str]:
        return [s.name for s in self._sources]

    def ingest(self) -> IngestionReport:
        """Drain every source into the store."""
        report = IngestionReport()
        for source in self._sources:
            count = 0
            for entity in source.fetch():
                self._store.store(entity)
                count += 1
            report.per_source[source.name] = report.per_source.get(source.name, 0) + count
        return report
