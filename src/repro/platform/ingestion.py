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
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..obs import Obs
from ..obs.context import ROOT
from .datastore import DataStore
from .entity import Entity
from .wal import NullWriteAheadLog, WriteAheadLog


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

    @property
    def site_size(self) -> int:
        return len(self._site)


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


#: Document delta kinds flowing from sources to the incremental indexer.
DELTA_ADD = "add"
DELTA_UPDATE = "update"
DELTA_DELETE = "delete"
DELTA_KINDS = (DELTA_ADD, DELTA_UPDATE, DELTA_DELETE)


@dataclass(frozen=True)
class DocumentDelta:
    """One document-level change emitted by a source.

    ``add`` and ``update`` carry the full new entity version (documents
    are indexed atomically, never patched); ``delete`` carries only the
    id.  Deltas are totally ordered by delivery: a later delta for the
    same id supersedes an earlier one.
    """

    kind: str
    entity_id: str
    entity: Entity | None = None
    source: str = ""

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


class DeltaSource(abc.ABC):
    """A source that delivers document changes incrementally.

    Unlike :class:`Source` (one whole-corpus ``fetch``), a delta source
    is *polled*: each :meth:`poll` returns the next batch of changes in
    delivery order, and an empty batch means the source is (currently)
    drained.  The live crawl→analyze→index→serve loop is built on this.
    """

    name: str = "deltas"

    @abc.abstractmethod
    def poll(self, max_deltas: int | None = None) -> list[DocumentDelta]:
        """Next deltas in delivery order (empty list = drained for now)."""


class ScriptedDeltaSource(DeltaSource):
    """A pre-scripted delta stream — updates and deletes included.

    The freshness bench and the segment-lifecycle tests use this to
    replay an exact add/update/delete schedule deterministically.
    """

    def __init__(self, deltas: Iterable[DocumentDelta], name: str = "scripted", batch_size: int = 8):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.name = name
        self._pending = list(deltas)
        self._cursor = 0
        self._batch_size = batch_size

    @property
    def remaining(self) -> int:
        return len(self._pending) - self._cursor

    def poll(self, max_deltas: int | None = None) -> list[DocumentDelta]:
        limit = self._batch_size if max_deltas is None else min(self._batch_size, max_deltas)
        batch = self._pending[self._cursor : self._cursor + limit]
        self._cursor += len(batch)
        return batch


@dataclass
class IngestionReport:
    """Per-source ingestion counts.

    ``lsn`` is the write-ahead-log sequence number the increment's batch
    was appended under (0 when the manager runs without a durable log);
    callers seal it once the batch's segment is safely absorbed.
    """

    per_source: dict[str, int] = field(default_factory=dict)
    lsn: int = 0

    @property
    def total(self) -> int:
        return sum(self.per_source.values())


class IngestionManager:
    """Pulls every source and loads the data store.

    Two modes: :meth:`ingest` drains whole-corpus :class:`Source`\\ s in
    one offline pass; :meth:`ingest_increment` polls the registered
    :class:`DeltaSource`\\ s for the next batch of document deltas,
    applies them to the store (adds/updates as writes, deletes as
    tombstones) and hands the batch to the caller for incremental
    indexing.
    """

    def __init__(
        self,
        store: DataStore,
        obs: Obs | None = None,
        *,
        wal: WriteAheadLog | None = None,
    ):
        self._store = store
        self._obs = obs if obs is not None else Obs.default()
        # Always hold *a* log so the append unconditionally precedes
        # every store mutation on the increment path (PLAT004): callers
        # that opt out of durability get the no-op log.
        self._wal = wal if wal is not None else NullWriteAheadLog()
        self._sources: list[Source] = []
        self._delta_sources: list[DeltaSource] = []

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    def add_source(self, source: Source) -> None:
        self._sources.append(source)

    def add_delta_source(self, source: DeltaSource) -> None:
        self._delta_sources.append(source)

    @property
    def sources(self) -> list[str]:
        return [s.name for s in self._sources]

    @property
    def delta_sources(self) -> list[str]:
        return [s.name for s in self._delta_sources]

    def ingest(self) -> IngestionReport:
        """Drain every source into the store."""
        report = IngestionReport()
        for source in self._sources:
            count = 0
            for entity in source.fetch():
                self._store.store(entity)
                count += 1
            report.per_source[source.name] = report.per_source.get(source.name, 0) + count
        self._store.flush()
        return report

    def ingest_increment(
        self, max_deltas: int | None = None
    ) -> tuple[list[DocumentDelta], IngestionReport]:
        """Poll every delta source once and apply the batch to the store.

        Returns the concatenated deltas (source registration order, each
        source's delivery order preserved) plus per-source counts.  An
        empty delta list means every source is currently drained.

        Each increment is its own root trace (``ingest.increment``), and
        the documents applied per source are counted in the
        ``ingest.docs`` series (deletes in ``ingest.deletes``).
        """
        report = IngestionReport()
        metrics = self._obs.metrics
        with self._obs.tracer.span("ingest.increment", parent=ROOT) as span:
            polled = [(source, source.poll(max_deltas)) for source in self._delta_sources]
            batch = [delta for _, deltas in polled for delta in deltas]
            for source, deltas in polled:
                report.per_source[source.name] = (
                    report.per_source.get(source.name, 0) + len(deltas)
                )
            span.set_attribute("deltas", len(batch))
            if batch:
                # Durability before visibility: the whole batch reaches
                # the log before any store mutation (PLAT004), so a
                # crash mid-apply replays the complete increment.
                report.lsn = self._wal.append(batch)
                for source, deltas in polled:
                    docs = 0
                    deletes = 0
                    for delta in deltas:
                        if delta.kind == DELTA_DELETE:
                            self._store.delete(delta.entity_id)
                            deletes += 1
                        else:
                            self._store.store(delta.entity)
                            docs += 1
                    if docs:
                        metrics.counter("ingest.docs", source=source.name).inc(docs)
                    if deletes:
                        metrics.counter("ingest.deletes", source=source.name).inc(deletes)
                self._store.flush()
        return batch, report
