"""Incremental indexing: document deltas → immutable segments → live shards.

The paper's WebFountain ran a continuous crawl→analyze→index→serve loop;
this module is that loop's index side.  Ingestion emits
:class:`~.ingestion.DocumentDelta` batches, a :class:`DeltaIndexer`
mines each batch and seals it into an immutable :class:`IndexSegment`
(a mini sentiment + inverted index over just that batch), and the
serving shards absorb segments while continuing to answer queries.

The segment model (DESIGN.md §5f):

* **segments are immutable** — once sealed, a segment's indexes never
  change; updates and deletes in later batches *mask* earlier copies via
  tombstones instead of mutating them;
* **tombstones mask strictly earlier segments only** — a segment's own
  documents are always net of its own batch (the :class:`DeltaIndexer`
  resolves intra-batch update/delete chains while building);
* **snapshot reads** — a reader pins a version and sees exactly the
  segments sealed at or before it, no matter what absorbs or compactions
  happen mid-read (no torn views);
* **prefix compaction** — merging always starts at the base segment, so
  every tombstone in the merged prefix resolves and the merged segment
  carries none.

The equivalence contract, enforced by tests and the freshness bench:
for the same seed, indexing a corpus in one offline pass and indexing it
as N incremental batches (any partition, updates and deletes included)
converge to byte-identical query results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..core.miner import SentimentMiner
from ..core.model import Polarity
from ..obs import Obs
from ..obs.audit import AuditEntry
from ..obs.context import ROOT
from .indexer import InvertedIndex, SentimentEntry, SentimentIndex
from .ingestion import DELTA_DELETE, DocumentDelta

if TYPE_CHECKING:  # pragma: no cover
    from .query import Query

#: Simulated cost charged per document sealed into a segment (indexing
#: work on top of the mining stage costs the miner itself charges).
SEAL_COST_PER_DOC = 0.01

#: Simulated cost charged per document rewritten by a compaction merge.
COMPACT_COST_PER_DOC = 0.002

#: Audit-entry kind recorded for every compaction decision.
AUDIT_KIND_COMPACTION = "compaction"


@dataclass(frozen=True)
class SegmentStats:
    """What one sealed segment contains."""

    documents: int
    deletes: int
    judgments: int


class IndexSegment:
    """One sealed batch: mini indexes plus the batch's tombstones.

    Immutable by convention: nothing in the codebase mutates a segment
    after :meth:`DeltaIndexer.index_batch` returns it, and the serving
    shards share segment objects across replicas on that basis.
    """

    def __init__(
        self,
        segment_id: int,
        sentiment: SentimentIndex,
        inverted: InvertedIndex,
        tombstones: frozenset[str],
        stats: SegmentStats,
    ):
        self.segment_id = segment_id
        self.sentiment = sentiment
        self.inverted = inverted
        self.tombstones = tombstones
        self.stats = stats

    @property
    def doc_ids(self) -> frozenset[str]:
        return self.inverted.doc_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexSegment(id={self.segment_id}, docs={self.stats.documents}, "
            f"deletes={self.stats.deletes})"
        )


class DeltaIndexer:
    """Turns a batch of document deltas into one immutable segment.

    Adds and updates are mined (the same per-document pipeline as the
    offline pass — determinism of the equivalence gate rests on this)
    and indexed; deletes become tombstones.  Every delta's id is
    tombstoned so earlier copies of updated documents are masked; the
    segment's own indexes are already net of intra-batch chains.
    """

    def __init__(self, miner: SentimentMiner, obs: Obs | None = None):
        self._miner = miner
        self._obs = obs if obs is not None else Obs.default()
        self._next_segment_id = 0

    def index_batch(self, deltas: Iterable[DocumentDelta]) -> IndexSegment:
        """Mine and seal one batch (delivery order) into a segment."""
        deltas = list(deltas)
        obs = self._obs
        sentiment = SentimentIndex()
        inverted = InvertedIndex()
        live: set[str] = set()
        tombstones: set[str] = set()
        deletes = 0
        judgments = 0
        with obs.tracer.span(
            "segment.build", segment_id=self._next_segment_id, deltas=len(deltas)
        ) as span:
            for delta in deltas:
                tombstones.add(delta.entity_id)
                if delta.kind == DELTA_DELETE:
                    deletes += 1
                    if delta.entity_id in live:
                        live.remove(delta.entity_id)
                        inverted.remove_entity(delta.entity_id)
                        judgments -= sentiment.remove_document(delta.entity_id)
                    continue
                entity = delta.entity
                if delta.entity_id in live:
                    # Intra-batch update: the segment stays net.
                    inverted.remove_entity(delta.entity_id)
                    judgments -= sentiment.remove_document(delta.entity_id)
                result = self._miner.mine_document(entity.content, entity.entity_id)
                judgments += sentiment.add_all(result.polar_judgments())
                inverted.add_entity(entity)
                live.add(delta.entity_id)
                obs.clock.advance(SEAL_COST_PER_DOC)
            span.set_attribute("documents", len(live))
            span.set_attribute("tombstones", len(tombstones))
        segment = IndexSegment(
            segment_id=self._next_segment_id,
            sentiment=sentiment,
            inverted=inverted,
            tombstones=frozenset(tombstones),
            stats=SegmentStats(
                documents=len(live), deletes=deletes, judgments=judgments
            ),
        )
        self._next_segment_id += 1
        obs.metrics.counter("segments.sealed").inc()
        obs.metrics.counter("segments.documents").inc(len(live))
        return segment


# ---------------------------------------------------------------------------
# shard-side segments and snapshot views
# ---------------------------------------------------------------------------


@dataclass
class ShardSegment:
    """One shard's slice of a sealed segment, tagged with its version.

    Version 0 is the mutable *base* segment the replicas of a shard
    start with (one object, shared) — the offline bulk-build path writes
    there.  Versions ≥ 1 are slices of absorbed :class:`IndexSegment`\\ s
    and are immutable; replicas of the same shard share the slice objects.

    ``_digest_memo`` is :func:`~.serving.shards.segment_digest`'s cache:
    ``(content stamp, digest)`` from the last time it hashed this segment.
    """

    version: int
    sentiment: SentimentIndex = field(default_factory=SentimentIndex)
    inverted: InvertedIndex = field(default_factory=InvertedIndex)
    tombstones: frozenset[str] = frozenset()
    _digest_memo: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )


def _masks(segments: Sequence[ShardSegment]) -> list[frozenset[str]]:
    """Per-segment masks: ids deleted/superseded by any *later* segment."""
    masks: list[frozenset[str]] = [frozenset()] * len(segments)
    accumulated: frozenset[str] = frozenset()
    for i in range(len(segments) - 1, -1, -1):
        masks[i] = accumulated
        accumulated = accumulated | segments[i].tombstones
    return masks


class SentimentSnapshot:
    """Read-only sentiment view over a pinned segment list.

    Mirrors the :class:`~.indexer.SentimentIndex` query API; entries from
    masked documents (deleted or superseded at a later version) are
    invisible.  Entry order is segment order then insertion order, which
    equals one-pass insertion order — the equivalence gate's requirement.
    The subject totals behind :meth:`subject_counts`, :meth:`subjects`
    and ``len`` sum each segment's memoised
    :meth:`~.indexer.SentimentIndex.live_subject_counts` under its mask,
    and are themselves memoised on the snapshot, stamped by each
    segment's sentiment index and its ``mutations`` counter: a snapshot
    reused across reads (:meth:`~.serving.shards.ShardReplica.view`)
    sums them once until a write lands in one of its segments.
    """

    def __init__(self, segments: list[ShardSegment], masks: list[frozenset[str]]):
        self._segments = segments
        self._masks = masks
        self._totals_memo: tuple | None = None

    def query(self, subject: str, polarity: Polarity | None = None) -> list[SentimentEntry]:
        out: list[SentimentEntry] = []
        for segment, mask in zip(self._segments, self._masks):
            for entry in segment.sentiment.query(subject, polarity):
                if entry.entity_id not in mask:
                    out.append(entry)
        return out

    def counts(self, subject: str) -> dict[Polarity, int]:
        out = {Polarity.POSITIVE: 0, Polarity.NEGATIVE: 0}
        for entry in self.query(subject):
            out[entry.polarity] += 1
        return out

    def _totals(self) -> dict[str, int]:
        """Subject → live entries, sorted by subject; never handed out."""
        stamp = tuple((s.sentiment, s.sentiment.mutations) for s in self._segments)
        memo = self._totals_memo
        if memo is not None and memo[0] == stamp:
            return memo[1]
        totals: dict[str, int] = {}
        for segment, mask in zip(self._segments, self._masks):
            for subject, live in segment.sentiment.live_subject_counts(mask).items():
                totals[subject] = totals.get(subject, 0) + live
        totals = dict(sorted(totals.items()))
        self._totals_memo = (stamp, totals)
        return totals

    def subject_counts(self) -> dict[str, int]:
        return dict(self._totals())

    def subjects(self) -> list[str]:
        totals = self._totals()
        return sorted(totals, key=lambda s: (-totals[s], s))

    def __len__(self) -> int:
        return sum(self._totals().values())


class InvertedSnapshot:
    """Read-only inverted-index view over a pinned segment list.

    Every live document's current version lives in exactly one segment
    (re-adds tombstone earlier copies), so per-segment query evaluation
    minus masked ids unions to exactly the single-index answer —
    including ``NOT``, phrase and range queries, which are all per-
    document predicates.
    """

    def __init__(self, segments: list[ShardSegment], masks: list[frozenset[str]]):
        self._segments = segments
        self._masks = masks

    def search(self, query: "Query | str") -> set[str]:
        out: set[str] = set()
        for segment, mask in zip(self._segments, self._masks):
            out.update(segment.inverted.search(query) - mask)
        return out

    @property
    def doc_ids(self) -> frozenset[str]:
        out: set[str] = set()
        for segment, mask in zip(self._segments, self._masks):
            out.update(segment.inverted.doc_ids - mask)
        return frozenset(out)

    @property
    def document_count(self) -> int:
        return sum(
            len(segment.inverted.doc_ids - mask)
            for segment, mask in zip(self._segments, self._masks)
        )

    def document_frequency(self, token: str) -> int:
        return sum(
            len(segment.inverted.documents_for(token) - mask)
            for segment, mask in zip(self._segments, self._masks)
        )

    def idf(self, token: str) -> float:
        df = self.document_frequency(token)
        total = self.document_count
        if df == 0 or total == 0:
            return 1.0
        return math.log(total / df) + 1.0

    def idf_table(self) -> dict[str, float]:
        tokens: set[str] = set()
        for segment in self._segments:
            tokens.update(segment.inverted.tokens())
        return {
            token: self.idf(token)
            for token in sorted(tokens)
            if self.document_frequency(token) > 0
        }


class ReplicaSnapshot:
    """One pinned, immutable view of a shard replica: no torn reads.

    The visible segments (those at or below *version*) and their masks
    are fixed at construction; index content is read live.  Masks come
    from tombstones, which only a change to the log alters, so
    :meth:`~.serving.shards.ShardReplica.view` reuses one snapshot for
    every read of an unchanged log at the same pinned version.
    """

    def __init__(self, version: int, segments: Sequence[ShardSegment]):
        self.version = version
        visible = [s for s in segments if s.version <= version]
        masks = _masks(visible)
        self.sentiment = SentimentSnapshot(visible, masks)
        self.inverted = InvertedSnapshot(visible, masks)


def merge_segments(segments: list[ShardSegment]) -> ShardSegment:
    """Compact a *prefix* of a shard's segment log into one segment.

    The prefix must start at the base segment, so every tombstone in it
    refers to a document inside the prefix; masked copies are physically
    dropped and the merged segment carries no tombstones.  The merged
    version is the prefix's highest version, so existing pins at or
    above it read identically before and after the merge.

    Each segment is absorbed once: a posting map that holds no masked
    id is copied whole, and position tuples are shared with the inputs
    rather than copied.
    """
    if not segments:
        raise ValueError("cannot merge an empty segment list")
    masks = _masks(segments)
    sentiment = SentimentIndex()
    inverted = InvertedIndex()
    for segment, mask in zip(segments, masks):
        sentiment.absorb(segment.sentiment, skip=mask)
        inverted.absorb(segment.inverted, skip=mask)
    return ShardSegment(
        version=segments[-1].version,
        sentiment=sentiment,
        inverted=inverted,
        tombstones=frozenset(),
    )


@dataclass(frozen=True)
class CompactionPolicy:
    """When shards merge their segment logs."""

    max_segments: int = 4

    def should_compact(self, segment_count: int) -> bool:
        return segment_count > self.max_segments


class LiveIndexer:
    """Drives deltas through the indexer into the serving shards.

    The crawl→analyze→index→serve loop's coordinator: each
    :meth:`apply_batch` seals one segment, has every shard absorb it,
    and runs background compaction on the simulated clock — all while
    the router keeps serving snapshot reads against pinned versions.
    Freshness (ingest-to-queryable, simulated time) is recorded per
    batch in the ``ingest.lag`` histogram.
    """

    def __init__(
        self,
        index,  # ReplicatedIndex; untyped to avoid a circular import
        delta_indexer: DeltaIndexer,
        *,
        obs: Obs | None = None,
        policy: CompactionPolicy | None = None,
        wal=None,  # WriteAheadLog; untyped to avoid a circular import
    ):
        self._index = index
        self._delta_indexer = delta_indexer
        self._obs = obs if obs is not None else Obs.default()
        self._policy = policy or CompactionPolicy()
        self._wal = wal
        self._lag = self._obs.metrics.histogram("ingest.lag")
        self._docs = self._obs.metrics.counter("ingest.documents_indexed")
        self._compaction_runs = self._obs.metrics.counter("compaction.runs")
        self._compaction_docs = self._obs.metrics.counter("compaction.merged_docs")
        self.batches_applied = 0
        self.documents_indexed = 0

    @property
    def index(self):
        return self._index

    @property
    def policy(self) -> CompactionPolicy:
        return self._policy

    def apply_batch(
        self, deltas: list[DocumentDelta], *, lsn: int = 0
    ) -> dict[str, float | int]:
        """Seal, absorb and maybe compact one batch; returns batch stats.

        Each batch is its own root trace (``ingest.batch``): background
        index maintenance must never be attributed to whatever request
        trace happens to be open, and the segment id on the span links
        the trace to the segment it produced.

        When the batch came through a write-ahead log, pass its *lsn*:
        the WAL record is sealed only after every replica has absorbed
        the segment, which is the durability point a crash-replay
        resumes from.
        """
        obs = self._obs
        started_at = obs.clock.now
        with obs.tracer.span(
            "ingest.batch", parent=ROOT, deltas=len(deltas)
        ) as batch_span:
            segment = self._delta_indexer.index_batch(deltas)
            batch_span.set_attribute("segment_id", segment.segment_id)
            with obs.tracer.span(
                "segment.absorb", segment_id=segment.segment_id
            ) as absorb_span:
                version = self._index.absorb(segment)
                absorb_span.set_attribute("version", version)
            if self._wal is not None and lsn:
                self._wal.seal(lsn)
            queryable_at = obs.clock.now
            lag = queryable_at - started_at
            self._lag.observe(lag, trace_id=batch_span.trace_id)
            self._docs.inc(segment.stats.documents)
            self.batches_applied += 1
            self.documents_indexed += segment.stats.documents
            merged = self._maybe_compact()
        return {
            "version": version,
            "documents": segment.stats.documents,
            "deletes": segment.stats.deletes,
            "judgments": segment.stats.judgments,
            "freshness_lag": lag,
            "segments_merged": merged,
        }

    def _maybe_compact(self) -> int:
        """Background merge: compact when any replica's log grows too long.

        Every time the policy trips, the decision and its outcome are
        recorded in the audit trail: the trigger (longest segment log vs
        the policy ceiling), the pin floor compaction may merge up to,
        and whether anything was actually mergeable below that floor.
        """
        obs = self._obs
        segment_count = self._index.max_segment_count()
        if not self._policy.should_compact(segment_count):
            return 0
        floor = self._index.compaction_floor()
        pins = self._index.active_pins()
        with obs.tracer.span(
            "segment.compact", segments=segment_count, floor=floor
        ) as span:
            merged, rewritten = self._index.compact()
            span.set_attribute("merged", merged)
            span.set_attribute("rewritten", rewritten)
            if merged:
                obs.clock.advance(COMPACT_COST_PER_DOC * rewritten)
        obs.audit.record(
            AuditEntry(
                kind=AUDIT_KIND_COMPACTION,
                subject=f"segments:{segment_count}",
                decision="ran" if merged else "blocked",
                reason=(
                    f"segment log {segment_count} exceeds policy max "
                    f"{self._policy.max_segments}"
                ),
                detail=(
                    ("floor", floor),
                    ("merged", merged),
                    ("pins", {str(v): n for v, n in sorted(pins.items())}),
                    ("rewritten", rewritten),
                ),
            )
        )
        if merged:
            self._compaction_runs.inc()
            self._compaction_docs.inc(rewritten)
        return merged
