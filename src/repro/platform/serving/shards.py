"""Replicated index shards for the mode-B serving layer.

The offline half of mode B produces one big :class:`SentimentIndex` and
one big :class:`InvertedIndex`.  At serving scale a single copy is both
a capacity ceiling and a single point of failure, so the serving layer
partitions them:

* the **sentiment index** is sharded by *subject* hash — a per-subject
  ``counts``/``sentences`` query touches exactly one shard;
* the **inverted index** is sharded by *entity* hash — a ``search``
  fans out to every shard and unions the postings.

Each shard is replicated ``replication`` times.  Replica *r* of shard
*s* is placed on simulated node ``(s + r) % num_nodes`` — the same
successor-placement scheme the batch cluster uses — so a
:meth:`FaultPlan.kill_node <repro.platform.faults.FaultPlan.kill_node>`
takes down one replica of several shards but (with R ≥ 2 and a single
death) never every replica of any shard.

Hashing uses md5 like :func:`repro.platform.datastore.default_partitioner`
so shard assignment is stable across processes (Python's builtin hash is
salted per-run).

Since the incremental path landed, every replica holds a **segment
log** (:class:`~repro.platform.segments.ShardSegment`): the mutable base
at version 0 that the offline bulk-build writes into, plus an immutable
slice of every absorbed :class:`~repro.platform.segments.IndexSegment`.
Replicas of a shard share the base and slice objects, so each shard's
content is built once whatever the replication factor.  A replica's log
is an immutable tuple that only :class:`ReplicatedIndex`'s writers
replace (:meth:`ShardReplica.rebind`).
Reads go through :meth:`ShardReplica.view`, which pins a version and
returns a :class:`~repro.platform.segments.ReplicaSnapshot` — the
router pins once per request, so a query never sees a torn segment set
even while absorbs and compactions run mid-flight.  The replica keeps
its last snapshot and hands it out again while its log and the pinned
version are unchanged, so a read builds nothing; replacing the log
drops it.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ...core.model import SentimentJudgment
from ..entity import Entity
from ..segments import (
    IndexSegment,
    InvertedSnapshot,
    ReplicaSnapshot,
    SentimentSnapshot,
    ShardSegment,
    merge_segments,
)


def shard_of(key: str, num_shards: int) -> int:
    """Stable md5-based shard assignment for a subject or entity id."""
    digest = hashlib.md5(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % num_shards


def segment_docs(segment: ShardSegment) -> int:
    """Transferable size of one segment: documents plus sentiment entries.

    Recovery charges ``TRANSFER_COST_PER_DOC`` per unit shipped, the
    same accounting :meth:`ReplicatedIndex.compact` uses for rewrites.
    """
    return len(segment.inverted.doc_ids) + len(segment.sentiment)


def segment_digest(segment: ShardSegment) -> str:
    """Content digest of one shard segment, for anti-entropy comparison.

    Two segments with equal digests hold the same observable content —
    the digest covers the version, the sorted tombstones, the sorted
    document ids, and every sentiment entry in sorted-subject order.
    It is *content*-based on purpose: distinct Python objects (the same
    log built by two runs, a replayed slice) must compare equal when
    they would answer every query identically.  Replicas that agree
    share segment objects (one base per shard, one merge per distinct
    prefix), so the memo below hashes each one once for all its holders.

    The digest is memoised on the segment against a content stamp: the
    version, the tombstone set, and the identity and ``mutations``
    counter of both indexes.  Every index write bumps its counter, so a
    mutable base (or one shared by two replicas) re-hashes after a write
    while an absorbed slice is hashed once in its life.
    """
    sentiment = segment.sentiment
    inverted = segment.inverted
    stamp = (
        segment.version,
        segment.tombstones,
        sentiment,
        sentiment.mutations,
        inverted,
        inverted.mutations,
    )
    memo = segment._digest_memo
    if memo is not None and memo[0] == stamp:
        return memo[1]
    digest = _segment_hash(segment)
    segment._digest_memo = (stamp, digest)
    return digest


def _segment_hash(segment: ShardSegment) -> str:
    """The md5 walk behind :func:`segment_digest` (uncached)."""
    h = hashlib.md5()
    h.update(str(segment.version).encode("utf-8"))
    for tombstone in sorted(segment.tombstones):
        h.update(b"\x00t")
        h.update(tombstone.encode("utf-8"))
    for doc_id in sorted(segment.inverted.doc_ids):
        h.update(b"\x00d")
        h.update(doc_id.encode("utf-8"))
    for subject, entries in segment.sentiment.items():
        for entry in entries:
            h.update(b"\x00s")
            h.update(
                repr(
                    (subject, entry.entity_id, entry.polarity.value, entry.start, entry.end)
                ).encode("utf-8")
            )
    return h.hexdigest()


@dataclass
class ShardReplica:
    """One replica of one shard, pinned to a simulated node.

    ``segments[0]`` is the mutable base (version 0, or the latest
    compaction merge) that bulk builds write into; later entries are
    immutable absorbed slices.  Replicas of a shard share these segment
    objects by reference wherever their logs agree.  The log is a tuple
    that only :class:`ReplicatedIndex`'s writers replace, through
    :meth:`rebind`.  The ``sentiment``/``inverted`` properties are
    read-only snapshots at the latest version.
    """

    shard_id: int
    replica: int  # 0 = primary copy, 1.. = replicas
    node_id: int
    segments: tuple[ShardSegment, ...]
    # (log, pinned version, snapshot) of the last view; see :meth:`view`.
    _view: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def base(self) -> ShardSegment:
        return self.segments[0]

    @property
    def latest_version(self) -> int:
        return self.segments[-1].version

    def rebind(self, segments: tuple[ShardSegment, ...]) -> None:
        """Replace the log; the cached snapshot goes with the old one."""
        self.segments = segments
        self._view = None

    def view(self, version: int | None = None) -> ReplicaSnapshot:
        """A snapshot at *version* (default: latest) — no torn reads.

        The last snapshot is reused while the log object and the pinned
        version are unchanged: the visible segments and their masks
        depend on nothing else, and the snapshot reads index content
        live, so bulk writes into the base show through it.
        """
        log = self.segments
        pinned = log[-1].version if version is None else version
        memo = self._view
        if memo is not None and memo[0] is log and memo[1] == pinned:
            return memo[2]
        snapshot = ReplicaSnapshot(pinned, log)
        self._view = (log, pinned, snapshot)
        return snapshot

    @property
    def sentiment(self) -> SentimentSnapshot:
        return self.view().sentiment

    @property
    def inverted(self) -> InvertedSnapshot:
        return self.view().inverted

    def describe(self) -> str:
        return f"shard{self.shard_id}/r{self.replica}@node{self.node_id}"

    def shares_log(self, other: "ShardReplica") -> bool:
        """Same segment objects in the same order as *other*'s log.

        Such logs have equal version vectors, known without a digest.
        """
        ours, theirs = self.segments, other.segments
        return ours is theirs or (
            len(ours) == len(theirs) and all(map(operator.is_, ours, theirs))
        )

    def version_vector(self) -> tuple[tuple[int, str], ...]:
        """(version, content digest) per segment — the anti-entropy unit.

        Two replicas of a shard are byte-identical for every query iff
        their version vectors are equal; a shared prefix tells the
        recovery manager how much of the log the peer already holds.
        """
        return tuple((s.version, segment_digest(s)) for s in self.segments)


class ReplicatedIndex:
    """The serving layer's sharded, replicated view of the mode-B indexes.

    Writes fan out to every replica of the owning shard — bulk builds
    into the base segment, incremental batches as absorbed segment
    slices.  Reads are the router's business — it picks replicas by
    breaker state and node health, hedges slow ones, and degrades when a
    shard has no live replica left.

    Snapshot consistency: :meth:`pin` fixes the visible version for a
    request; :meth:`compact` only merges segment prefixes at or below
    the lowest active pin, so a pinned reader's segment set never
    changes underneath it.
    """

    def __init__(self, num_shards: int, num_nodes: int, replication: int = 2):
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        if not 1 <= replication <= num_nodes:
            raise ValueError(
                f"replication must lie in [1, {num_nodes}], got {replication}"
            )
        self.num_shards = num_shards
        self.num_nodes = num_nodes
        self.replication = replication
        # replicas[shard_id] is primary-first; placement is successor
        # style: replica r of shard s lives on node (s + r) % num_nodes.
        # Every replica of a shard starts on one shared base segment, so
        # a bulk write lands once per shard (see :meth:`_bases`).
        self._replicas: dict[int, list[ShardReplica]] = {}
        for shard_id in range(num_shards):
            base = ShardSegment(version=0)
            self._replicas[shard_id] = [
                ShardReplica(
                    shard_id=shard_id,
                    replica=r,
                    node_id=(shard_id + r) % num_nodes,
                    segments=(base,),
                )
                for r in range(replication)
            ]
        self._version = 0
        self._pins: dict[int, int] = {}
        # node_id -> up?  None means every node is always up (the
        # pre-recovery behaviour); the recovery manager installs a
        # fault-plan-and-clock-aware callable so absorbs and compactions
        # skip replicas whose host is down — that is exactly what makes
        # a rejoining node stale and anti-entropy catch-up meaningful.
        self._liveness: Callable[[int], bool] | None = None

    def set_liveness(self, liveness: Callable[[int], bool] | None) -> None:
        """Install a ``node_id -> up?`` probe consulted by writers."""
        self._liveness = liveness

    def node_up(self, node_id: int) -> bool:
        return self._liveness is None or self._liveness(node_id)

    # -- construction (the offline half of mode B) -------------------------------

    def _bases(self, shard_id: int) -> list[ShardSegment]:
        """Each distinct base segment of a shard, once.

        Replicas share their base by reference: all of them start on one
        version-0 segment, a compaction hands replicas with the same
        prefix one merged segment, and a recovery copy (:meth:`add_replica`,
        a full :meth:`sync_replica`) takes its donor's.  A bulk write must
        land in each shared object once, not once per replica holding it.
        """
        return list({id(r.base): r.base for r in self._replicas[shard_id]}.values())

    def add_judgment(self, judgment: SentimentJudgment) -> None:
        shard_id = shard_of(judgment.subject_name.lower(), self.num_shards)
        for base in self._bases(shard_id):
            base.sentiment.add_judgment(judgment)

    def add_judgments(self, judgments: Iterable[SentimentJudgment]) -> int:
        count = 0
        for judgment in judgments:
            self.add_judgment(judgment)
            count += 1
        return count

    def add_entity(self, entity: Entity) -> None:
        shard_id = shard_of(entity.entity_id, self.num_shards)
        for base in self._bases(shard_id):
            base.inverted.add_entity(entity)

    def add_entities(self, entities: Iterable[Entity]) -> int:
        count = 0
        for entity in entities:
            self.add_entity(entity)
            count += 1
        return count

    # -- incremental path (segment absorb / snapshot pins / compaction) ----------

    @property
    def current_version(self) -> int:
        return self._version

    def absorb(self, segment: IndexSegment) -> int:
        """Slice one sealed segment across the shards; returns the new version.

        Each shard gets one immutable :class:`ShardSegment` shared by
        all its replicas: sentiment entries routed by subject hash,
        inverted documents by entity-id hash.  One
        :meth:`~repro.platform.indexer.InvertedIndex.partition` walk
        cuts every shard's inverted slice from the sealed segment's
        postings, sharing their position tuples, so no document is
        tokenized again and no posting is visited twice.  Every shard's
        slice carries the segment's *full* tombstone set — a deleted
        document's sentiment entries may live in any subject shard, and
        surplus tombstones mask nothing that exists.

        Replicas hosted on a down node (per :meth:`set_liveness`) do
        *not* receive the slice: a crashed machine cannot accept
        writes, and the gap is what anti-entropy repairs on rejoin.
        """
        version = self._version + 1
        num_shards = self.num_shards
        slices = [
            ShardSegment(version=version, inverted=inverted, tombstones=segment.tombstones)
            for inverted in segment.inverted.partition(
                lambda entity_id: shard_of(entity_id, num_shards), num_shards
            )
        ]
        for subject, entries in segment.sentiment.items():
            target = slices[shard_of(subject, num_shards)].sentiment
            for entry in entries:
                target.add_entry(entry)
        for shard_id in range(num_shards):
            for replica in self._replicas[shard_id]:
                if self.node_up(replica.node_id):
                    replica.rebind(replica.segments + (slices[shard_id],))
        self._version = version
        return version

    def pin(self) -> int:
        """Pin the current version for a read; pair with :meth:`release`."""
        version = self._version
        self._pins[version] = self._pins.get(version, 0) + 1
        return version

    def release(self, version: int) -> None:
        count = self._pins.get(version, 0)
        if count <= 1:
            self._pins.pop(version, None)
        else:
            self._pins[version] = count - 1

    def active_pins(self) -> dict[int, int]:
        """Version → outstanding reads (for tests and reports)."""
        return dict(self._pins)

    def compaction_floor(self) -> int:
        """Highest version compaction may merge up to (lowest active pin)."""
        if self._pins:
            return min(self._pins)
        return self._version

    def max_segment_count(self) -> int:
        """Longest replica segment log (the compaction trigger)."""
        return max(
            len(replica.segments)
            for replicas in self._replicas.values()
            for replica in replicas
        )

    def compact(self) -> tuple[int, int]:
        """Merge every live replica's mergeable prefix into its base segment.

        Only segments at or below :meth:`compaction_floor` are merged, so
        pinned snapshots keep reading exactly the set they pinned.
        Replicas of a shard whose prefixes are the same segment objects
        share one merged segment, built once.  The returned
        ``(segments_merged, documents_rewritten)`` still counts every
        replica's rewrite — each node rewrites its own copy, and the
        caller charges simulated cost from the latter.
        """
        floor = self.compaction_floor()
        merged_total = 0
        rewritten = 0
        for replicas in self._replicas.values():
            # Prefix segment ids -> (prefix, merged); holding the prefix
            # keeps its ids from being reused while the shard is walked.
            merges: dict[tuple[int, ...], tuple[list[ShardSegment], ShardSegment]] = {}
            for replica in replicas:
                if not self.node_up(replica.node_id):
                    # A down node cannot rewrite its own log; its
                    # backlog is resolved by anti-entropy on rejoin.
                    continue
                prefix = [s for s in replica.segments if s.version <= floor]
                if len(prefix) < 2:
                    continue
                key = tuple(id(s) for s in prefix)
                if key not in merges:
                    merges[key] = (prefix, merge_segments(prefix))
                merged = merges[key][1]
                rewritten += segment_docs(merged)
                replica.rebind((merged, *replica.segments[len(prefix) :]))
                merged_total += len(prefix)
        return merged_total, rewritten

    # -- routing -----------------------------------------------------------------

    def subject_shard(self, subject: str) -> int:
        """The single shard answering queries about *subject*."""
        return shard_of(subject.lower(), self.num_shards)

    def replicas_for(self, shard_id: int) -> list[ShardReplica]:
        """All replicas of a shard, primary first."""
        return list(self._replicas[shard_id])

    def replicas_on(self, node_id: int) -> list[ShardReplica]:
        """Every shard replica hosted on one node (shard order)."""
        return [
            replica
            for shard_id in range(self.num_shards)
            for replica in self._replicas[shard_id]
            if replica.node_id == node_id
        ]

    def shard_ids(self) -> range:
        return range(self.num_shards)

    def nodes_for(self, shard_id: int) -> list[int]:
        """Node ids hosting a shard (primary first)."""
        return [replica.node_id for replica in self._replicas[shard_id]]

    def placement(self) -> dict[int, list[int]]:
        """Shard id → hosting node ids, for reports and tests."""
        return {shard_id: self.nodes_for(shard_id) for shard_id in self.shard_ids()}

    def replica_on(self, node_id: int, shard_id: int) -> ShardReplica | None:
        """The replica of *shard_id* hosted on *node_id*, if any.

        Looked up live (not cached) so node services see replicas the
        recovery manager adds or drops while the cluster is serving.
        """
        for replica in self._replicas[shard_id]:
            if replica.node_id == node_id:
                return replica
        return None

    # -- recovery (re-replication and anti-entropy catch-up) ---------------------

    def live_replication(self) -> dict[int, int]:
        """Shard id → replicas currently hosted on *up* nodes."""
        return {
            shard_id: sum(
                1 for replica in replicas if self.node_up(replica.node_id)
            )
            for shard_id, replicas in self._replicas.items()
        }

    def under_replicated(self) -> list[int]:
        """Shards with fewer live replicas than the replication factor."""
        return [
            shard_id
            for shard_id, live in sorted(self.live_replication().items())
            if live < self.replication
        ]

    def add_replica(
        self, shard_id: int, node_id: int, source: ShardReplica
    ) -> tuple[ShardReplica, int]:
        """Materialise an extra replica of a shard from a donor copy.

        The new replica starts as a transfer of the donor's entire
        segment log (immutable slices are shared by reference, exactly
        as absorb shares them).  Returns the replica plus the number of
        documents shipped, which the caller charges at
        ``TRANSFER_COST_PER_DOC``.
        """
        if any(r.node_id == node_id for r in self._replicas[shard_id]):
            raise ValueError(f"node {node_id} already hosts shard {shard_id}")
        replica = ShardReplica(
            shard_id=shard_id,
            replica=max(r.replica for r in self._replicas[shard_id]) + 1,
            node_id=node_id,
            segments=source.segments,
        )
        self._replicas[shard_id].append(replica)
        return replica, sum(segment_docs(s) for s in source.segments)

    def drop_replica(self, shard_id: int, node_id: int) -> ShardReplica:
        """Retire the replica of *shard_id* on *node_id* (recovery only)."""
        for index, replica in enumerate(self._replicas[shard_id]):
            if replica.node_id == node_id:
                return self._replicas[shard_id].pop(index)
        raise ValueError(f"node {node_id} hosts no replica of shard {shard_id}")

    def sync_replica(self, target: ShardReplica, source: ShardReplica) -> int:
        """Anti-entropy: make *target*'s segment log equal *source*'s.

        Version vectors are compared pairwise; when the target's log is
        a digest-exact prefix of the source's, only the missing suffix
        is shipped.  Any divergence (the source compacted while the
        target was down, or the target lost its log entirely) falls
        back to a full transfer.  Returns the documents shipped — zero
        when the replicas already agree.
        """
        source_vector = source.version_vector()
        target_vector = target.version_vector()
        if target_vector == source_vector:
            return 0
        common = 0
        for ours, theirs in zip(target_vector, source_vector):
            if ours != theirs:
                break
            common += 1
        if common == len(target_vector):
            # Clean suffix catch-up: ship only what the target missed.
            shipped = source.segments[common:]
            target.rebind(target.segments + shipped)
        else:
            # Divergent logs: full resync from the donor.
            shipped = source.segments
            target.rebind(shipped)
        return sum(segment_docs(s) for s in shipped)
