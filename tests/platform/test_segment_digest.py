"""The stamp-keyed segment digest memo: never stale, never re-hashing.

:func:`~repro.platform.serving.shards.segment_digest` caches each
segment's md5 against a content stamp (version, tombstones, and the
identity plus ``mutations`` counter of both indexes).  The properties
here drive every index mutator, stamp-field reassignment and replica
operation in random order and require the memoised digest to equal the
uncached hash after every step; the guard pins what a recovery tick
costs — nothing on a settled cluster, one hash per new segment object
after a batch.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model import Polarity, SentimentJudgment, Spot, Subject
from repro.nlp.tokens import Span
from repro.platform.entity import Entity
from repro.platform.indexer import InvertedIndex, SentimentEntry, SentimentIndex
from repro.platform.ingestion import DELTA_ADD, DocumentDelta
from repro.platform.segments import IndexSegment, SegmentStats, ShardSegment
from repro.platform.serving import ReplicatedIndex, build_scenario
from repro.platform.serving import shards
from repro.platform.serving.shards import _segment_hash, segment_digest

pytestmark = pytest.mark.recovery

SUBJECTS = ("camera", "flash", "lens")
DOCS = ("d0", "d1", "d2", "d3")
TEXTS = ("the camera is great", "the flash is awful", "lens lens camera")
POLARITIES = (Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.NEUTRAL)

subject = st.sampled_from(SUBJECTS)
doc = st.sampled_from(DOCS)
text = st.sampled_from(TEXTS)
polarity = st.sampled_from(POLARITIES)
docs = st.frozensets(doc, max_size=3)


def judgment(subject_name, doc_id, polarity_):
    return SentimentJudgment(
        spot=Spot(
            Subject(subject_name), subject_name, Span(0, len(subject_name)), 0, doc_id
        ),
        polarity=polarity_,
    )


def entry(subject_name, doc_id, polarity_):
    return SentimentEntry(subject_name, polarity_, doc_id, 0, len(subject_name))


def uncached_vector(replica):
    return tuple((s.version, _segment_hash(s)) for s in replica.segments)


# ---------------------------------------------------------------------------
# segment level: every mutator, every stamp field
# ---------------------------------------------------------------------------

SEGMENTS = 3  # a base (version 0) and two slices
seg = st.integers(0, SEGMENTS - 1)

segment_step = st.one_of(
    st.tuples(st.just("add_judgment"), seg, subject, doc, polarity),
    st.tuples(st.just("add_entry"), seg, subject, doc, polarity.filter(lambda p: p.is_polar)),
    st.tuples(st.just("remove_document"), seg, doc),
    st.tuples(st.just("absorb_sentiment"), seg, seg, docs),
    st.tuples(st.just("add_entity"), seg, doc, text),
    st.tuples(st.just("remove_entity"), seg, doc),
    st.tuples(st.just("absorb_inverted"), seg, seg, docs),
    st.tuples(st.just("version"), seg, st.integers(0, 3)),
    st.tuples(st.just("tombstones"), seg, docs),
    # Identity is part of the stamp: fresh or shared index objects.
    st.tuples(st.just("fresh_indexes"), seg),
    st.tuples(st.just("share_indexes"), seg, seg),
)


def apply_segment_step(segments, step):
    kind, target = step[0], segments[step[1]]
    if kind == "add_judgment":
        target.sentiment.add_judgment(judgment(*step[2:]))
    elif kind == "add_entry":
        target.sentiment.add_entry(entry(*step[2:]))
    elif kind == "remove_document":
        target.sentiment.remove_document(step[2])
    elif kind == "add_entity":
        target.inverted.add_entity(Entity(entity_id=step[2], content=step[3]))
    elif kind == "remove_entity":
        target.inverted.remove_entity(step[2])
    elif kind == "version":
        target.version = step[2]
    elif kind == "tombstones":
        target.tombstones = step[2]
    elif kind == "fresh_indexes":
        target.sentiment = SentimentIndex()
        target.inverted = InvertedIndex()
    else:
        source = segments[step[2]]
        if kind == "share_indexes":
            target.sentiment = source.sentiment
            target.inverted = source.inverted
        elif source.sentiment is not target.sentiment:  # never self-absorb
            if kind == "absorb_sentiment":
                target.sentiment.absorb(source.sentiment, skip=step[3])
            else:
                target.inverted.absorb(source.inverted, skip=step[3])


def populated(version):
    segment = ShardSegment(version=version)
    segment.sentiment.add_entry(entry("camera", f"v{version}", Polarity.POSITIVE))
    segment.inverted.add_entity(Entity(entity_id=f"v{version}", content=TEXTS[0]))
    return segment


def swap_indexes(segment, other):
    # Equal mutation counters, different content: only identity tells.
    segment.sentiment, other.sentiment = other.sentiment, segment.sentiment
    segment.inverted, other.inverted = other.inverted, segment.inverted


WRITES = {
    "add_judgment": lambda s, o: s.sentiment.add_judgment(
        judgment("flash", "d9", Polarity.NEGATIVE)
    ),
    "add_entry": lambda s, o: s.sentiment.add_entry(entry("flash", "d9", Polarity.NEGATIVE)),
    "remove_document": lambda s, o: s.sentiment.remove_document("v1"),
    "absorb_sentiment": lambda s, o: s.sentiment.absorb(o.sentiment),
    "add_entity": lambda s, o: s.inverted.add_entity(Entity(entity_id="d9", content=TEXTS[1])),
    "remove_entity": lambda s, o: s.inverted.remove_entity("v1"),
    "absorb_inverted": lambda s, o: s.inverted.absorb(o.inverted),
    "version": lambda s, o: setattr(s, "version", 7),
    "tombstones": lambda s, o: setattr(s, "tombstones", frozenset({"v1"})),
    "swap_indexes": swap_indexes,
}


@pytest.mark.parametrize("write", list(WRITES.values()), ids=list(WRITES))
def test_every_write_invalidates_the_memo(write):
    segment, other = populated(1), populated(2)
    before = segment_digest(segment)
    segment_digest(other)
    write(segment, other)
    assert segment_digest(segment) == _segment_hash(segment) != before
    assert segment_digest(other) == _segment_hash(other)


class TestDigestMemoProperty:
    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=st.lists(segment_step, max_size=30))
    def test_memoised_digest_equals_uncached_hash_after_every_step(self, steps):
        segments = [ShardSegment(version=v) for v in range(SEGMENTS)]
        for step in steps:
            apply_segment_step(segments, step)
            for segment in segments:
                assert segment_digest(segment) == _segment_hash(segment)


# ---------------------------------------------------------------------------
# replica level: bulk writes, absorbs, compaction, add/sync/drop replicas
# ---------------------------------------------------------------------------

NODES = 4
SHARDS = 2
shard = st.integers(0, SHARDS - 1)
node = st.integers(0, NODES - 1)

replica_step = st.one_of(
    st.tuples(st.just("judgment"), subject, doc, polarity),
    st.tuples(st.just("entity"), doc, text),
    st.tuples(
        st.just("absorb"),
        st.lists(st.tuples(subject, doc, polarity.filter(lambda p: p.is_polar)), max_size=3),
        st.lists(st.tuples(doc, text), max_size=2),
        docs,
    ),
    st.tuples(st.just("compact")),
    st.tuples(st.just("add_replica"), shard, st.integers(0, 7)),
    st.tuples(st.just("drop_replica"), shard),
    st.tuples(st.just("sync"), shard, st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("down"), node),
    st.tuples(st.just("up")),
)


def apply_replica_step(index, step):
    kind = step[0]
    if kind == "judgment":
        index.add_judgment(judgment(*step[1:]))
    elif kind == "entity":
        index.add_entity(Entity(entity_id=step[1], content=step[2]))
    elif kind == "absorb":
        sentiment = SentimentIndex()
        for subject_name, doc_id, polarity_ in step[1]:
            sentiment.add_entry(entry(subject_name, doc_id, polarity_))
        entities = tuple(Entity(entity_id=d, content=t) for d, t in dict(step[2]).items())
        inverted = InvertedIndex()
        inverted.add_all(entities)
        tombstones = step[3] | {e.entity_id for e in entities}
        index.absorb(
            IndexSegment(
                segment_id=index.current_version,
                sentiment=sentiment,
                inverted=inverted,
                entities=entities,
                tombstones=frozenset(tombstones),
                stats=SegmentStats(len(entities), 0, len(sentiment)),
            )
        )
    elif kind == "compact":
        index.compact()
    elif kind == "add_replica":
        replicas = index.replicas_for(step[1])
        free = [n for n in range(NODES) if n not in index.nodes_for(step[1])]
        if free:
            index.add_replica(step[1], free[0], replicas[step[2] % len(replicas)])
    elif kind == "drop_replica":
        replicas = index.replicas_for(step[1])
        if len(replicas) > 1:
            index.drop_replica(step[1], replicas[-1].node_id)
    elif kind == "sync":
        replicas = index.replicas_for(step[1])
        target = replicas[step[2] % len(replicas)]
        source = replicas[step[3] % len(replicas)]
        if target is not source:
            index.sync_replica(target, source)
    elif kind == "down":
        down = step[1]
        index.set_liveness(lambda node_id: node_id != down)
    else:
        index.set_liveness(None)


class TestVersionVectorProperty:
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=st.lists(replica_step, max_size=25))
    def test_version_vectors_equal_uncached_after_every_step(self, steps):
        index = ReplicatedIndex(SHARDS, NODES, replication=2)
        for step in steps:
            apply_replica_step(index, step)
            for shard_id in index.shard_ids():
                for replica in index.replicas_for(shard_id):
                    assert replica.version_vector() == uncached_vector(replica)


# ---------------------------------------------------------------------------
# hash-count guard: a recovery tick costs O(new segments)
# ---------------------------------------------------------------------------


def all_segments(index):
    return [
        segment
        for shard_id in index.shard_ids()
        for replica in index.replicas_for(shard_id)
        for segment in replica.segments
    ]


@pytest.mark.parametrize("seed", [3, 11])
def test_recovery_tick_hashes_only_new_segments(monkeypatch, seed):
    scenario = build_scenario(
        seed=seed, docs=24, chaos_seed=seed, batches=6, restarts=True
    )
    scenario.run()
    recovery, live, wal = scenario.recovery, scenario.live_indexer, scenario.wal
    index = scenario.router.index
    assert recovery.settled
    hashed = []
    monkeypatch.setattr(
        shards, "_segment_hash", lambda s: hashed.append(s) or _segment_hash(s)
    )
    for _ in range(20):
        recovery.tick()
    assert hashed == []  # a settled cluster hashes nothing

    # Enough batches that the default policy compacts along the way.
    for i in range(6):
        # Keep the old segments alive so no new object reuses an id.
        before = all_segments(index)
        seen = {id(s) for s in before}
        bases = [
            (replica, replica.base)
            for shard_id in index.shard_ids()
            for replica in index.replicas_for(shard_id)
        ]
        entity = Entity(entity_id=f"extra{i}", content=TEXTS[i % len(TEXTS)])
        batch = [DocumentDelta(kind=DELTA_ADD, entity_id=entity.entity_id, entity=entity)]
        live.apply_batch(batch, lsn=wal.append(batch))
        hashed.clear()
        recovery.tick()
        assert recovery.settled
        # Each new segment object is hashed exactly once; nothing else is.
        new = {id(s) for s in all_segments(index)} - seen
        assert sorted(id(s) for s in hashed) == sorted(new)
        replaced_bases = sum(1 for replica, old in bases if replica.base is not old)
        assert len(hashed) <= index.num_shards + replaced_bases
