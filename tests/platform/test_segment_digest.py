"""The stamp-keyed segment digest memo: never stale, never re-hashing.

:func:`~repro.platform.serving.shards.segment_digest` caches each
segment's md5 against a content stamp (version, tombstones, and the
identity plus ``mutations`` counter of both indexes).  The properties
here drive every index mutator, stamp-field reassignment and replica
operation in random order and require the memoised digest to equal the
uncached hash after every step; the guards pin what a recovery tick
costs — nothing on a settled cluster or after a batch every replica
absorbed, and only the unhashed segments of logs that differ by
identity otherwise.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model import Polarity, SentimentJudgment, Spot, Subject
from repro.nlp.tokens import Span
from repro.platform.entity import Entity
from repro.platform.indexer import InvertedIndex, SentimentEntry, SentimentIndex
from repro.platform.ingestion import DELTA_ADD, DocumentDelta
from repro.platform.recovery import RecoveryManager
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
# hash-count guard: a recovery tick digests only logs that differ by identity
# ---------------------------------------------------------------------------


def all_segments(index):
    return [
        segment
        for shard_id in index.shard_ids()
        for replica in index.replicas_for(shard_id)
        for segment in replica.segments
    ]


def settled_scenario(seed):
    scenario = build_scenario(
        seed=seed, docs=24, chaos_seed=seed, batches=6, restarts=True
    )
    scenario.run()
    assert scenario.recovery.settled
    return scenario


def count_hashes(monkeypatch):
    hashed = []
    monkeypatch.setattr(
        shards, "_segment_hash", lambda s: hashed.append(s) or _segment_hash(s)
    )
    return hashed


def one_doc_batch(i):
    entity = Entity(entity_id=f"extra{i}", content=TEXTS[i % len(TEXTS)])
    return [DocumentDelta(kind=DELTA_ADD, entity_id=entity.entity_id, entity=entity)]


@pytest.mark.parametrize("seed", [3, 11])
def test_recovery_tick_hashes_only_new_segments(monkeypatch, seed):
    scenario = settled_scenario(seed)
    recovery, live, wal = scenario.recovery, scenario.live_indexer, scenario.wal
    hashed = count_hashes(monkeypatch)
    for _ in range(20):
        recovery.tick()
    assert hashed == []  # a settled cluster hashes nothing

    # Enough batches that the default policy compacts along the way.
    for i in range(6):
        batch = one_doc_batch(i)
        live.apply_batch(batch, lsn=wal.append(batch))
        hashed.clear()
        recovery.tick()
        assert recovery.settled
        # Every live replica absorbed the slice and shares any merge, so
        # the logs agree by identity and nothing needs a digest.
        assert hashed == []


def copied(segment):
    """Equal content (and digest) in distinct segment and index objects."""
    out = ShardSegment(version=segment.version, tombstones=segment.tombstones)
    out.sentiment.absorb(segment.sentiment)
    out.inverted.absorb(segment.inverted)
    return out


@pytest.mark.parametrize("seed", [3, 11])
def test_recovery_tick_hashes_only_logs_that_differ_by_identity(monkeypatch, seed):
    scenario = settled_scenario(seed)
    recovery, live, wal = scenario.recovery, scenario.live_indexer, scenario.wal
    index = scenario.router.index
    hashed = count_hashes(monkeypatch)

    # A blip: one node misses a batch between two ticks, so its replicas
    # are stale while liveness counts them as healthy.
    blip = seed % index.num_nodes
    index.set_liveness(lambda node_id: node_id != blip)
    batch = one_doc_batch(0)
    live.apply_batch(batch, lsn=wal.append(batch))
    index.set_liveness(recovery.node_up)
    stale = {replica.shard_id: replica for replica in index.replicas_on(blip)}
    for shard_id, replica in stale.items():
        (peer,) = [r for r in index.replicas_for(shard_id) if r is not replica]
        assert replica.segments == peer.segments[:-1]

    # A replica rebuilt from equal-content copies of its log's segments.
    rebuilt_shard = next(s for s in index.shard_ids() if s not in stale)
    rebuilt = index.replicas_for(rebuilt_shard)[-1]
    rebuilt.rebind(tuple(copied(s) for s in rebuilt.segments))
    assert not any(rebuilt.shares_log(r) for r in index.replicas_for(rebuilt_shard)[:-1])

    differing = [*stale, rebuilt_shard]
    unhashed = {
        id(segment): segment
        for shard_id in differing
        for replica in index.replicas_for(shard_id)
        for segment in replica.segments
        if segment._digest_memo is None
    }
    events = len(recovery.events)
    hashed.clear()
    recovery.tick()
    # Only the differing shards' unhashed segments are hashed, once each.
    assert sorted(map(id, hashed)) == sorted(unhashed)
    assert recovery.settled
    # The stale replicas are healed onto their peers' segment objects...
    for shard_id, replica in stale.items():
        assert all(replica.shares_log(r) for r in index.replicas_for(shard_id))
    # ...while the equal-content replica is not diverged: no sync, no event.
    assert rebuilt.segments[0] is not index.replicas_for(rebuilt_shard)[0].segments[0]
    sweeps = [e for e in recovery.events[events:] if e["kind"] == "sweep"]
    assert sorted(e["shard"] for e in sweeps) == sorted(stale)


# ---------------------------------------------------------------------------
# divergence: identity first, digests only where logs differ
# ---------------------------------------------------------------------------

LOG = 4  # canonical segments per shard: a base and three slices

content = st.tuples(
    st.lists(st.tuples(subject, doc, polarity.filter(lambda p: p.is_polar)), max_size=2),
    st.lists(st.tuples(doc, text), max_size=1),
    docs,
)

replica_log = st.tuples(
    st.booleans(),  # share the previous replica's log object outright
    st.integers(1, LOG),  # how much of the canonical log it holds
    st.lists(st.booleans(), min_size=LOG, max_size=LOG),  # equal-content copies
    st.lists(content, max_size=2),  # a divergent suffix
)


def built(version, spec):
    entries, entities, tombstones = spec
    segment = ShardSegment(version=version, tombstones=tombstones)
    for subject_name, doc_id, polarity_ in entries:
        segment.sentiment.add_entry(entry(subject_name, doc_id, polarity_))
    for doc_id, body in entities:
        segment.inverted.add_entity(Entity(entity_id=doc_id, content=body))
    return segment


def digest_only_divergence(index, up):
    return [
        shard_id
        for shard_id in index.shard_ids()
        if len({uncached_vector(r) for r in index.replicas_for(shard_id) if r.node_id in up})
        > 1
    ]


class TestDivergenceDifferential:
    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_identity_first_divergence_equals_digest_only(self, data):
        index = ReplicatedIndex(SHARDS, NODES, replication=3)
        recovery = RecoveryManager(index, None)
        for shard_id in index.shard_ids():
            canonical = [built(v, data.draw(content)) for v in range(LOG)]
            previous = None
            for replica in index.replicas_for(shard_id):
                share, length, copies, suffix = data.draw(replica_log)
                if share and previous is not None:
                    replica.rebind(previous)
                    continue
                log = [copied(s) if c else s for s, c in zip(canonical[:length], copies)]
                log += [built(length + i, spec) for i, spec in enumerate(suffix)]
                replica.rebind(previous := tuple(log))
        up = data.draw(st.sets(node))
        assert recovery._diverged_shards(up) == digest_only_divergence(index, up)
