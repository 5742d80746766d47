"""Reused replica snapshots and memoised subject totals: never stale.

:meth:`ShardReplica.view` hands out the same
:class:`~repro.platform.segments.ReplicaSnapshot` while the replica's
log object and the pinned version are unchanged, and the snapshot's
sentiment view memoises its subject totals against each segment's
``(sentiment index, mutations)``.  The property drives every
:class:`ReplicatedIndex` writer in random order and requires each
replica's reused views, latest and pinned, to answer exactly as a
freshly built snapshot after every step; the work-count guard pins
what reads cost on a served cluster — no snapshot at all until a
replica's log changes, then at most one per replica.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.model import Polarity, SentimentJudgment, Spot, Subject
from repro.nlp.tokens import Span
from repro.platform.entity import Entity
from repro.platform.indexer import InvertedIndex, SentimentEntry, SentimentIndex
from repro.platform.ingestion import DELTA_ADD, DocumentDelta
from repro.platform.query import parse_query
from repro.platform.segments import IndexSegment, ReplicaSnapshot, SegmentStats
from repro.platform.serving import ReplicatedIndex, build_scenario
from repro.platform.serving.shards import ShardReplica

pytestmark = pytest.mark.incremental

SUBJECTS = ("camera", "Flash", "lens")
DOCS = ("d0", "d1", "d2", "d3")
TEXTS = ("the camera is great", "the flash is awful", "lens lens camera")
POLARITIES = (Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.NEUTRAL)
QUERIES = tuple(parse_query(q) for q in ("camera", "re:/l.*/", "NOT flash", "the AND camera"))

NODES = 4
SHARDS = 2

subject = st.sampled_from(SUBJECTS)
doc = st.sampled_from(DOCS)
text = st.sampled_from(TEXTS)
polarity = st.sampled_from(POLARITIES)
docs = st.frozensets(doc, max_size=3)
shard = st.integers(0, SHARDS - 1)
pick = st.integers(0, 7)

step_strategy = st.one_of(
    st.tuples(st.just("judgment"), subject, doc, polarity),
    st.tuples(st.just("entity"), doc, text),
    st.tuples(
        st.just("absorb"),
        st.lists(st.tuples(subject, doc, polarity.filter(lambda p: p.is_polar)), max_size=3),
        st.lists(st.tuples(doc, text), max_size=2),
        docs,
    ),
    st.tuples(st.just("down"), st.integers(0, NODES - 1)),
    st.tuples(st.just("up")),
    st.tuples(st.just("pin")),
    st.tuples(st.just("release")),
    st.tuples(st.just("compact")),
    st.tuples(st.just("add_replica"), shard, pick),
    st.tuples(st.just("drop_replica"), shard),
    st.tuples(st.just("sync"), shard, pick, pick),
)

#: Each writer in turn, every one landing on views the reads before it cached:
#: a batch a down node misses, compaction under a pin, a suffix and a full
#: sync, a recovery copy and its retirement, and base bulk writes.
EVERY_WRITER = [
    ("absorb", [("camera", "d0", Polarity.POSITIVE)], [("d0", TEXTS[0])], frozenset()),
    ("pin",),
    ("down", 1),
    ("absorb", [("lens", "d1", Polarity.NEGATIVE)], [("d1", TEXTS[2])], frozenset({"d0"})),
    ("up",),
    ("sync", 0, 1, 0),
    ("absorb", [("Flash", "d2", Polarity.POSITIVE)], [("d2", TEXTS[1])], frozenset()),
    ("absorb", [], [("d3", TEXTS[2])], frozenset({"d1"})),
    ("compact",),
    ("release",),
    ("compact",),
    ("down", 0),
    ("absorb", [("camera", "d1", Polarity.NEGATIVE)], [], frozenset()),
    ("compact",),
    ("up",),
    ("sync", 0, 0, 1),
    ("add_replica", 1, 0),
    ("judgment", "lens", "d3", Polarity.POSITIVE),
    ("entity", "d0", TEXTS[1]),
    ("drop_replica", 1),
]


def judgment(subject_name, doc_id, polarity_):
    return SentimentJudgment(
        spot=Spot(
            Subject(subject_name), subject_name, Span(0, len(subject_name)), 0, doc_id
        ),
        polarity=polarity_,
    )


def sealed(index, entries, entities, tombstones):
    sentiment = SentimentIndex()
    for subject_name, doc_id, polarity_ in entries:
        sentiment.add_entry(
            SentimentEntry(subject_name, polarity_, doc_id, 0, len(subject_name))
        )
    added = tuple(Entity(entity_id=d, content=t) for d, t in dict(entities).items())
    inverted = InvertedIndex()
    inverted.add_all(added)
    return IndexSegment(
        segment_id=index.current_version,
        sentiment=sentiment,
        inverted=inverted,
        tombstones=frozenset(tombstones | {e.entity_id for e in added}),
        stats=SegmentStats(len(added), 0, len(sentiment)),
    )


def apply_step(index, pins, step):
    kind = step[0]
    if kind == "judgment":
        index.add_judgment(judgment(*step[1:]))
    elif kind == "entity":
        index.add_entity(Entity(entity_id=step[1], content=step[2]))
    elif kind == "absorb":
        index.absorb(sealed(index, *step[1:]))
    elif kind == "down":
        down = step[1]
        index.set_liveness(lambda node_id: node_id != down)
    elif kind == "up":
        index.set_liveness(None)
    elif kind == "pin":
        pins.append(index.pin())
    elif kind == "release":
        if pins:
            index.release(pins.pop(0))
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
    else:
        replicas = index.replicas_for(step[1])
        target = replicas[step[2] % len(replicas)]
        source = replicas[step[3] % len(replicas)]
        if target is not source:
            index.sync_replica(target, source)


def answers(snapshot):
    sentiment, inverted = snapshot.sentiment, snapshot.inverted
    return {
        "query": [sentiment.query(s) for s in SUBJECTS],
        "query_polar": [sentiment.query(s, Polarity.NEGATIVE) for s in SUBJECTS],
        "counts": [sentiment.counts(s) for s in SUBJECTS],
        "subject_counts": sentiment.subject_counts(),
        "subjects": sentiment.subjects(),
        "len": len(sentiment),
        "search": [inverted.search(q) for q in QUERIES],
        "doc_ids": inverted.doc_ids,
    }


def poison(snapshot):
    """Write to every mutable answer a caller could get back."""
    counts = snapshot.sentiment.subject_counts()
    counts["poison"] = 1
    counts.pop("camera", None)
    snapshot.sentiment.subjects().append("poison")
    snapshot.sentiment.query("camera").clear()
    snapshot.sentiment.counts("camera")[Polarity.POSITIVE] = -1
    snapshot.inverted.search(QUERIES[0]).add("poison")


def check_views(index, pins):
    for shard_id in index.shard_ids():
        for replica in index.replicas_for(shard_id):
            # A cached snapshot holds only segments the replica still holds.
            if replica._view is not None:
                log, _, snapshot = replica._view
                assert log is replica.segments
                held = {id(s) for s in replica.segments}
                assert {id(s) for s in snapshot.sentiment._segments} <= held
                assert {id(s) for s in snapshot.inverted._segments} <= held
            for version in [None, *pins, index.current_version]:
                view = replica.view(version)
                pinned = replica.latest_version if version is None else version
                want = answers(ReplicaSnapshot(pinned, replica.segments))
                assert answers(view) == want
                poison(view)
                assert replica.view(version) is view  # reused, not rebuilt
                assert answers(view) == want


class TestReusedViews:
    @settings(
        max_examples=80,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=st.lists(step_strategy, max_size=25))
    @example(steps=EVERY_WRITER)
    def test_reused_views_answer_as_fresh_snapshots_after_every_step(self, steps):
        index = ReplicatedIndex(SHARDS, NODES, replication=2)
        pins = []
        for step in steps:
            apply_step(index, pins, step)
            check_views(index, pins)

    def test_a_log_change_drops_the_cached_snapshot(self):
        index = ReplicatedIndex(1, 2, replication=2)
        replica = index.replicas_for(0)[0]
        view = replica.view()
        assert replica.view() is view
        index.add_judgment(judgment("camera", "d0", Polarity.POSITIVE))
        assert replica.view() is view  # bulk writes are read live
        assert view.sentiment.subject_counts() == {"camera": 1}
        index.absorb(sealed(index, [], [("d1", TEXTS[0])], frozenset()))
        assert replica._view is None
        assert replica.view() is not view


# ---------------------------------------------------------------------------
# work-count guard: a read builds no snapshot until its replica's log changes
# ---------------------------------------------------------------------------


def count_builds(monkeypatch):
    """Snapshots built in total, and per replica by :meth:`ShardReplica.view`."""
    built = []
    per_replica = Counter()
    init, view = ReplicaSnapshot.__init__, ShardReplica.view

    def counting_init(self, version, segments):
        built.append(version)
        init(self, version, segments)

    def counting_view(self, version=None):
        before = self._view
        snapshot = view(self, version)
        if self._view is not before:
            per_replica[id(self)] += 1
        return snapshot

    monkeypatch.setattr(ReplicaSnapshot, "__init__", counting_init)
    monkeypatch.setattr(ShardReplica, "view", counting_view)
    return built, per_replica


def serve_reads(router, count):
    ops = (
        ("counts", {"subject": "camera"}),
        ("sentences", {"subject": "flash"}),
        ("subjects", {}),
        ("search", {"q": "re:/[a-z]+/"}),
    )
    for i in range(count):
        op, payload = ops[i % len(ops)]
        router.serve(op, payload)


def read_every_replica(index):
    for shard_id in index.shard_ids():
        for replica in index.replicas_for(shard_id):
            replica.view(index.current_version).sentiment.subject_counts()


@pytest.mark.serving
@pytest.mark.parametrize("seed", [3, 11])
def test_reads_build_no_snapshot_until_a_log_changes(monkeypatch, seed):
    scenario = build_scenario(seed=seed, docs=24, chaos_seed=seed, batches=6, restarts=True)
    scenario.run()
    recovery, live, wal = scenario.recovery, scenario.live_indexer, scenario.wal
    router, index = scenario.router, scenario.router.index
    assert recovery.settled
    read_every_replica(index)
    built, per_replica = count_builds(monkeypatch)
    serve_reads(router, 50)
    read_every_replica(index)
    assert built == []

    entity = Entity(entity_id="extra", content=TEXTS[0])
    batch = [DocumentDelta(kind=DELTA_ADD, entity_id=entity.entity_id, entity=entity)]
    live.apply_batch(batch, lsn=wal.append(batch))
    recovery.tick()
    serve_reads(router, 50)
    read_every_replica(index)
    replicas = [r for s in index.shard_ids() for r in index.replicas_for(s)]
    assert max(per_replica.values()) == 1
    assert set(per_replica) <= {id(r) for r in replicas}
    assert len(built) == sum(per_replica.values()) <= len(replicas)
