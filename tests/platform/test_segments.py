"""The segment model: sealing, masking, snapshots, compaction.

Unit coverage for DESIGN.md §5f — the incremental half of the
crawl→analyze→index→serve loop.  The cross-cutting equivalence property
(any batch partition converges to the one-pass build) lives in
``test_incremental_equivalence.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SentimentMiner, Subject
from repro.obs import Obs
from repro.platform.entity import Annotation, Entity
from repro.platform.indexer import InvertedIndex
from repro.platform.ingestion import (
    DELTA_ADD,
    DELTA_DELETE,
    DELTA_UPDATE,
    DocumentDelta,
)
from repro.platform.segments import (
    CompactionPolicy,
    DeltaIndexer,
    LiveIndexer,
    ReplicaSnapshot,
    ShardSegment,
    merge_segments,
)
from repro.platform.query import (
    Concept,
    Near,
    Not,
    Phrase,
    Range,
    Regex,
    Term,
)
from repro.platform.serving import ReplicatedIndex
from repro.platform.serving.shards import shard_of

pytestmark = pytest.mark.incremental

POSITIVE = "The NR70 is excellent . I love the pictures ."
NEGATIVE = "The NR70 is awful . The battery is bad ."
OTHER = "The G3 is great . Pictures look sharp ."


def make_indexer(obs=None):
    subjects = [Subject("NR70"), Subject("G3")]
    miner = SentimentMiner(subjects=subjects, obs=obs or Obs.default())
    return DeltaIndexer(miner, obs=obs or Obs.default())


def add(doc_id, content):
    return DocumentDelta(
        kind=DELTA_ADD, entity_id=doc_id, entity=Entity(entity_id=doc_id, content=content)
    )


def update(doc_id, content):
    return DocumentDelta(
        kind=DELTA_UPDATE,
        entity_id=doc_id,
        entity=Entity(entity_id=doc_id, content=content),
    )


def delete(doc_id):
    return DocumentDelta(kind=DELTA_DELETE, entity_id=doc_id)


class TestDeltaIndexer:
    def test_seals_adds_into_a_segment(self):
        indexer = make_indexer()
        segment = indexer.index_batch([add("d1", POSITIVE), add("d2", OTHER)])
        assert segment.stats.documents == 2
        assert segment.stats.deletes == 0
        assert segment.stats.judgments > 0
        assert segment.doc_ids == {"d1", "d2"}
        # Every delta id is tombstoned: earlier copies get masked.
        assert segment.tombstones == {"d1", "d2"}

    def test_intra_batch_update_chain_stays_net(self):
        indexer = make_indexer()
        segment = indexer.index_batch(
            [add("d1", POSITIVE), update("d1", NEGATIVE)]
        )
        assert segment.stats.documents == 1
        assert segment.doc_ids == {"d1"}
        assert segment.inverted.search("awful") == {"d1"}
        assert segment.inverted.search("excellent") == set()

    def test_intra_batch_delete_chain_stays_net(self):
        indexer = make_indexer()
        segment = indexer.index_batch([add("d1", POSITIVE), delete("d1")])
        assert segment.stats.documents == 0
        assert segment.stats.deletes == 1
        assert segment.doc_ids == set()
        assert "d1" in segment.tombstones

    def test_sealing_charges_simulated_time(self):
        obs = Obs.default()
        indexer = make_indexer(obs)
        before = obs.clock.now
        indexer.index_batch([add("d1", POSITIVE)])
        assert obs.clock.now > before


class TestMaskingAndMerge:
    def build_log(self):
        """Base + two absorbed slices: d1 superseded, d2 deleted."""
        indexer = make_indexer()
        seg1 = indexer.index_batch([add("d1", POSITIVE), add("d2", OTHER)])
        seg2 = indexer.index_batch([update("d1", NEGATIVE), delete("d2")])
        log = [
            ShardSegment(version=0),
            ShardSegment(
                version=1,
                sentiment=seg1.sentiment,
                inverted=seg1.inverted,
                tombstones=seg1.tombstones,
            ),
            ShardSegment(
                version=2,
                sentiment=seg2.sentiment,
                inverted=seg2.inverted,
                tombstones=seg2.tombstones,
            ),
        ]
        return log

    def test_later_tombstones_mask_earlier_copies(self):
        log = self.build_log()
        snapshot = ReplicaSnapshot(2, log)
        assert snapshot.inverted.doc_ids == {"d1"}
        assert snapshot.inverted.search("awful") == {"d1"}
        assert snapshot.inverted.search("excellent") == set()
        assert snapshot.inverted.search("sharp") == set()

    def test_snapshot_at_earlier_version_sees_the_old_world(self):
        log = self.build_log()
        snapshot = ReplicaSnapshot(1, log)
        assert snapshot.inverted.doc_ids == {"d1", "d2"}
        assert snapshot.inverted.search("excellent") == {"d1"}

    def test_merge_drops_masked_copies_and_all_tombstones(self):
        log = self.build_log()
        merged = merge_segments(log)
        assert merged.version == 2
        assert merged.tombstones == frozenset()
        assert merged.inverted.doc_ids == {"d1"}
        assert merged.inverted.search("awful") == {"d1"}

    def test_merged_prefix_reads_identically(self):
        log = self.build_log()
        before = ReplicaSnapshot(2, log)
        merged_log = [merge_segments(log)]
        after = ReplicaSnapshot(2, merged_log)
        assert before.inverted.doc_ids == after.inverted.doc_ids
        assert before.inverted.idf_table() == after.inverted.idf_table()
        assert (
            before.sentiment.subject_counts() == after.sentiment.subject_counts()
        )

    def test_merge_rejects_empty_prefix(self):
        with pytest.raises(ValueError):
            merge_segments([])


class TestReplicatedIndexSegments:
    def test_absorb_bumps_version_and_routes_slices(self):
        index = ReplicatedIndex(4, 4, replication=2)
        indexer = make_indexer()
        segment = indexer.index_batch([add("d1", POSITIVE), add("d2", OTHER)])
        version = index.absorb(segment)
        assert version == 1 == index.current_version
        # Each document's postings landed on exactly one shard.
        owners = [
            shard_id
            for shard_id in index.shard_ids()
            if "d1" in index.replicas_for(shard_id)[0].view().inverted.doc_ids
        ]
        assert len(owners) == 1

    def test_pinned_snapshot_survives_concurrent_delete(self):
        index = ReplicatedIndex(2, 2, replication=1)
        indexer = make_indexer()
        index.absorb(indexer.index_batch([add("d1", POSITIVE)]))
        pinned_version = index.pin()
        views = [
            index.replicas_for(s)[0].view(pinned_version) for s in index.shard_ids()
        ]
        before = {id for v in views for id in v.inverted.doc_ids}
        assert before == {"d1"}
        # A delete batch lands mid-read...
        index.absorb(indexer.index_batch([delete("d1")]))
        # ...but the pinned views are unchanged, while fresh views see it.
        still = {id for v in views for id in v.inverted.doc_ids}
        assert still == {"d1"}
        fresh = {
            id
            for s in index.shard_ids()
            for id in index.replicas_for(s)[0].view().inverted.doc_ids
        }
        assert fresh == set()
        index.release(pinned_version)

    def test_compaction_floor_respects_active_pins(self):
        index = ReplicatedIndex(1, 1, replication=1)
        indexer = make_indexer()
        index.absorb(indexer.index_batch([add("d1", POSITIVE)]))
        pinned = index.pin()
        index.absorb(indexer.index_batch([add("d2", OTHER)]))
        index.absorb(indexer.index_batch([add("d3", NEGATIVE)]))
        assert index.compaction_floor() == pinned
        replica = index.replicas_for(0)[0]
        logs_before = len(replica.segments)
        index.compact()
        # Only the prefix at or below the pin may merge; the pinned
        # reader's segment set stays granular above the floor.
        assert replica.segments[-1].version == index.current_version
        assert len(replica.segments) <= logs_before
        index.release(pinned)
        index.compact()
        assert len(replica.segments) == 1
        snapshot = replica.view()
        assert snapshot.inverted.doc_ids == {"d1", "d2", "d3"}


_WORDS = ("camera", "flash", "zoom", "battery", "lens")
_PLACES = ((48.86, 2.35), (40.71, -74.01), (35.68, 139.69))


@st.composite
def annotated_entity(draw, doc_id):
    """An entity with text, numeric (and ignored) metadata, and concepts."""
    content = " ".join(draw(st.lists(st.sampled_from(_WORDS), max_size=8)))
    metadata = draw(
        st.dictionaries(
            st.sampled_from(("price", "rating", "lang", "flag")),
            st.one_of(st.integers(0, 9), st.floats(0, 9), st.just("en"), st.booleans()),
            max_size=3,
        )
    )
    entity = Entity(entity_id=doc_id, content=content, metadata=metadata)
    annotations = st.tuples(
        st.sampled_from(("spot", "sentiment")),
        st.sampled_from(("nr70", "g3", "+", "-")),
        st.one_of(st.none(), st.sampled_from(_PLACES)),
    )
    for layer, label, place in draw(st.lists(annotations, max_size=3)):
        geo = {} if place is None else {"lat": place[0], "lon": place[1]}
        entity.annotate(Annotation.make(layer, 0, 0, label, **geo))
    return entity


@st.composite
def annotated_batches(draw):
    """One delta batch over a few ids: adds, in-batch updates and deletes."""
    deltas = []
    for doc_index in draw(st.lists(st.integers(0, 5), min_size=1, max_size=10)):
        doc_id = f"p{doc_index}"
        if draw(st.booleans()) and any(d.entity_id == doc_id for d in deltas):
            deltas.append(delete(doc_id))
        else:
            entity = draw(annotated_entity(doc_id))
            deltas.append(DocumentDelta(kind=DELTA_ADD, entity_id=doc_id, entity=entity))
    return deltas


SLICE_QUERIES = (
    Term("camera"),
    Phrase(("camera", "flash")),
    Regex("ba.*"),
    Concept("spot"),
    Concept("spot", "nr70"),
    Concept("sentiment", "+"),
    Range("price", 2.0, 7.0),
    Range("rating", 0.0, 4.5),
    Near(48.86, 2.35, 50.0),
    Near(40.0, -74.0, 200.0),
    Not(Term("zoom")),
    Not(Concept("sentiment")),
)


def slice_answers(inverted):
    return {
        "doc_ids": inverted.doc_ids,
        "tokens": inverted.tokens(),
        "idf_table": inverted.idf_table(),
        "searches": [inverted.search(q) for q in SLICE_QUERIES],
    }


class TestAbsorbSlicesEqualReindexing:
    """Slicing sealed postings answers exactly as re-adding the entities."""

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(deltas=annotated_batches())
    def test_absorbed_slices_answer_like_add_entity_slices(self, deltas):
        segment = make_indexer().index_batch(deltas)
        index = ReplicatedIndex(3, 3, replication=2)
        index.absorb(segment)
        final = {}
        for delta in deltas:
            final.pop(delta.entity_id, None)
            if delta.kind != DELTA_DELETE:
                final[delta.entity_id] = delta.entity
        for shard_id in index.shard_ids():
            reference = InvertedIndex()
            reference.add_all(
                e for e in final.values() if shard_of(e.entity_id, 3) == shard_id
            )
            replicas = index.replicas_for(shard_id)
            (sliced,) = {id(r.segments[-1]): r.segments[-1] for r in replicas}.values()
            assert slice_answers(sliced.inverted) == slice_answers(reference)


SHARED_TEXTS = {
    "s1": "The camera takes sharp pictures . The flash is weak .",
    "s2": "The battery drains fast . The camera is heavy .",
    "s3": "Sharp pictures , weak battery , heavy camera .",
    "s4": "The flash is weak but the camera takes sharp pictures .",
}
SHARED_QUERIES = (
    Term("camera"),
    Phrase(("camera", "takes", "sharp", "pictures")),
    Phrase(("the", "flash", "is", "weak")),
    Phrase(("battery", "drains")),
    Regex("sh.*"),
    Not(Term("battery")),
)


def shared_answers(inverted):
    return (inverted.doc_ids, [inverted.search(q) for q in SHARED_QUERIES])


class TestSharedPostingsStayPut:
    """Slices and merges share position tuples with their sources.

    Writes to any one index — the sealed source, or a merged segment
    that becomes a shard's mutable base — must never show through in
    another.
    """

    @staticmethod
    def build():
        source = InvertedIndex()
        source.add_all(Entity(entity_id=i, content=t) for i, t in SHARED_TEXTS.items())
        slices = source.partition(lambda entity_id: shard_of(entity_id, 2), 2)
        assert all(part.doc_ids for part in slices)
        merges = [
            merge_segments(
                [ShardSegment(version=0)]
                + [ShardSegment(version=v, inverted=part) for v, part in enumerate(parts, 1)]
            ).inverted
            for parts in ([source], slices)
        ]
        return source, slices, merges

    @staticmethod
    def rewrite(inverted):
        inverted.add_entity(Entity(entity_id="s1", content="The flash is weak ."))
        inverted.add_entity(Entity(entity_id="s2", content="Camera takes sharp pictures ."))
        inverted.remove_entity("s4")

    def test_source_writes_leave_slices_and_merges_unchanged(self):
        source, slices, merges = self.build()
        before = [shared_answers(part) for part in slices + merges]
        assert before[-1] == before[-2] == shared_answers(source)
        self.rewrite(source)
        assert shared_answers(source) != before[-1]
        assert [shared_answers(part) for part in slices + merges] == before

    def test_merged_base_writes_leave_their_inputs_unchanged(self):
        source, slices, merges = self.build()
        before = [shared_answers(part) for part in [source] + slices]
        for merged in merges:
            self.rewrite(merged)
            assert shared_answers(merged) != before[0]
        assert [shared_answers(part) for part in [source] + slices] == before


class TestLiveIndexer:
    def test_apply_batch_reports_freshness_and_triggers_compaction(self):
        obs = Obs.default()
        index = ReplicatedIndex(2, 2, replication=1)
        live = LiveIndexer(
            index,
            make_indexer(obs),
            obs=obs,
            policy=CompactionPolicy(max_segments=2),
        )
        stats = live.apply_batch([add("d1", POSITIVE)])
        assert stats["version"] == 1
        assert stats["documents"] == 1
        assert stats["freshness_lag"] > 0
        assert stats["segments_merged"] == 0
        # Keep absorbing until some replica's log exceeds the policy.
        merged = 0
        for i in range(2, 6):
            merged += live.apply_batch([add(f"d{i}", OTHER)])["segments_merged"]
        assert merged > 0
        assert index.max_segment_count() <= 3
        assert live.documents_indexed == 5
        assert obs.metrics.counter("segments.compactions").value > 0
        assert obs.metrics.histogram("ingest.freshness_lag").count == 5


class TestCompactionObservability:
    """Satellite coverage for compaction counters and audit entries."""

    def run_until_compaction(self):
        obs = Obs.enabled()
        index = ReplicatedIndex(2, 2, replication=1)
        live = LiveIndexer(
            index,
            make_indexer(obs),
            obs=obs,
            policy=CompactionPolicy(max_segments=2),
        )
        for i in range(1, 7):
            live.apply_batch([add(f"d{i}", OTHER if i % 2 else POSITIVE)])
        return obs, live, index

    def test_compaction_counters_track_runs_and_docs(self):
        obs, _, _ = self.run_until_compaction()
        from repro.platform.segments import AUDIT_KIND_COMPACTION

        ran = [
            e
            for e in obs.audit.entries
            if e.kind == AUDIT_KIND_COMPACTION and e.decision == "ran"
        ]
        runs = obs.metrics.counter("compaction.runs").value
        assert runs == len(ran) > 0
        merged_docs = obs.metrics.counter("compaction.merged_docs").value
        assert merged_docs == sum(dict(e.detail)["rewritten"] for e in ran)
        # compaction.runs only counts merges; segments.compactions is its
        # legacy mirror and must agree.
        assert obs.metrics.counter("segments.compactions").value == runs

    def test_compaction_audit_entry_shape(self):
        obs, _, _ = self.run_until_compaction()
        from repro.platform.segments import AUDIT_KIND_COMPACTION

        entries = [e for e in obs.audit.entries if e.kind == AUDIT_KIND_COMPACTION]
        assert entries, "policy max_segments=2 must trip at least once"
        for entry in entries:
            assert entry.decision in ("ran", "blocked")
            assert entry.subject.startswith("segments:")
            assert "exceeds policy max" in entry.reason
            detail = dict(entry.detail)
            assert {"floor", "merged", "pins", "rewritten"} <= set(detail)
            if entry.decision == "ran":
                assert detail["merged"] > 0
            else:
                assert detail["merged"] == 0

    def test_blocked_compaction_is_audited_not_counted(self):
        # A pinned snapshot below the would-be merge floor blocks the
        # whole merge: audited as "blocked", counters untouched.
        obs = Obs.enabled()
        index = ReplicatedIndex(1, 1, replication=1)
        live = LiveIndexer(
            index,
            make_indexer(obs),
            obs=obs,
            policy=CompactionPolicy(max_segments=2),
        )
        pinned = index.pin()  # pins the empty base (version 0): floor stays 0
        try:
            for i in range(1, 5):
                live.apply_batch([add(f"d{i}", OTHER)])
            from repro.platform.segments import AUDIT_KIND_COMPACTION

            blocked = [
                e
                for e in obs.audit.entries
                if e.kind == AUDIT_KIND_COMPACTION and e.decision == "blocked"
            ]
            assert blocked
            assert dict(blocked[0].detail)["pins"] == {"0": 1}
        finally:
            index.release(pinned)
        assert obs.metrics.counter("compaction.runs").value == 0
        assert obs.metrics.counter("compaction.merged_docs").value == 0
