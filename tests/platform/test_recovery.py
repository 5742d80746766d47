"""Durable recovery units: restart schedules, probes, WAL, anti-entropy.

Unit coverage for DESIGN.md §5j — crash-restart fault plans, the
explicit circuit-breaker probe API, the simulated write-ahead log, the
shard-level recovery surface (digests, version vectors, replica
add/drop/sync), and the :class:`RecoveryManager` lifecycle.  The
end-to-end determinism gates live in ``test_recovery_equivalence.py``.
"""

import pytest

from repro.core import SentimentMiner, Subject
from repro.core.model import Polarity, SentimentJudgment, Spot
from repro.nlp.tokens import Span
from repro.obs import (
    Obs,
    SLOMonitor,
    health_snapshot,
    render_health,
    replication_slo,
)
from repro.platform.chaos import DEFAULT_RESTART_WINDOW, schedule_restarts
from repro.platform.entity import Entity
from repro.platform.faults import FaultPlan
from repro.platform.ingestion import DELTA_ADD, DocumentDelta
from repro.platform.recovery import (
    AUDIT_KIND_RECOVERY,
    TRANSFER_COST_PER_DOC,
    RecoveryManager,
)
from repro.platform import indexer as indexer_module
from repro.platform.indexer import InvertedIndex, SentimentIndex
from repro.platform.segments import (
    COMPACT_COST_PER_DOC,
    CompactionPolicy,
    DeltaIndexer,
    IndexSegment,
    LiveIndexer,
    SegmentStats,
    merge_segments,
)
from repro.platform.serving import ReplicatedIndex, shards
from repro.platform.serving.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)
from repro.platform.serving.shards import segment_digest, segment_docs
from repro.platform.wal import (
    WAL_APPEND_COST_PER_DELTA,
    NullWriteAheadLog,
    WriteAheadLog,
)

pytestmark = pytest.mark.recovery

POSITIVE = "The NR70 is excellent . I love the pictures ."
NEGATIVE = "The NR70 is awful . The battery is bad ."
OTHER = "The G3 is great . Pictures look sharp ."


def add(doc_id, content):
    return DocumentDelta(
        kind=DELTA_ADD,
        entity_id=doc_id,
        entity=Entity(entity_id=doc_id, content=content),
    )


def make_live(index, obs, wal=None, max_segments=8):
    miner = SentimentMiner(subjects=[Subject("NR70"), Subject("G3")], obs=obs)
    return LiveIndexer(
        index,
        DeltaIndexer(miner, obs=obs),
        obs=obs,
        policy=CompactionPolicy(max_segments=max_segments),
        wal=wal,
    )


class StubRouter:
    """Counts probes; denies the first ``deny`` before admitting."""

    def __init__(self, deny=0):
        self.probed = []
        self._deny = deny

    def probe_node(self, node_id):
        self.probed.append(node_id)
        if self._deny > 0:
            self._deny -= 1
            return False
        return True


# ---------------------------------------------------------------------------
# fault-plan restart schedules
# ---------------------------------------------------------------------------


class TestFaultPlanRestarts:
    def test_node_down_until_restart_time(self):
        plan = FaultPlan(0).kill_node(1)
        plan.restart_node(1, after_cost=5.0)
        assert plan.node_down(1, 0.0)
        assert plan.node_down(1, 4.999)
        assert not plan.node_down(1, 5.0)
        assert plan.node_restart(1) == 5.0

    def test_death_without_restart_is_permanent(self):
        plan = FaultPlan(0).kill_node(2)
        assert plan.node_down(2, 1e9)
        assert plan.node_restart(2) is None

    def test_never_killed_node_is_always_up(self):
        plan = FaultPlan(0)
        assert not plan.node_down(0, 0.0)

    def test_restart_requires_a_scheduled_death(self):
        with pytest.raises(ValueError, match="no scheduled death"):
            FaultPlan(0).restart_node(3, after_cost=1.0)

    def test_restart_rejects_negative_cost(self):
        plan = FaultPlan(0).kill_node(1)
        with pytest.raises(ValueError, match="non-negative"):
            plan.restart_node(1, after_cost=-1.0)

    def test_summary_counts_restarts_only_when_scheduled(self):
        plain = FaultPlan(0).kill_node(1)
        assert "scheduled_node_restarts" not in plain.summary()
        plain.restart_node(1, after_cost=2.0)
        assert plain.summary()["scheduled_node_restarts"] == 1

    def test_schedule_restarts_is_seed_deterministic(self):
        def build():
            plan = FaultPlan(42).kill_node(0).kill_node(2)
            return schedule_restarts(plan), plan

        times_a, plan_a = build()
        times_b, plan_b = build()
        assert times_a == times_b
        assert plan_a.restarts == plan_b.restarts
        lo, hi = DEFAULT_RESTART_WINDOW
        for at in times_a.values():
            assert lo <= at <= hi

    def test_schedule_restarts_rejects_bad_window(self):
        plan = FaultPlan(0).kill_node(1)
        with pytest.raises(ValueError):
            schedule_restarts(plan, window=(5.0, 1.0))


# ---------------------------------------------------------------------------
# breaker probes
# ---------------------------------------------------------------------------


class TestBreakerProbe:
    def make_breaker(self, obs, cooldown=2.0):
        return CircuitBreaker(
            "serving.node1", obs, failure_threshold=1, cooldown=cooldown
        )

    def test_probe_during_cooldown_is_denied_without_fastfail(self):
        obs = Obs.default()
        breaker = self.make_breaker(obs)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.probe() is False
        snap = breaker.snapshot()
        assert snap["fastfails"] == 0  # a probe denial is not a fast-fail
        assert snap["probes"] == 0
        assert breaker.state == OPEN

    def test_probe_cycle_open_half_open_closed(self):
        obs = Obs.default()
        breaker = self.make_breaker(obs)
        breaker.record_failure()
        obs.clock.advance(2.0)
        assert breaker.probe() is True
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.snapshot()["probes"] == 1

    def test_failed_probe_reopens_for_another_cooldown(self):
        obs = Obs.default()
        breaker = self.make_breaker(obs)
        breaker.record_failure()
        obs.clock.advance(2.0)
        assert breaker.probe() is True
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.probe() is False  # cooldown restarted

    def test_probe_on_closed_breaker_is_admitted(self):
        obs = Obs.default()
        breaker = self.make_breaker(obs)
        assert breaker.probe() is True
        assert breaker.state == CLOSED


# ---------------------------------------------------------------------------
# write-ahead log
# ---------------------------------------------------------------------------


class TestWriteAheadLog:
    def test_append_assigns_contiguous_lsns_and_charges_cost(self):
        obs = Obs.default()
        wal = WriteAheadLog(obs=obs)
        lsn1 = wal.append([add("d1", POSITIVE)])
        lsn2 = wal.append([add("d2", NEGATIVE), add("d3", OTHER)])
        assert (lsn1, lsn2) == (1, 2)
        assert wal.depth == 2
        assert wal.last_lsn == 2
        assert obs.clock.now == pytest.approx(3 * WAL_APPEND_COST_PER_DELTA)

    def test_append_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="empty"):
            WriteAheadLog().append([])

    def test_seal_rejects_unknown_lsn(self):
        wal = WriteAheadLog()
        wal.append([add("d1", POSITIVE)])
        with pytest.raises(ValueError):
            wal.seal(0)
        with pytest.raises(ValueError):
            wal.seal(2)

    def test_checkpoint_advances_over_contiguous_prefix_only(self):
        wal = WriteAheadLog()
        for doc in ("d1", "d2", "d3"):
            wal.append([add(doc, POSITIVE)])
        wal.seal(2)  # out of order: checkpoint must wait for lsn 1
        assert wal.checkpoint_lsn == 0
        assert wal.depth == 2
        wal.seal(1)
        assert wal.checkpoint_lsn == 2
        wal.seal(3)
        assert wal.checkpoint_lsn == 3
        assert wal.depth == 0

    def test_seal_is_idempotent(self):
        wal = WriteAheadLog()
        wal.append([add("d1", POSITIVE)])
        wal.seal(1)
        wal.seal(1)
        assert wal.depth == 0

    def test_replay_yields_unsealed_records_in_lsn_order(self):
        wal = WriteAheadLog()
        for doc in ("d1", "d2", "d3"):
            wal.append([add(doc, POSITIVE)])
        wal.seal(2)
        assert [r.lsn for r in wal.replay()] == [1, 3]
        assert wal.snapshot()["unsealed"] == [1, 3]

    def test_null_wal_is_inert(self):
        wal = NullWriteAheadLog()
        assert wal.append([add("d1", POSITIVE)]) == 0
        wal.seal(7)  # no-op, no error
        assert list(wal.replay()) == []
        assert wal.depth == 0
        assert wal.snapshot()["last_lsn"] == 0


# ---------------------------------------------------------------------------
# shard recovery surface
# ---------------------------------------------------------------------------


def build_index(obs=None, docs=None):
    obs = obs or Obs.default()
    index = ReplicatedIndex(4, 3, replication=2)
    live = make_live(index, obs)
    live.apply_batch([add(d, c) for d, c in (docs or [("d1", POSITIVE), ("d2", OTHER)])])
    return index, live, obs


class TestShardRecoverySurface:
    def test_digest_is_content_based(self):
        index_a, _, _ = build_index()
        index_b, _, _ = build_index()
        for shard_id in index_a.shard_ids():
            va = index_a.replicas_for(shard_id)[0].version_vector()
            vb = index_b.replicas_for(shard_id)[0].version_vector()
            assert va == vb  # distinct objects, identical content

    def test_replicas_of_a_shard_share_a_version_vector(self):
        index, _, _ = build_index()
        for shard_id in index.shard_ids():
            vectors = {r.version_vector() for r in index.replicas_for(shard_id)}
            assert len(vectors) == 1

    def test_down_node_misses_absorbed_segments(self):
        index, live, _ = build_index()
        index.set_liveness(lambda node_id: node_id != 1)
        live.apply_batch([add("d3", NEGATIVE)])
        for replica in index.replicas_on(1):
            peer = next(
                r
                for r in index.replicas_for(replica.shard_id)
                if r.node_id != 1
            )
            assert len(replica.segments) < len(peer.segments)

    def test_live_replication_and_under_replicated(self):
        index, _, _ = build_index()
        assert index.under_replicated() == []
        index.set_liveness(lambda node_id: node_id != 1)
        under = index.under_replicated()
        assert under  # node 1 hosted a replica of some shard
        for shard_id in under:
            assert index.live_replication()[shard_id] < index.replication

    def test_add_replica_copies_donor_and_reports_docs(self):
        index, _, _ = build_index()
        shard_id = index.replicas_on(1)[0].shard_id
        donor = next(
            r for r in index.replicas_for(shard_id) if r.node_id != 1
        )
        free = next(
            n
            for n in range(index.num_nodes)
            if n not in {r.node_id for r in index.replicas_for(shard_id)}
        )
        replica, docs = index.add_replica(shard_id, free, donor)
        assert docs == sum(segment_docs(s) for s in donor.segments)
        assert replica.version_vector() == donor.version_vector()
        with pytest.raises(ValueError):
            index.add_replica(shard_id, free, donor)  # already hosting

    def test_bulk_write_after_re_replication_counts_once(self):
        # add_replica shares the donor's mutable base by reference; a
        # bulk write must land in that shared base once, and its memoised
        # digest must go stale for both replicas holding it.
        def positive(doc_id):
            return SentimentJudgment(
                spot=Spot(Subject("camera"), "camera", Span(0, 6), 0, doc_id),
                polarity=Polarity.POSITIVE,
            )

        index = ReplicatedIndex(2, 4, replication=2)
        index.add_judgment(positive("d1"))
        shard_id = index.subject_shard("camera")
        donor = index.replicas_for(shard_id)[0]
        before = donor.version_vector()
        free = next(
            n
            for n in range(index.num_nodes)
            if n not in index.nodes_for(shard_id)
        )
        copy, _ = index.add_replica(shard_id, free, donor)
        assert copy.base is donor.base
        index.add_judgment(positive("d2"))
        for replica in index.replicas_for(shard_id):
            assert replica.sentiment.counts("camera")[Polarity.POSITIVE] == 2
        vectors = {r.version_vector() for r in index.replicas_for(shard_id)}
        assert len(vectors) == 1
        assert vectors != {before}

        # Compaction hands every replica with the same prefix one merged
        # base; a bulk write after it must still land once.
        sentiment = SentimentIndex()
        sentiment.add_judgment(positive("d3"))
        index.absorb(
            IndexSegment(
                segment_id=0,
                sentiment=sentiment,
                inverted=InvertedIndex(),
                tombstones=frozenset({"d3"}),
                stats=SegmentStats(documents=0, deletes=0, judgments=1),
            )
        )
        index.compact()
        (merged,) = {id(r.base): r.base for r in index.replicas_for(shard_id)}.values()
        assert merged.version == 1
        index.add_judgment(positive("d4"))
        for replica in index.replicas_for(shard_id):
            assert replica.sentiment.counts("camera")[Polarity.POSITIVE] == 4

    def test_drop_replica_requires_presence(self):
        index, _, _ = build_index()
        shard_id = 0
        absent = next(
            n
            for n in range(index.num_nodes)
            if n not in {r.node_id for r in index.replicas_for(shard_id)}
        )
        with pytest.raises(ValueError):
            index.drop_replica(shard_id, absent)

    def test_sync_replica_ships_only_the_missing_suffix(self):
        index, live, _ = build_index()
        index.set_liveness(lambda node_id: node_id != 1)
        live.apply_batch([add("d3", NEGATIVE)])
        index.set_liveness(None)
        stale = index.replicas_on(1)[0]
        donor = next(
            r for r in index.replicas_for(stale.shard_id) if r.node_id != 1
        )
        shipped = index.sync_replica(stale, donor)
        missing = donor.segments[len(donor.segments) - 1]
        assert shipped == segment_docs(missing)
        assert stale.version_vector() == donor.version_vector()
        assert index.sync_replica(stale, donor) == 0  # already caught up

    def test_sync_replica_full_resync_on_divergence(self):
        # The donor compacted while the target was down: the target's
        # log is no longer a prefix, so the whole log ships.
        obs = Obs.default()
        index = ReplicatedIndex(2, 2, replication=2)
        live = LiveIndexer(
            index,
            DeltaIndexer(
                SentimentMiner(
                    subjects=[Subject("NR70"), Subject("G3")], obs=obs
                ),
                obs=obs,
            ),
            obs=obs,
            policy=CompactionPolicy(max_segments=2),
        )
        live.apply_batch([add("d1", POSITIVE)])
        index.set_liveness(lambda node_id: node_id != 1)
        # Enough batches to trigger compaction on the live replicas.
        for i in range(3):
            live.apply_batch([add(f"x{i}", OTHER)])
        index.set_liveness(None)
        stale = index.replicas_on(1)[0]
        donor = next(
            r for r in index.replicas_for(stale.shard_id) if r.node_id != 1
        )
        assert len(donor.segments) != len(stale.segments)
        shipped = index.sync_replica(stale, donor)
        assert shipped == sum(segment_docs(s) for s in donor.segments)
        assert stale.version_vector() == donor.version_vector()


# ---------------------------------------------------------------------------
# shared shard work: one base, one merge per prefix, one tokenization
# ---------------------------------------------------------------------------


def per_replica_compaction(index):
    """What :meth:`ReplicatedIndex.compact` must report: every live
    replica merging its own prefix, whether or not the merge is shared."""
    floor = index.compaction_floor()
    merged = rewritten = 0
    for shard_id in index.shard_ids():
        for replica in index.replicas_for(shard_id):
            prefix = [s for s in replica.segments if s.version <= floor]
            if index.node_up(replica.node_id) and len(prefix) >= 2:
                merged += len(prefix)
                rewritten += segment_docs(merge_segments(prefix))
    return merged, rewritten


BATCHES = [
    [add("d1", POSITIVE), add("d2", OTHER)],
    [add("d3", NEGATIVE)],
    [add("d1", OTHER), add("d4", POSITIVE)],
    [add("d5", NEGATIVE), add("d2", POSITIVE)],
    [add("d6", OTHER)],
]


class TestSharedShardWork:
    def test_replicas_with_one_prefix_share_one_merge(self, monkeypatch):
        obs = Obs.default()
        index = ReplicatedIndex(4, 3, replication=2)
        live = make_live(index, obs, max_segments=2)
        merges = []
        monkeypatch.setattr(
            shards,
            "merge_segments",
            lambda prefix: merges.append(prefix) or merge_segments(prefix),
        )
        for batch in BATCHES:
            live.apply_batch(batch)
        runs = obs.metrics.counter("compaction.runs").value
        assert runs > 0
        assert len(merges) <= runs * index.num_shards  # not once per replica
        for shard_id in index.shard_ids():
            primary, peer = index.replicas_for(shard_id)
            assert primary.base.version > 0
            assert list(map(id, primary.segments)) == list(map(id, peer.segments))

    def test_down_replica_keeps_its_log_and_heals(self):
        index = ReplicatedIndex(4, 3, replication=2)
        live = make_live(index, Obs.default(), max_segments=2)
        live.apply_batch(BATCHES[0])
        index.set_liveness(lambda node_id: node_id != 1)
        stale = {r.shard_id: list(map(id, r.segments)) for r in index.replicas_on(1)}
        for batch in BATCHES[1:]:
            live.apply_batch(batch)
        for replica in index.replicas_on(1):
            assert list(map(id, replica.segments)) == stale[replica.shard_id]
        index.set_liveness(None)
        for replica in index.replicas_on(1):
            donor = next(
                r for r in index.replicas_for(replica.shard_id) if r is not replica
            )
            assert donor.base.version > 0  # compacted while node 1 was down
            assert index.sync_replica(replica, donor) > 0
            assert replica.version_vector() == donor.version_vector()
            assert index.sync_replica(replica, donor) == 0

    def test_unhealed_replica_merges_its_own_prefix(self):
        # Node 1 misses three slices and a compaction, rejoins, and the
        # next compaction runs before anti-entropy: both replicas then
        # have two-segment prefixes, but only the peer's hold the data.
        index = ReplicatedIndex(4, 3, replication=2)
        live = make_live(index, Obs.default())
        index.set_liveness(lambda node_id: node_id != 1)
        for batch in BATCHES[:3]:
            live.apply_batch(batch)
        index.compact()
        index.set_liveness(None)
        live.apply_batch(BATCHES[3])
        prefixes = {id(r): list(r.segments) for r in index.replicas_on(1)}
        index.compact()
        for replica in index.replicas_on(1):
            donor = next(
                r for r in index.replicas_for(replica.shard_id) if r is not replica
            )
            own = merge_segments(prefixes[id(replica)])
            assert segment_digest(replica.base) == segment_digest(own)
            assert replica.base is not donor.base
            index.sync_replica(replica, donor)
            assert replica.version_vector() == donor.version_vector()

    def test_compact_reports_every_replica_rewrite(self):
        obs = Obs.default()
        index = ReplicatedIndex(4, 3, replication=3)
        live = make_live(index, obs)
        index.set_liveness(lambda node_id: node_id != 2)
        for batch in BATCHES:
            live.apply_batch(batch)
        expected = per_replica_compaction(index)
        assert expected[0] > 0
        assert index.compact() == expected

    def test_compaction_charge_matches_per_replica_rewrites(self, monkeypatch):
        obs = Obs.default()
        index = ReplicatedIndex(4, 3, replication=2)
        live = make_live(index, obs, max_segments=2)
        compact = index.compact
        calls = []

        def observed_compact():
            calls.append((per_replica_compaction(index)[1], obs.clock.now))
            return compact()

        monkeypatch.setattr(index, "compact", observed_compact)
        charged = 0
        for batch in BATCHES:
            calls.clear()
            live.apply_batch(batch)
            for rewritten, started in calls:
                assert obs.clock.now - started == pytest.approx(
                    COMPACT_COST_PER_DOC * rewritten
                )
                charged += rewritten
        assert charged > 0
        assert obs.metrics.counter("compaction.merged_docs").value == charged

    def test_each_document_is_tokenized_once(self, monkeypatch):
        tokenized = []
        tokenizer = indexer_module._DEFAULT_TOKENIZER
        terms = tokenizer.terms
        monkeypatch.setattr(
            tokenizer, "terms", lambda text: tokenized.append(text) or terms(text)
        )
        index = ReplicatedIndex(4, 3, replication=3)
        entities = [
            Entity(entity_id=f"b{i}", content=f"{text} ({i})")
            for i, text in enumerate((POSITIVE, NEGATIVE, OTHER))
        ]
        index.add_entities(entities)
        assert sorted(tokenized) == sorted(e.content for e in entities)

        tokenized.clear()
        batch = [add(f"n{i}", f"{text} [{i}]") for i, text in enumerate((OTHER, POSITIVE))]
        make_live(index, Obs.default()).apply_batch(batch)
        assert sorted(tokenized) == sorted(d.entity.content for d in batch)

    def test_absorb_walks_the_sealed_postings_once(self, monkeypatch):
        obs = Obs.default()
        index = ReplicatedIndex(4, 3, replication=2)
        live = make_live(index, obs, max_segments=2)
        partitions, absorbs = [], []
        partition, absorb = InvertedIndex.partition, InvertedIndex.absorb
        monkeypatch.setattr(
            InvertedIndex,
            "partition",
            lambda self, *args: partitions.append(self) or partition(self, *args),
        )
        monkeypatch.setattr(
            InvertedIndex,
            "absorb",
            lambda self, *args, **kwargs: absorbs.append(self) or absorb(self, *args, **kwargs),
        )
        replicated_absorb = index.absorb

        def observed_absorb(segment):
            partitions.clear()
            merged_before = len(absorbs)
            version = replicated_absorb(segment)
            assert partitions == [segment.inverted]  # one walk per sealed segment
            assert len(absorbs) == merged_before  # slicing replays no postings
            return version

        monkeypatch.setattr(index, "absorb", observed_absorb)
        for batch in BATCHES:
            live.apply_batch(batch)
        assert obs.metrics.counter("compaction.runs").value > 0
        assert absorbs  # compaction merges went through absorb


# ---------------------------------------------------------------------------
# recovery manager lifecycle
# ---------------------------------------------------------------------------


def make_recovery(obs=None, router=None, slo=None):
    obs = obs or Obs.enabled()
    index, live, _ = build_index(obs=obs)
    plan = FaultPlan(0).kill_node(1)
    recovery = RecoveryManager(
        index, plan, obs, router=router, slo=slo, live_indexer=live
    )
    return index, live, plan, recovery, obs


class TestRecoveryManager:
    def test_death_triggers_re_replication_to_rf(self):
        index, _, plan, recovery, obs = make_recovery()
        before = obs.clock.now
        tick = recovery.tick()
        assert tick["down_nodes"] == [1]
        assert tick["under_replicated"] == []
        assert index.under_replicated() == []
        assert recovery.recovery_replicas  # extra copies exist
        shipped = sum(
            segment_docs(s)
            for shard, host in recovery.recovery_replicas
            for s in index.replica_on(host, shard).segments
        )
        assert obs.clock.now - before == pytest.approx(
            shipped * TRANSFER_COST_PER_DOC
        )
        assert recovery.restore_durations  # measured from death at t=0

    def test_rejoin_catches_up_retires_and_settles(self):
        router = StubRouter()
        obs = Obs.enabled()
        index, live, _ = build_index(obs=obs)
        original = {
            (r.shard_id, r.node_id)
            for shard in index.shard_ids()
            for r in index.replicas_for(shard)
        }
        plan = FaultPlan(0).kill_node(1)
        plan.restart_node(1, after_cost=obs.clock.now + 5.0)
        recovery = RecoveryManager(
            index, plan, obs, router=router, live_indexer=live
        )
        recovery.tick()  # death observed
        live.apply_batch([add("d9", NEGATIVE)])  # node 1 misses this
        assert not recovery.settled
        obs.clock.advance(10.0)
        recovery.tick()  # rejoin: catch-up + retire + probe
        assert recovery.settled
        assert router.probed == [1]
        assert recovery.catchup_durations
        placement = {
            (r.shard_id, r.node_id)
            for shard in index.shard_ids()
            for r in index.replicas_for(shard)
        }
        assert placement == original  # recovery copies retired
        for shard in index.shard_ids():
            vectors = {r.version_vector() for r in index.replicas_for(shard)}
            assert len(vectors) == 1  # anti-entropy converged

    def test_denied_probe_is_retried_next_tick(self):
        router = StubRouter(deny=1)
        obs = Obs.enabled()
        index, live, _ = build_index(obs=obs)
        plan = FaultPlan(0).kill_node(1)
        plan.restart_node(1, after_cost=obs.clock.now + 1.0)
        recovery = RecoveryManager(
            index, plan, obs, router=router, live_indexer=live
        )
        recovery.tick()
        obs.clock.advance(2.0)
        recovery.tick()  # rejoin; probe denied (breaker still cooling)
        assert not recovery.settled
        recovery.tick()  # retried and admitted
        assert recovery.settled
        assert router.probed == [1, 1]

    def test_events_and_audit_are_recorded(self):
        obs = Obs.enabled()
        index, live, _ = build_index(obs=obs)
        plan = FaultPlan(0).kill_node(1)
        plan.restart_node(1, after_cost=obs.clock.now + 1.0)
        recovery = RecoveryManager(index, plan, obs, live_indexer=live)
        recovery.tick()
        obs.clock.advance(2.0)
        recovery.tick()
        kinds = [e["kind"] for e in recovery.events]
        assert "death" in kinds and "rejoin" in kinds
        assert "replicate" in kinds and "retire" in kinds
        audit_kinds = {e.kind for e in obs.audit.entries}
        assert AUDIT_KIND_RECOVERY in audit_kinds

    def test_replication_slo_records_per_shard_health(self):
        obs = Obs.enabled()
        slo = SLOMonitor(obs, (replication_slo(),))
        index, live, _ = build_index(obs=obs)
        plan = FaultPlan(0).kill_node(1)
        recovery = RecoveryManager(index, plan, obs, slo=slo, live_indexer=live)
        recovery.tick()
        (status,) = slo.evaluate()
        assert status["kind"] == "replication"
        # Re-replication healed every shard within the tick.
        assert status["events"] == len(list(index.shard_ids()))
        assert status["bad"] == 0

    def test_wal_replay_applies_unsealed_batches_exactly_once(self):
        obs = Obs.default()
        index = ReplicatedIndex(4, 3, replication=2)
        wal = WriteAheadLog(obs=obs)
        live = make_live(index, obs, wal=wal)
        batch = [add("d1", POSITIVE), add("d2", OTHER)]
        lsn = wal.append(batch)
        # Crash before apply: the WAL holds the only durable copy.
        assert wal.depth == 1
        recovery = RecoveryManager(
            index, None, obs, wal=wal, live_indexer=live
        )
        assert recovery.replay_wal() == 1
        assert wal.depth == 0  # apply_batch sealed lsn on absorb
        assert wal.checkpoint_lsn == lsn
        assert recovery.replay_wal() == 0  # second replay finds nothing
        doc_ids = {
            doc
            for shard in index.shard_ids()
            for doc in index.replicas_for(shard)[0].view().inverted.doc_ids
        }
        assert doc_ids == {"d1", "d2"}

    def test_snapshot_and_summary_shapes(self):
        _, _, _, recovery, _ = make_recovery()
        recovery.tick()
        snap = recovery.snapshot()
        assert set(snap) == {
            "down_nodes",
            "pending_probes",
            "inflight_replicas",
            "live_replication",
            "under_replicated",
            "transfers",
            "docs_shipped",
            "settled",
        }
        summary = recovery.summary()
        assert summary["deaths"] == 1
        assert summary["transfers"] == snap["transfers"] > 0

    def test_health_surface_renders_recovery_and_wal_sections(self):
        obs = Obs.enabled()
        wal = WriteAheadLog(obs=obs)
        wal.append([add("d1", POSITIVE)])
        _, _, _, recovery, _ = (None,) * 5
        index, live, _ = build_index(obs=obs)
        plan = FaultPlan(0).kill_node(1)
        recovery = RecoveryManager(index, plan, obs, wal=wal, live_indexer=live)
        recovery.tick()
        snap = health_snapshot(obs, recovery=recovery, wal=wal)
        assert snap["recovery"]["down_nodes"] == [1]
        assert snap["wal"]["depth"] == 1
        text = render_health(snap)
        assert "recovery" in text and "wal" in text
        assert "down_nodes       1" in text
