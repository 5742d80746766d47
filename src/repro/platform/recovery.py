"""Self-healing replication: re-replication and anti-entropy catch-up.

The paper's cluster treated node loss as routine; what makes such a
cluster *operable* is that lost replicas come back.  This module closes
that loop for the simulation.  A :class:`RecoveryManager` runs on the
shared :class:`~repro.obs.clock.SimClock` and is ticked between load
bursts (and by tests directly).  Each tick it:

* compares the fault plan's time-aware liveness against what it knew
  last tick, so node **deaths** and **rejoins** are observed exactly
  once each;
* after a death, finds every shard left under-replicated and
  **re-replicates** it onto a deterministic surviving successor node by
  copying a donor replica's segment log (charged at
  :data:`TRANSFER_COST_PER_DOC` per document shipped);
* after a rejoin, **catches the node up by anti-entropy**: its replicas'
  version vectors (per-segment ``(version, content digest)`` pairs,
  :meth:`~repro.platform.serving.shards.ShardReplica.version_vector`)
  are compared against a live donor and only the missing suffix is
  shipped — a divergent log (the donor compacted meanwhile) falls back
  to a full transfer;
* retires recovery replicas once the original host is caught up, so the
  cluster converges back to the *exact* pre-fault placement — that is
  what makes a recovered run byte-identical to one that never crashed;
* re-admits rejoined nodes into the router through explicit
  circuit-breaker half-open probes, in sorted node order
  (:meth:`~repro.platform.serving.router.ServingRouter.probe_node`);
* optionally replays the ingest write-ahead log
  (:meth:`replay_wal`) so batches accepted before a crash are re-sealed
  exactly once.

Everything is deterministic: liveness comes from the seeded
:class:`~repro.platform.faults.FaultPlan`, time from the simulated
clock, and all iteration orders are sorted.
"""

from __future__ import annotations

from typing import Any

from ..obs import Obs
from ..obs.audit import AuditEntry
from .faults import FaultPlan
from .serving.shards import ReplicatedIndex, segment_docs

#: Simulated cost of shipping one document in a recovery transfer —
#: deliberately pricier than a compaction rewrite (0.002): recovery
#: moves data across nodes, compaction rewrites it in place.
TRANSFER_COST_PER_DOC = 0.004

#: Audit-trail kind for recovery decisions.
AUDIT_KIND_RECOVERY = "recovery"


class RecoveryManager:
    """Detects deaths and rejoins; restores replication deterministically."""

    def __init__(
        self,
        index: ReplicatedIndex,
        plan: FaultPlan | None,
        obs: Obs | None = None,
        *,
        router=None,  # ServingRouter; untyped to avoid a circular import
        slo=None,  # SLOMonitor with a replication spec, if any
        wal=None,  # WriteAheadLog feeding live_indexer, if any
        live_indexer=None,  # LiveIndexer to replay WAL batches through
    ):
        self._index = index
        self._plan = plan
        self._obs = obs if obs is not None else Obs.default()
        self._router = router
        self._slo = slo
        self._wal = wal
        self._live_indexer = live_indexer
        self._known_down: set[int] = set()
        self._pending_probes: set[int] = set()
        #: Extant recovery copies as (shard_id, host_node) — "in-flight"
        #: from the health surface's point of view until retired.
        self._recovery_replicas: set[tuple[int, int]] = set()
        self.events: list[dict[str, Any]] = []
        #: Sim-time from node death to replication factor restored.
        self.restore_durations: list[float] = []
        #: Sim-time each rejoining node took to catch up.
        self.catchup_durations: list[float] = []
        metrics = self._obs.metrics
        self._transfers = metrics.counter("recovery.transfers")
        self._docs_shipped = metrics.counter("recovery.docs_shipped")
        self._deaths = metrics.counter("recovery.deaths")
        self._rejoins = metrics.counter("recovery.rejoins")
        self._probes_admitted = metrics.counter("recovery.probes_admitted")
        self._under_gauge = metrics.gauge("recovery.under_replicated")
        self._inflight_gauge = metrics.gauge("recovery.inflight_replicas")
        # Writers (absorb/compact) must skip down nodes from now on.
        index.set_liveness(self.node_up)

    # -- liveness ---------------------------------------------------------------

    def node_up(self, node_id: int) -> bool:
        """Time-aware liveness, as the replicated index consults it."""
        return self._plan is None or not self._plan.node_down(
            node_id, self._obs.clock.now
        )

    @property
    def down_nodes(self) -> list[int]:
        return sorted(self._known_down)

    @property
    def recovery_replicas(self) -> list[tuple[int, int]]:
        """Extant (shard, host) recovery copies, sorted."""
        return sorted(self._recovery_replicas)

    @property
    def settled(self) -> bool:
        """Fully healed: everyone up, caught up, probed, and at RF."""
        return (
            not self._known_down
            and not self._pending_probes
            and not self._recovery_replicas
            and not self._index.under_replicated()
            and not self._diverged_shards()
        )

    # -- the tick ---------------------------------------------------------------

    def tick(self) -> dict[str, Any]:
        """One recovery pass; safe (and cheap) to call between bursts."""
        now = self._obs.clock.now
        down_now = {
            node_id
            for node_id in range(self._index.num_nodes)
            if not self.node_up(node_id)
        }
        for node_id in sorted(down_now - self._known_down):
            self._on_death(node_id)
        for node_id in sorted(self._known_down - down_now):
            self._on_rejoin(node_id)
        self._known_down = down_now
        self._retire_recovered()
        self._anti_entropy_sweep()
        if self._router is not None:
            for node_id in sorted(self._pending_probes):
                if self._router.probe_node(node_id):
                    self._pending_probes.discard(node_id)
                    self._probes_admitted.inc()
                    self._record_event("readmit", node=node_id)
        under = self._index.under_replicated()
        self._under_gauge.set(len(under))
        self._inflight_gauge.set(len(self._recovery_replicas))
        if self._slo is not None:
            for shard_id in self._index.shard_ids():
                self._slo.record_replication(shard_id not in under)
            self._slo.evaluate()
        return {
            "now": now,
            "down_nodes": sorted(down_now),
            "under_replicated": under,
            "pending_probes": sorted(self._pending_probes),
            "recovery_replicas": self.recovery_replicas,
            "settled": self.settled,
        }

    # -- death: restore the replication factor ----------------------------------

    def _on_death(self, node_id: int) -> None:
        """Re-replicate every shard the dead node leaves short of RF."""
        self._deaths.inc()
        # Serving-model deaths take effect at time zero (the node never
        # answered); the restore duration is measured from there so the
        # bench's ceiling covers detection delay, not just transfers.
        death_time = 0.0
        self._record_event("death", node=node_id)
        shards = [r.shard_id for r in self._index.replicas_on(node_id)]
        restored = True
        for shard_id in shards:
            live = [
                r
                for r in self._index.replicas_for(shard_id)
                if self.node_up(r.node_id)
            ]
            if len(live) >= self._index.replication:
                continue
            if not live:
                restored = False
                self._record_event("unrecoverable", node=node_id, shard=shard_id)
                continue
            target = self._pick_target(shard_id)
            if target is None:
                restored = False
                self._record_event("no_target", node=node_id, shard=shard_id)
                continue
            donor = live[0]
            _, docs = self._index.add_replica(shard_id, target, donor)
            self._recovery_replicas.add((shard_id, target))
            self._charge_transfer(docs)
            self._record_event(
                "replicate", node=target, shard=shard_id, docs=docs, donor=donor.node_id
            )
        if restored and shards:
            self.restore_durations.append(self._obs.clock.now - death_time)
        self._audit(
            subject=f"node{node_id}",
            decision="re-replicated" if restored else "degraded",
            reason=f"death left shards {shards} short of RF {self._index.replication}",
        )

    def _pick_target(self, shard_id: int) -> int | None:
        """Deterministic successor scan for a host not yet on the shard."""
        hosting = {r.node_id for r in self._index.replicas_for(shard_id)}
        for offset in range(self._index.num_nodes):
            candidate = (shard_id + self._index.replication + offset) % self._index.num_nodes
            if candidate not in hosting and self.node_up(candidate):
                return candidate
        return None

    # -- rejoin: anti-entropy catch-up ------------------------------------------

    def _on_rejoin(self, node_id: int) -> None:
        """Ship a rejoined node the segments it missed, digest-guided."""
        self._rejoins.inc()
        rejoined_at = self._obs.clock.now
        self._record_event("rejoin", node=node_id)
        shipped_total = 0
        for replica in self._index.replicas_on(node_id):
            donors = [
                r
                for r in self._index.replicas_for(replica.shard_id)
                if r.node_id != node_id and self.node_up(r.node_id)
            ]
            if not donors:
                continue
            docs = self._index.sync_replica(replica, donors[0])
            if docs:
                self._charge_transfer(docs)
                shipped_total += docs
                self._record_event(
                    "catchup",
                    node=node_id,
                    shard=replica.shard_id,
                    docs=docs,
                    donor=donors[0].node_id,
                )
        if self._router is not None:
            self._pending_probes.add(node_id)
        self.catchup_durations.append(self._obs.clock.now - rejoined_at)
        self._audit(
            subject=f"node{node_id}",
            decision="caught-up",
            reason=f"anti-entropy shipped {shipped_total} docs on rejoin",
        )

    def _diverged_shards(self) -> list[int]:
        """Shards whose *live* replicas disagree, by digest vector."""
        diverged = []
        for shard_id in self._index.shard_ids():
            vectors = {
                r.version_vector()
                for r in self._index.replicas_for(shard_id)
                if self.node_up(r.node_id)
            }
            if len(vectors) > 1:
                diverged.append(shard_id)
        return diverged

    def _anti_entropy_sweep(self) -> None:
        """Heal divergence among live replicas, digest-guided.

        The rejoin path catches a node whose death was *observed*; this
        sweep additionally catches an unobserved blip — a node that died
        and came back entirely between two ticks, leaving a stale replica
        that liveness alone would count as healthy.  The donor is the
        most advanced live replica: highest absorbed version, then most
        documents (a blip replica with a *hole* in its log ties on
        version but is missing content), then — when only a compaction
        was missed — the compacted, shorter log, then the lowest node id.
        """
        for shard_id in self._diverged_shards():
            live = [
                r
                for r in self._index.replicas_for(shard_id)
                if self.node_up(r.node_id)
            ]
            donor = max(
                live,
                key=lambda r: (
                    max((s.version for s in r.segments), default=-1),
                    sum(segment_docs(s) for s in r.segments),
                    -len(r.segments),
                    -r.node_id,
                ),
            )
            # The donor is never a sync target, so its vector is fixed
            # for the whole loop.
            donor_vector = donor.version_vector()
            for replica in live:
                if replica is donor:
                    continue
                if replica.version_vector() == donor_vector:
                    continue
                docs = self._index.sync_replica(replica, donor)
                if docs:
                    self._charge_transfer(docs)
                self._record_event(
                    "sweep",
                    node=replica.node_id,
                    shard=shard_id,
                    docs=docs,
                    donor=donor.node_id,
                )

    def _retire_recovered(self) -> None:
        """Drop recovery copies no longer needed for the RF guarantee.

        Retiring restores the exact original placement — the property
        the determinism gate relies on.  A copy is kept while any other
        host of its shard is still down.
        """
        for shard_id, host in sorted(self._recovery_replicas):
            live_without = sum(
                1
                for r in self._index.replicas_for(shard_id)
                if r.node_id != host and self.node_up(r.node_id)
            )
            if live_without >= self._index.replication:
                self._index.drop_replica(shard_id, host)
                self._recovery_replicas.discard((shard_id, host))
                self._record_event("retire", node=host, shard=shard_id)

    # -- WAL replay --------------------------------------------------------------

    def replay_wal(self) -> int:
        """Re-apply every unsealed WAL batch through the live indexer.

        Exactly-once: each replayed batch is sealed by
        :meth:`~repro.platform.segments.LiveIndexer.apply_batch`, so a
        second replay finds nothing to do; tombstones make a re-applied
        segment mask any half-applied copy from before the crash.
        Returns the number of batches replayed.
        """
        if self._wal is None or self._live_indexer is None:
            return 0
        replayed = 0
        for record in list(self._wal.replay()):
            self._live_indexer.apply_batch(list(record.deltas), lsn=record.lsn)
            replayed += 1
            self._record_event("wal_replay", lsn=record.lsn, docs=len(record.deltas))
        return replayed

    # -- bookkeeping -------------------------------------------------------------

    def _charge_transfer(self, docs: int) -> None:
        self._transfers.inc()
        self._docs_shipped.inc(docs)
        self._obs.clock.advance(TRANSFER_COST_PER_DOC * docs)

    def _record_event(self, kind: str, **fields: Any) -> None:
        event = {"kind": kind, "at": self._obs.clock.now, **fields}
        self.events.append(event)

    def _audit(self, *, subject: str, decision: str, reason: str) -> None:
        self._obs.audit.record(
            AuditEntry(
                kind=AUDIT_KIND_RECOVERY,
                subject=subject,
                decision=decision,
                reason=reason,
            )
        )

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view for the health surface."""
        return {
            "down_nodes": self.down_nodes,
            "pending_probes": sorted(self._pending_probes),
            "inflight_replicas": self.recovery_replicas,
            "live_replication": {
                str(shard): live
                for shard, live in sorted(self._index.live_replication().items())
            },
            "under_replicated": self._index.under_replicated(),
            "transfers": int(self._transfers.value),
            "docs_shipped": int(self._docs_shipped.value),
            "settled": self.settled,
        }

    def summary(self) -> dict[str, Any]:
        """Run-level recovery stats for the serving scenario report."""
        return {
            "deaths": int(self._deaths.value),
            "rejoins": int(self._rejoins.value),
            "transfers": int(self._transfers.value),
            "docs_shipped": int(self._docs_shipped.value),
            "probes_admitted": int(self._probes_admitted.value),
            "restore_durations": list(self.restore_durations),
            "catchup_durations": list(self.catchup_durations),
            "under_replicated": self._index.under_replicated(),
            "settled": self.settled,
        }
