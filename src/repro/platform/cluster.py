"""Shared-nothing cluster simulation.

"The system is designed as a loosely coupled, shared-nothing parallel
cluster of Intel-based Linux servers ... The WebFountain system achieves
scalability of up to billions of documents by full parallelism."

The simulation keeps WebFountain's decomposition at laptop scale: a
cluster owns N nodes, the store's partitions are assigned round-robin,
entity miners run per-node over the node's own partitions, and corpus
miners map per partition then reduce at the coordinator.

Execution is sequential, but each node tracks *simulated work* (one cost
unit per processed entity plus a per-message Vinci overhead), so the
Figure-1 benchmark can report the cluster-scaling series —
``makespan(N) = max over nodes of node work + reduce cost`` — and show
the near-linear regime the paper claims, without pretending wall-clock
parallelism.

Failure model (DESIGN.md "Failure model")
-----------------------------------------
A cluster may carry a seeded :class:`~repro.platform.faults.FaultPlan`:
nodes can die mid-run (after completing K of their partitions), Vinci
services can fail or time out, and partition writes can be dropped or
corrupted.  With ``replication`` R ≥ 2 each partition has R owners
(primary round-robin, replicas on the following nodes); partitions
orphaned by a node death *fail over* to their first live replica owner
and the extra work is charged to that node.  When every owner is dead
the partition is lost: instead of raising, runs return a **degraded**
report — ``coverage`` is the fraction of entities actually processed,
``degraded`` flags any loss, and corpus miners reduce over the
surviving per-partition partials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TypeVar

from ..obs import Obs
from ..obs.context import with_trace
from .datastore import DataStore
from .faults import FaultPlan
from ..core.mining import CorpusMiner, MinerPipeline, PipelineReport
from .retry import RetryPolicy
from .vinci import VinciBus, VinciError

T = TypeVar("T")

#: Simulated cost constants (arbitrary units).
ENTITY_COST = 1.0
MESSAGE_COST = 0.05
REDUCE_COST_PER_PARTIAL = 0.5

#: The coordinator-ack service every node calls at end of run.
COORDINATOR_SERVICE = "cluster.coordinator"


@dataclass
class Node:
    """One cluster node: owns partitions, accumulates simulated work."""

    node_id: int
    partition_ids: list[int] = field(default_factory=list)
    work_units: float = 0.0
    entities_processed: int = 0

    def charge(self, entities: int) -> None:
        self.entities_processed += entities
        self.work_units += entities * ENTITY_COST


@dataclass
class ClusterRunReport:
    """Outcome of one distributed run.

    ``messages`` counts this run's coordinator messages (not bus
    lifetime totals); the degradation fields describe what the fault
    plan did to the run: ``retries`` is Vinci retry attempts, each
    ``failover`` is one partition re-run on a replica owner,
    ``dead_nodes`` lists nodes that died, ``coverage`` is the fraction
    of stored entities actually processed, and ``degraded`` is true
    exactly when coverage fell short of 1.0.
    """

    pipeline: PipelineReport
    makespan: float
    total_work: float
    messages: int
    per_node_work: list[float]
    retries: int = 0
    failovers: int = 0
    dead_nodes: tuple[int, ...] = ()
    restarted_nodes: tuple[int, ...] = ()
    recovered_partitions: tuple[int, ...] = ()
    lost_partitions: tuple[int, ...] = ()
    coverage: float = 1.0
    degraded: bool = False

    @property
    def speedup(self) -> float:
        """Ideal-sequential work divided by simulated makespan."""
        if self.makespan == 0:
            return 1.0
        return self.total_work / self.makespan

    def to_dict(self) -> dict:
        """JSON-ready view of the report (``repro platform --json``)."""
        return {
            "makespan": self.makespan,
            "total_work": self.total_work,
            "speedup": self.speedup,
            "messages": self.messages,
            "per_node_work": list(self.per_node_work),
            "retries": self.retries,
            "failovers": self.failovers,
            "dead_nodes": list(self.dead_nodes),
            "restarted_nodes": list(self.restarted_nodes),
            "recovered_partitions": list(self.recovered_partitions),
            "lost_partitions": list(self.lost_partitions),
            "coverage": self.coverage,
            "degraded": self.degraded,
            "pipeline": {
                "entities_processed": self.pipeline.entities_processed,
                "miner_runs": dict(self.pipeline.miner_runs),
                "errors": [list(e) for e in self.pipeline.errors],
            },
        }


@dataclass
class _RunPlan:
    """Partition→node assignments for one run, after applying faults."""

    #: (node, partition_id, is_failover) in processing order.
    assignments: list[tuple[Node, int, bool]]
    dead_nodes: tuple[int, ...]
    restarted_nodes: tuple[int, ...]
    recovered_partitions: tuple[int, ...]
    lost_partitions: tuple[int, ...]
    failovers: int


class Cluster:
    """A simulated WebFountain cluster around one partitioned store."""

    def __init__(
        self,
        store: DataStore,
        num_nodes: int,
        bus: VinciBus | None = None,
        replication: int = 1,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        obs: Obs | None = None,
    ):
        if num_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        if num_nodes > store.num_partitions:
            raise ValueError(
                f"cannot spread {store.num_partitions} partitions over {num_nodes} nodes"
            )
        if not 1 <= replication <= num_nodes:
            raise ValueError(
                f"replication must lie in [1, {num_nodes}], got {replication}"
            )
        self._store = store
        self._fault_plan = fault_plan
        # The cluster, its bus, and every instrumented component below
        # share one Obs context (tracer + metrics + simulated clock).
        if bus is not None:
            self._obs = obs if obs is not None else bus.obs
            self._bus = bus
        else:
            self._obs = obs if obs is not None else Obs.default()
            self._bus = VinciBus(
                retry_policy=retry_policy, fault_plan=fault_plan, obs=self._obs
            )
        self._nodes = [Node(node_id=i) for i in range(num_nodes)]
        self._replication = replication
        # Primary assignment stays round-robin; replica owners are the
        # next R-1 nodes, so losing any single node leaves R-1 owners.
        self._owners: dict[int, list[int]] = {}
        for partition_id in range(store.num_partitions):
            primary = partition_id % num_nodes
            self._nodes[primary].partition_ids.append(partition_id)
            self._owners[partition_id] = [
                (primary + offset) % num_nodes for offset in range(replication)
            ]
        if fault_plan is not None:
            store.attach_fault_plan(fault_plan)
        self._messages = 0  # bus-lifetime total (status())
        self._run_messages = 0  # reset per run (reports)
        self._lost_acks = 0
        self._bus.register("cluster.status", lambda _payload: self.status())
        self._bus.register(COORDINATOR_SERVICE, lambda payload: {"ack": payload.get("node")})

    # -- introspection ----------------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes)

    @property
    def bus(self) -> VinciBus:
        return self._bus

    @property
    def obs(self) -> Obs:
        return self._obs

    @property
    def replication(self) -> int:
        return self._replication

    @property
    def fault_plan(self) -> FaultPlan | None:
        return self._fault_plan

    def owners(self, partition_id: int) -> list[int]:
        """Node ids owning a partition (primary first, then replicas)."""
        return list(self._owners[partition_id])

    def status(self) -> dict:
        return {
            "nodes": len(self._nodes),
            "partitions": self._store.num_partitions,
            "entities": len(self._store),
            "messages": self._messages,
            "replication": self._replication,
        }

    # -- distributed entity mining ---------------------------------------------------------

    def run_pipeline(self, pipeline: MinerPipeline) -> ClusterRunReport:
        """Run an entity-miner pipeline on every node's partitions.

        Under a fault plan, partitions owned by dead nodes fail over to
        live replica owners; partitions with no surviving owner are left
        unprocessed and reported as lost (degraded coverage), never
        raised.
        """
        run_plan = self._plan_run()
        total_entities = len(self._store)
        retries_before = self._bus.retry_stats.retries
        backoff_before = self._bus.retry_stats.backoff_cost
        total_report = PipelineReport()
        processed_entities = 0
        senders: list[Node] = []
        with self._obs.tracer.span(
            "cluster.run",
            kind="pipeline",
            nodes=len(self._nodes),
            partitions=self._store.num_partitions,
            entities=total_entities,
        ) as run_span:
            for node, partition_id, failover in run_plan.assignments:
                partition = self._store.partition(partition_id)
                entities = list(partition.scan())
                with self._obs.tracer.span(
                    "cluster.partition",
                    node=node.node_id,
                    partition=partition_id,
                    failover=failover,
                    entities=len(entities),
                ):
                    # Stage-batched map: every miner sweeps the whole
                    # partition slice before the next one starts.
                    pipeline.process_batch(entities, total_report)
                    for entity in entities:
                        partition.put(entity)
                    node.charge(len(entities))
                    self._obs.clock.advance(len(entities) * ENTITY_COST)
                processed_entities += len(entities)
                if node not in senders:
                    senders.append(node)
            for node in senders:
                self._send_coordinator_message(node)
            return self._report(
                total_report,
                reduce_partials=0,
                run_plan=run_plan,
                processed_entities=processed_entities,
                total_entities=total_entities,
                retries=self._bus.retry_stats.retries - retries_before,
                backoff_cost=self._bus.retry_stats.backoff_cost - backoff_before,
                run_span=run_span,
            )

    # -- distributed corpus mining -----------------------------------------------------------

    def run_corpus_miner(self, miner: CorpusMiner[T]) -> tuple[T, ClusterRunReport]:
        """Map per partition, reduce at the coordinator.

        Partials are keyed by partition and reduced in partition order,
        so the reduce result is byte-identical no matter *which* node
        ran a partition — a failover changes work accounting, never the
        answer.  Lost partitions are simply absent from the reduce, and
        the report's ``coverage`` says how much of the corpus survived.
        """
        run_plan = self._plan_run()
        total_entities = len(self._store)
        retries_before = self._bus.retry_stats.retries
        backoff_before = self._bus.retry_stats.backoff_cost
        partials_by_partition: dict[int, T] = {}
        total_report = PipelineReport()
        processed_entities = 0
        senders: list[Node] = []
        with self._obs.tracer.span(
            "cluster.run",
            kind="corpus",
            miner=miner.name,
            nodes=len(self._nodes),
            partitions=self._store.num_partitions,
            entities=total_entities,
        ) as run_span:
            for node, partition_id, failover in run_plan.assignments:
                entities = list(self._store.partition(partition_id).scan())
                with self._obs.tracer.span(
                    "cluster.partition",
                    node=node.node_id,
                    partition=partition_id,
                    failover=failover,
                    entities=len(entities),
                ):
                    partials_by_partition[partition_id] = miner.map_partition(entities)
                    node.charge(len(entities))
                    self._obs.clock.advance(len(entities) * ENTITY_COST)
                processed_entities += len(entities)
                total_report.entities_processed += len(entities)
                if node not in senders:
                    senders.append(node)
            for node in senders:
                self._send_coordinator_message(node)
            partials = [partials_by_partition[pid] for pid in sorted(partials_by_partition)]
            with self._obs.tracer.span("cluster.reduce", partials=len(partials)):
                self._obs.clock.advance(len(partials) * REDUCE_COST_PER_PARTIAL)
                result = miner.reduce(partials)
            report = self._report(
                total_report,
                reduce_partials=len(partials),
                run_plan=run_plan,
                processed_entities=processed_entities,
                total_entities=total_entities,
                retries=self._bus.retry_stats.retries - retries_before,
                backoff_cost=self._bus.retry_stats.backoff_cost - backoff_before,
                run_span=run_span,
            )
        return result, report

    # -- internals -------------------------------------------------------------------------------

    def _plan_run(self) -> _RunPlan:
        """Apply the fault plan's node deaths to this run's assignments.

        A dead node with a scheduled *restart* rejoins within the run:
        the partitions its crash orphaned are re-assigned back to the
        node itself (restart catch-up), so only restart-less deaths
        trigger replica failover or partition loss.
        """
        deaths: dict[int, int] = {}
        restarted: list[int] = []
        if self._fault_plan is not None:
            for node in self._nodes:
                death = self._fault_plan.node_death(node.node_id)
                if death is not None:
                    deaths[node.node_id] = death
                    if self._fault_plan.node_restart(node.node_id) is not None:
                        restarted.append(node.node_id)
        assignments: list[tuple[Node, int, bool]] = []
        orphaned: list[tuple[int, int]] = []  # (partition_id, crashed owner)
        for node in self._nodes:
            completed_before_death = deaths.get(node.node_id)
            for position, partition_id in enumerate(node.partition_ids):
                if completed_before_death is not None and position >= completed_before_death:
                    orphaned.append((partition_id, node.node_id))
                else:
                    assignments.append((node, partition_id, False))
        lost: list[int] = []
        recovered: list[int] = []
        failovers = 0
        for partition_id, crashed_owner in sorted(orphaned):
            if crashed_owner in restarted:
                # The owner comes back mid-run and finishes its own
                # backlog; the work is charged to the restarted node.
                assignments.append((self._nodes[crashed_owner], partition_id, True))
                recovered.append(partition_id)
                continue
            survivor = next(
                (
                    self._nodes[owner]
                    for owner in self._owners[partition_id]
                    if owner not in deaths
                ),
                None,
            )
            if survivor is None:
                lost.append(partition_id)
            else:
                assignments.append((survivor, partition_id, True))
                failovers += 1
        return _RunPlan(
            assignments=assignments,
            dead_nodes=tuple(sorted(deaths)),
            restarted_nodes=tuple(sorted(restarted)),
            recovered_partitions=tuple(recovered),
            lost_partitions=tuple(lost),
            failovers=failovers,
        )

    def _send_coordinator_message(self, node: Node) -> None:
        self._messages += 1
        self._run_messages += 1
        node.work_units += MESSAGE_COST
        with self._obs.tracer.span("cluster.ack", node=node.node_id) as span:
            self._obs.clock.advance(MESSAGE_COST)
            try:
                self._bus.request(
                    COORDINATOR_SERVICE,
                    with_trace(
                        {"node": node.node_id}, self._obs.tracer.current_context
                    ),
                )
            except VinciError as exc:
                # The ack is bookkeeping; the node's results already live in
                # the store, so a lost ack degrades nothing.
                self._lost_acks += 1
                span.set_attribute("lost_ack", str(exc))

    def _report(
        self,
        pipeline: PipelineReport,
        reduce_partials: int,
        run_plan: _RunPlan | None = None,
        processed_entities: int | None = None,
        total_entities: int | None = None,
        retries: int = 0,
        backoff_cost: float = 0.0,
        run_span=None,
    ) -> ClusterRunReport:
        per_node = [node.work_units for node in self._nodes]
        reduce_cost = reduce_partials * REDUCE_COST_PER_PARTIAL
        # Retry backoff serialises at the coordinator, so it stretches
        # the critical path as well as the total.
        makespan = max(per_node, default=0.0) + reduce_cost + backoff_cost
        total = sum(per_node) + reduce_cost + backoff_cost
        if total_entities:
            coverage = (processed_entities or 0) / total_entities
        else:
            coverage = 1.0
        report = ClusterRunReport(
            pipeline=pipeline,
            makespan=makespan,
            total_work=total,
            messages=self._run_messages,
            per_node_work=per_node,
            retries=retries,
            failovers=run_plan.failovers if run_plan else 0,
            dead_nodes=run_plan.dead_nodes if run_plan else (),
            restarted_nodes=run_plan.restarted_nodes if run_plan else (),
            recovered_partitions=run_plan.recovered_partitions if run_plan else (),
            lost_partitions=run_plan.lost_partitions if run_plan else (),
            coverage=coverage,
            degraded=coverage < 1.0,
        )
        self._publish_report(report)
        if run_span is not None:
            run_span.set_attribute("makespan", report.makespan)
            run_span.set_attribute("coverage", report.coverage)
            run_span.set_attribute("degraded", report.degraded)
            run_span.set_attribute("retries", report.retries)
            run_span.set_attribute("failovers", report.failovers)
            run_span.set_attribute("dead_nodes", list(report.dead_nodes))
            run_span.set_attribute("lost_partitions", list(report.lost_partitions))
        # Work and message counters are per-run: reset after reporting.
        for node in self._nodes:
            node.work_units = 0.0
        self._run_messages = 0
        return report

    def _publish_report(self, report: ClusterRunReport) -> None:
        """Mirror the run report into the shared metrics registry."""
        metrics = self._obs.metrics
        metrics.counter("cluster.runs").inc()
        metrics.counter("cluster.entities_processed").inc(
            report.pipeline.entities_processed
        )
        metrics.counter("cluster.messages").inc(report.messages)
        metrics.counter("cluster.retries").inc(report.retries)
        metrics.counter("cluster.failovers").inc(report.failovers)
        metrics.counter("cluster.restarted_nodes").inc(len(report.restarted_nodes))
        metrics.counter("cluster.recovered_partitions").inc(
            len(report.recovered_partitions)
        )
        metrics.counter("cluster.lost_partitions").inc(len(report.lost_partitions))
        metrics.counter("cluster.degraded_runs").inc(1 if report.degraded else 0)
        metrics.gauge("cluster.makespan").set(report.makespan)
        metrics.gauge("cluster.total_work").set(report.total_work)
        metrics.gauge("cluster.coverage").set(report.coverage)
        metrics.gauge("cluster.dead_nodes").set(len(report.dead_nodes))
        metrics.histogram("cluster.node_work").observe(
            max(report.per_node_work, default=0.0)
        )
