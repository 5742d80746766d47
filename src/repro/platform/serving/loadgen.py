"""Closed-loop deterministic load generation for the serving router.

The acceptance story for the serving layer is a *bench*, not a unit
test: generate a realistic request mix (counts-heavy, like the paper's
reputation GUI), drive it through the router while a seeded
:class:`~repro.platform.faults.FaultPlan` kills an index node and fails
a slice of service calls, and report availability / latency percentiles
/ shed rate.  Everything is seeded — the corpus, the request mix, the
fault plan, the latency draws — so two runs with the same seed produce
byte-identical reports.

The generator is *closed-loop*: it submits a burst, drains the router
(serving every queued request to completion or shedding), records the
envelopes, and only then submits the next burst — the model is a fixed
population of clients that wait for answers, not an open firehose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ...core import SentimentMiner, Subject
from ...corpora import DOMAINS, ReviewGenerator
from ...obs import Obs, SLOMonitor, replication_slo
from ..api import validate_envelope
from ..chaos import DEFAULT_RESTART_WINDOW, schedule_restarts
from ..datastore import DataStore
from ..entity import Entity
from ..faults import FAIL, TIMEOUT, FaultPlan
from ..ingestion import DELTA_ADD, DocumentDelta
from ..segments import DeltaIndexer, LiveIndexer
from ..vinci import VinciBus
from ..wal import WriteAheadLog
from .router import (
    DEFAULT_BUDGET,
    STATUS_DEGRADED,
    STATUS_OK,
    ServingRouter,
    node_service,
)
from .shards import ReplicatedIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..recovery import RecoveryManager


@dataclass(frozen=True)
class LoadProfile:
    """Shape of the generated request stream."""

    requests: int = 300
    burst_min: int = 2
    burst_max: int = 8
    budget_min: float = 3.0
    budget_max: float = 2.0 * DEFAULT_BUDGET
    #: op → relative weight; counts-heavy like the reputation GUI.
    op_weights: tuple[tuple[str, float], ...] = (
        ("counts", 0.45),
        ("sentences", 0.25),
        ("subjects", 0.15),
        ("search", 0.15),
    )
    #: Priorities drawn uniformly from this pool (higher = shed last).
    priorities: tuple[int, ...] = (0, 1, 1, 2)


def percentile(values: list[float], q: float) -> float:
    """Deterministic nearest-rank percentile (0 for an empty series)."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1))]


class LoadGenerator:
    """Seeded closed-loop client population for one :class:`ServingRouter`."""

    def __init__(
        self,
        router: ServingRouter,
        *,
        subjects: list[str],
        queries: list[str],
        seed: int = 0,
        profile: LoadProfile | None = None,
        on_burst: Any = None,
    ):
        if not subjects:
            raise ValueError("need at least one subject to query")
        if not queries:
            raise ValueError("need at least one search query")
        self._router = router
        self._subjects = list(subjects)
        self._queries = list(queries)
        self._rng = random.Random(seed)
        self.profile = profile or LoadProfile()
        #: Optional zero-arg hook invoked after each drained burst —
        #: the recovery manager's tick rides the same cadence as SLO
        #: evaluation so healing happens between bursts, never mid-read.
        self._on_burst = on_burst
        #: Every (request, envelope) pair from the most recent run() —
        #: the trace-completeness gate audits these against the span dump.
        self.last_outcomes: list[tuple[Any, dict[str, Any]]] = []

    def _draw_request(self):
        profile = self.profile
        ops = [op for op, _ in profile.op_weights]
        weights = [w for _, w in profile.op_weights]
        op = self._rng.choices(ops, weights=weights, k=1)[0]
        payload: dict[str, Any] = {}
        if op in ("counts", "sentences"):
            payload["subject"] = self._rng.choice(self._subjects)
            if op == "sentences" and self._rng.random() < 0.4:
                payload["polarity"] = self._rng.choice(["+", "-"])
        elif op == "search":
            payload["q"] = self._rng.choice(self._queries)
        budget = profile.budget_min + self._rng.random() * (
            profile.budget_max - profile.budget_min
        )
        priority = self._rng.choice(profile.priorities)
        return self._router.make_request(
            op, payload, priority=priority, budget=budget
        )

    def run(self) -> dict[str, Any]:
        """Drive the full profile through the router; return the report."""
        profile = self.profile
        outcomes: list[tuple[Any, dict[str, Any]]] = []
        submitted = 0
        while submitted < profile.requests:
            burst = self._rng.randint(profile.burst_min, profile.burst_max)
            burst = min(burst, profile.requests - submitted)
            for _ in range(burst):
                request = self._draw_request()
                submitted += 1
                immediate = self._router.submit(request)
                if immediate is not None:
                    outcomes.append((request, immediate))
            outcomes.extend(self._router.drain())
            # Burn rates are re-evaluated once per drained burst: bursts
            # are the closed-loop clock ticks alerts can fire on.
            if self._router.slo is not None:
                self._router.slo.evaluate()
            if self._on_burst is not None:
                self._on_burst()
        self.last_outcomes = list(outcomes)
        return self._report(outcomes)

    def _report(
        self, outcomes: list[tuple[Any, dict[str, Any]]]
    ) -> dict[str, Any]:
        total = len(outcomes)
        by_status: dict[str, int] = {}
        served_latencies: list[float] = []
        late = 0
        malformed = 0
        for request, envelope in outcomes:
            # Every response must be a well-formed v1 envelope.
            if validate_envelope(envelope):
                malformed += 1
                continue
            status = envelope["meta"]["status"]
            by_status[status] = by_status.get(status, 0) + 1
            if status in (STATUS_OK, STATUS_DEGRADED):
                served_latencies.append(envelope["meta"]["latency"])
                # An answer at or past the deadline is a contract breach.
                if envelope["meta"]["latency"] >= request.budget:
                    late += 1
        served = by_status.get(STATUS_OK, 0) + by_status.get(STATUS_DEGRADED, 0)
        metrics = self._router.obs.metrics
        report = {
            "requests": total,
            "responses_by_status": dict(sorted(by_status.items())),
            "availability": served / total if total else 0.0,
            "p50_latency": percentile(served_latencies, 0.50),
            "p99_latency": percentile(served_latencies, 0.99),
            "shed_rate": by_status.get("shed", 0) / total if total else 0.0,
            "degraded": by_status.get(STATUS_DEGRADED, 0),
            "expired": by_status.get("expired", 0),
            "errors": by_status.get("error", 0),
            "late_responses": late,
            "malformed_responses": malformed,
            "hedges": int(metrics.counter("serving.hedges").value),
            "hedge_wins": int(metrics.counter("serving.hedge_wins").value),
            "failovers": int(metrics.counter("serving.failovers").value),
            "breakers": self._router.breaker_snapshots(),
        }
        if self._router.slo is not None:
            report["slo"] = self._router.slo.status_snapshot()
        return report


@dataclass
class ServingScenario:
    """A fully-wired serving stack ready to drive: router + generator + plan."""

    router: ServingRouter
    generator: LoadGenerator
    plan: FaultPlan | None
    obs: Obs
    chaos_seed: int | None
    live_indexer: LiveIndexer | None = None
    recovery: RecoveryManager | None = None
    wal: WriteAheadLog | None = None

    #: Upper bound on post-run settle ticks; generous — a single
    #: death/rejoin pair settles in two or three.
    SETTLE_TICKS = 64

    def run(self) -> dict[str, Any]:
        report = self.generator.run()
        if self.recovery is not None:
            # Let recovery finish after the load stops: tick until the
            # cluster is healed (node rejoined, caught up, re-admitted,
            # recovery replicas retired) so the report describes a
            # settled cluster — the state the determinism gate compares.
            for _ in range(self.SETTLE_TICKS):
                if self.recovery.settled:
                    break
                self.obs.clock.advance(0.5)
                self.recovery.tick()
            report["recovery"] = self.recovery.summary()
        report["chaos_seed"] = self.chaos_seed
        report["placement"] = {
            str(shard): nodes for shard, nodes in self.router.index.placement().items()
        }
        if self.plan is not None:
            report["faults_injected"] = self.plan.faults_injected
            report["fault_summary"] = self.plan.summary()
            report["dead_nodes"] = sorted(self.plan.dead_nodes)
        else:
            report["faults_injected"] = 0
            report["fault_summary"] = {}
            report["dead_nodes"] = []
        return report


def _apply_batches(
    live: LiveIndexer,
    wal: WriteAheadLog | None,
    deltas: list[DocumentDelta],
    batches: int,
    slo: SLOMonitor | None,
) -> None:
    """Log and apply *deltas* in *batches* near-equal batches, in order.

    Kept apart from :func:`build_scenario` so PLAT004 checks this
    append/apply pair without flagging the scenario's offline bootstrap.
    """
    size = max(1, -(-len(deltas) // batches))  # ceil division
    for start in range(0, len(deltas), size):
        batch = deltas[start : start + size]
        # WAL ordering: the batch is durable before any index
        # mutation; apply_batch seals the record once absorbed.
        lsn = wal.append(batch) if wal is not None else 0
        stats = live.apply_batch(batch, lsn=lsn)
        if slo is not None:
            slo.record_freshness(stats["freshness_lag"])


#: Breaker cooldown of the scenario's router: half the router's default.
SCENARIO_BREAKER_COOLDOWN = 0.5


def build_scenario(
    *,
    seed: int = 2005,
    docs: int = 24,
    domain: str = "digital_camera",
    num_shards: int = 8,
    num_nodes: int = 4,
    replication: int = 2,
    chaos_seed: int | None = None,
    fault_fraction: float = 0.08,
    profile: LoadProfile | None = None,
    queue_limit: int = 24,
    obs: Obs | None = None,
    batches: int | None = None,
    slo: SLOMonitor | None = None,
    restarts: bool = False,
) -> ServingScenario:
    """Mine a synthetic corpus, shard it, and wire the front door.

    With ``batches=None`` the corpus is mined and indexed in one offline
    pass (the classic mode-B build).  With ``batches=N`` the same
    documents flow through the incremental path instead — N delta
    batches, each sealed into a segment, absorbed by the shards and
    background-compacted — and the determinism gate requires the two
    builds to serve byte-identical reports for the same seed.

    With ``chaos_seed`` set, the fault plan kills one node (chosen by the
    seed) and schedules ``fault_fraction`` × requests service faults
    across the surviving node endpoints — the bench's "kill one index
    node, ≥5% service fault rate" regime.

    With ``restarts=True`` on top of ``chaos_seed``, the dead node also
    *comes back*: :func:`~repro.platform.chaos.schedule_restarts` draws
    a seeded rejoin time, ingest batches go through a
    :class:`~repro.platform.wal.WriteAheadLog` before touching the
    index, and a :class:`~repro.platform.recovery.RecoveryManager`
    (ticked between bursts) re-replicates, catches the node up by
    anti-entropy, and re-admits it through breaker probes.
    """
    obs = obs if obs is not None else Obs.default()
    profile = profile or LoadProfile()

    # -- the analyze→index half of mode B ----------------------------------
    vocab = DOMAINS[domain]
    documents = ReviewGenerator(vocab, seed=seed).generate_dplus(docs)
    subjects = [Subject(p) for p in vocab.products] + [
        Subject(f) for f in vocab.features
    ]
    miner = SentimentMiner(subjects=subjects, obs=obs)

    plan: FaultPlan | None = None
    if chaos_seed is not None:
        plan = FaultPlan(chaos_seed)
        rng = random.Random(chaos_seed)
        doomed = rng.randrange(num_nodes)
        plan.kill_node(doomed, after_partitions=0)
        survivors = [n for n in range(num_nodes) if n != doomed]
        per_node = max(1, round(fault_fraction * profile.requests / len(survivors)))
        for node_id in survivors:
            kind = TIMEOUT if rng.random() < 0.5 else FAIL
            plan.fail_service(node_service(node_id), count=per_node, kind=kind)

    wal: WriteAheadLog | None = None
    if restarts and plan is not None:
        wal = WriteAheadLog(obs=obs)
        if slo is not None:
            slo.add_spec(replication_slo())
        # Writers must treat the doomed node as down from the start, so
        # its replicas genuinely miss segments and anti-entropy has real
        # work on rejoin.  The recovery manager re-installs the same
        # liveness view when it is constructed below.
        index_liveness = lambda node_id: not plan.node_down(  # noqa: E731
            node_id, obs.clock.now
        )

    store = DataStore()
    store.store_all(
        Entity(entity_id=d.doc_id, content=d.text) for d in documents
    )
    index = ReplicatedIndex(num_shards, num_nodes, replication=replication)
    if wal is not None:
        index.set_liveness(index_liveness)
    live: LiveIndexer | None = None
    if batches is None:
        result = miner.mine_corpus((d.doc_id, d.text) for d in documents)
        index.add_judgments(result.polar_judgments())
        index.add_entities(
            Entity(entity_id=d.doc_id, content=d.text) for d in documents
        )
    else:
        if batches < 1:
            raise ValueError("batches must be positive")
        live = LiveIndexer(
            index,
            DeltaIndexer(miner, obs=obs),
            obs=obs,
            wal=wal,
        )
        deltas = [
            DocumentDelta(
                kind=DELTA_ADD,
                entity_id=d.doc_id,
                entity=Entity(entity_id=d.doc_id, content=d.text),
            )
            for d in documents
        ]
        _apply_batches(live, wal, deltas, batches, slo)

    # No bus-level retry policy: the router does explicit replica failover,
    # and breaker-gated fast-fails must not consume a retry budget.
    bus = VinciBus(fault_plan=plan, obs=obs)
    router = ServingRouter(
        index,
        store,
        bus,
        obs=obs,
        fault_plan=plan,
        queue_limit=queue_limit,
        breaker_cooldown=SCENARIO_BREAKER_COOLDOWN,
        latency_seed=seed,
        slo=slo,
    )
    recovery: RecoveryManager | None = None
    if wal is not None:
        # The restart window is relative to *serving* start, not sim
        # epoch: the corpus build above burns an unpredictable amount of
        # simulated time (mining cost scales with the corpus), and the
        # rejoin must land mid-run to exercise catch-up under load.  The
        # offset is derived from the deterministic clock, so the whole
        # schedule is still a pure function of the seeds.
        lo, hi = DEFAULT_RESTART_WINDOW
        now = obs.clock.now
        schedule_restarts(plan, window=(now + lo, now + hi))
        # Imported here: the recovery module imports the serving shards,
        # whose package imports this module.
        from ..recovery import RecoveryManager

        recovery = RecoveryManager(
            index,
            plan,
            obs,
            router=router,
            slo=slo,
            wal=wal,
            live_indexer=live,
        )
    query_subjects = [s.canonical for s in subjects]
    queries = [
        vocab.features[0],
        f"{vocab.products[0]} AND {vocab.features[0]}",
        f'"{vocab.features[0]}"',
        "re:/[a-z]+/",
    ]
    generator = LoadGenerator(
        router,
        subjects=query_subjects,
        queries=queries,
        seed=chaos_seed if chaos_seed is not None else seed,
        profile=profile,
        on_burst=recovery.tick if recovery is not None else None,
    )
    return ServingScenario(
        router=router,
        generator=generator,
        plan=plan,
        obs=obs,
        chaos_seed=chaos_seed,
        live_indexer=live,
        recovery=recovery,
        wal=wal,
    )
