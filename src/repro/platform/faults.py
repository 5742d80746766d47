"""Deterministic fault injection for the simulated platform.

The paper's WebFountain ran on a 500-node shared-nothing cluster where
node loss and service failure were routine operational facts, not
exceptional ones.  This module supplies the *fault side* of that story
for the simulation: a :class:`FaultPlan` is a seeded, fully
deterministic schedule of failures that the bus, store, and cluster
consult at well-defined points.  There is no wall-clock randomness —
the same seed always produces the same faults in the same order, which
is what makes the chaos tests reproducible assertions instead of flaky
roulette.  :func:`schedule_restarts` adds seeded rejoin times to a
plan's node deaths, for the crash-restart serving runs.

Fault kinds
-----------
``service``   — the next K requests to a named Vinci service fail
                (``error``) or time out (``timeout``) before the
                handler runs;
``node``      — a cluster node dies after completing N partitions of
                the current run (N=0: dead on arrival); a death may
                carry a scheduled *restart*: from that simulated time
                on the node is back up and must be caught up by the
                recovery machinery (:mod:`repro.platform.recovery`);
``write``     — the next K writes to a store partition are dropped
                on the floor, or corrupted (content garbled, existing
                annotations discarded, ``corrupted`` metadata set).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .entity import Entity

#: Service fault kinds.
FAIL = "error"
TIMEOUT = "timeout"

#: Write fault kinds.
DROP = "drop"
CORRUPT = "corrupt"

#: Deterministic corruption modes, cycled per corrupted write.  They are
#: chosen to exercise downstream robustness: empty documents, documents
#: with no alphabetic tokens, reversed text, and mid-token truncation.
_CORRUPTION_MODES = ("empty", "punctuation", "reversed", "truncated")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the plan's ledger."""

    kind: str  # "service" | "node" | "write"
    target: str  # service name, node id, or partition id (stringified)
    detail: str  # error/timeout, drop/corrupt+mode, partitions-completed


class FaultPlan:
    """A seeded, deterministic schedule of platform faults.

    Faults are queued explicitly (``fail_service``, ``kill_node``,
    ``drop_write``, ``corrupt_write``) or generated from the seed by
    :meth:`scheduled`.  Consumers *consume* service and write faults
    FIFO; node deaths are static per-run schedule entries that every
    run re-applies (the simulated operator re-provisions nodes between
    runs).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._service_faults: dict[str, deque[str]] = {}
        self._node_deaths: dict[int, int] = {}
        self._node_restarts: dict[int, float] = {}
        self._write_faults: dict[int, deque[str]] = {}
        self._ledger: list[FaultEvent] = []
        self._corruption_cursor = 0

    # -- scheduling -------------------------------------------------------------

    def fail_service(self, name: str, count: int = 1, kind: str = FAIL) -> "FaultPlan":
        """Make the next *count* requests to service *name* fail."""
        if kind not in (FAIL, TIMEOUT):
            raise ValueError(f"unknown service fault kind {kind!r}")
        if count < 1:
            raise ValueError("count must be positive")
        self._service_faults.setdefault(name, deque()).extend([kind] * count)
        return self

    def kill_node(self, node_id: int, after_partitions: int = 0) -> "FaultPlan":
        """Mark node *node_id* dead after it completes *after_partitions*.

        ``after_partitions=0`` means the node is dead before doing any
        work; a positive value models a mid-run crash.
        """
        if after_partitions < 0:
            raise ValueError("after_partitions must be non-negative")
        self._node_deaths[node_id] = after_partitions
        return self

    def restart_node(self, node_id: int, after_cost: float) -> "FaultPlan":
        """Schedule a killed node to rejoin at simulated time *after_cost*.

        The node is considered down on the half-open interval
        ``[0, after_cost)`` of the simulated clock and up from
        ``after_cost`` onward.  Restarting brings back an *empty-handed*
        node: its replicas are stale until anti-entropy catch-up ships
        the segments it missed, which is the recovery manager's job —
        the plan only decides *when* the machine answers again.
        """
        if after_cost < 0:
            raise ValueError("after_cost must be non-negative")
        if node_id not in self._node_deaths:
            raise ValueError(
                f"node {node_id} has no scheduled death; kill_node() it first"
            )
        self._node_restarts[node_id] = float(after_cost)
        return self

    def drop_write(self, partition_id: int, count: int = 1) -> "FaultPlan":
        """Silently discard the next *count* writes to a partition."""
        self._queue_write_fault(partition_id, DROP, count)
        return self

    def corrupt_write(self, partition_id: int, count: int = 1) -> "FaultPlan":
        """Garble the next *count* writes to a partition."""
        self._queue_write_fault(partition_id, CORRUPT, count)
        return self

    def _queue_write_fault(self, partition_id: int, kind: str, count: int) -> None:
        if count < 1:
            raise ValueError("count must be positive")
        self._write_faults.setdefault(partition_id, deque()).extend([kind] * count)

    @classmethod
    def scheduled(
        cls,
        seed: int,
        *,
        services: Iterable[str] = (),
        num_nodes: int = 0,
        num_partitions: int = 0,
        service_failure_rate: float = 0.0,
        node_death_rate: float = 0.0,
        write_drop_rate: float = 0.0,
        write_corrupt_rate: float = 0.0,
        max_failures_per_service: int = 3,
    ) -> "FaultPlan":
        """Build a random-but-deterministic plan from *seed*.

        Every probability draw comes from ``random.Random(seed)``, so a
        given seed always yields the identical schedule — the chaos
        harness enumerates seeds, not raw randomness.
        """
        plan = cls(seed)
        rng = plan._rng
        for name in services:
            if rng.random() < service_failure_rate:
                count = rng.randint(1, max_failures_per_service)
                kind = TIMEOUT if rng.random() < 0.5 else FAIL
                plan.fail_service(name, count=count, kind=kind)
        for node_id in range(num_nodes):
            if rng.random() < node_death_rate:
                plan.kill_node(node_id, after_partitions=rng.randint(0, 2))
        for partition_id in range(num_partitions):
            if rng.random() < write_drop_rate:
                plan.drop_write(partition_id, count=rng.randint(1, 2))
            if rng.random() < write_corrupt_rate:
                plan.corrupt_write(partition_id, count=rng.randint(1, 2))
        return plan

    # -- consumption (called by bus / cluster / store) -----------------------------

    def consume_service_fault(self, name: str) -> str | None:
        """Pop the next scheduled fault for a service, if any."""
        queue = self._service_faults.get(name)
        if not queue:
            return None
        kind = queue.popleft()
        self._ledger.append(FaultEvent("service", name, kind))
        return kind

    def node_death(self, node_id: int) -> int | None:
        """Partitions the node completes before dying; None = healthy."""
        return self._node_deaths.get(node_id)

    def node_restart(self, node_id: int) -> float | None:
        """Simulated time at which a killed node rejoins; None = never."""
        return self._node_restarts.get(node_id)

    def node_down(self, node_id: int, now: float) -> bool:
        """Is the node down *at* simulated time *now*?

        A node with a scheduled death is down until its scheduled
        restart time (forever, when no restart is scheduled).  Nodes
        with no scheduled death are always up.
        """
        if node_id not in self._node_deaths:
            return False
        restart = self._node_restarts.get(node_id)
        return restart is None or now < restart

    def intercept_write(self, partition_id: int, entity: "Entity") -> "Entity | None":
        """Apply the next write fault, if one is scheduled.

        Returns the entity to actually write: unchanged when no fault
        is pending, a corrupted replacement for ``corrupt``, or ``None``
        for ``drop`` (the write vanishes).
        """
        queue = self._write_faults.get(partition_id)
        if not queue:
            return entity
        kind = queue.popleft()
        if kind == DROP:
            self._ledger.append(FaultEvent("write", str(partition_id), DROP))
            return None
        corrupted = self.corrupt_entity(entity)
        self._ledger.append(
            FaultEvent("write", str(partition_id), f"{CORRUPT}:{corrupted.metadata['corruption']}")
        )
        return corrupted

    def corrupt_entity(self, entity: "Entity") -> "Entity":
        """A deterministically garbled copy of *entity*.

        Annotations are discarded (their spans no longer describe the
        content) and ``corrupted``/``corruption`` metadata is set so
        downstream miners can tell the document is damaged.
        """
        from .entity import Entity

        mode = _CORRUPTION_MODES[self._corruption_cursor % len(_CORRUPTION_MODES)]
        self._corruption_cursor += 1
        content = entity.content
        if mode == "empty":
            content = ""
        elif mode == "punctuation":
            content = "?! ... !! ??"
        elif mode == "reversed":
            content = content[::-1]
        else:  # truncated
            content = content[: max(1, len(content) // 3)]
        return Entity(
            entity_id=entity.entity_id,
            content=content,
            source=entity.source,
            metadata={**entity.metadata, "corrupted": True, "corruption": mode},
        )

    # -- introspection ----------------------------------------------------------------

    @property
    def dead_nodes(self) -> dict[int, int]:
        """Scheduled node deaths: node id -> partitions completed first."""
        return dict(self._node_deaths)

    @property
    def restarts(self) -> dict[int, float]:
        """Scheduled node restarts: node id -> rejoin simulated time."""
        return dict(self._node_restarts)

    def pending_service_faults(self, name: str) -> int:
        return len(self._service_faults.get(name, ()))

    def pending_write_faults(self, partition_id: int) -> int:
        return len(self._write_faults.get(partition_id, ()))

    def ledger(self) -> list[FaultEvent]:
        """Every fault injected so far, in injection order."""
        return list(self._ledger)

    @property
    def faults_injected(self) -> int:
        return len(self._ledger)

    def summary(self) -> dict[str, int]:
        """Injected-fault counts by kind (for reports and tests)."""
        out: dict[str, int] = {}
        for event in self._ledger:
            key = event.kind if event.kind != "write" else event.detail.split(":")[0]
            out[key] = out.get(key, 0) + 1
        out["scheduled_node_deaths"] = len(self._node_deaths)
        if self._node_restarts:
            out["scheduled_node_restarts"] = len(self._node_restarts)
        return out


#: Default simulated-time window in which a killed node rejoins.
DEFAULT_RESTART_WINDOW = (4.0, 12.0)

#: Seed salt so restart draws are independent of however many draws the
#: plan's own RNG made while scheduling deaths and service faults.
_RESTART_SALT = 0x5BD1E995


def schedule_restarts(
    plan: FaultPlan,
    *,
    window: tuple[float, float] = DEFAULT_RESTART_WINDOW,
) -> dict[int, float]:
    """Attach seeded rejoin times to a plan's scheduled node deaths.

    Every dead node gets a restart drawn uniformly
    from *window* using ``random.Random(plan.seed ^ salt)`` — a fresh
    generator, so the rejoin times depend only on the seed and the
    sorted node order, never on how many draws built the rest of the
    plan.  Returns ``{node_id: rejoin_time}`` for reports and tests.
    """
    lo, hi = window
    if not 0.0 <= lo <= hi:
        raise ValueError(f"restart window must satisfy 0 <= lo <= hi, got {window}")
    rng = random.Random(plan.seed ^ _RESTART_SALT)
    times: dict[int, float] = {}
    for node_id in sorted(plan.dead_nodes):
        at = lo + (hi - lo) * rng.random()
        plan.restart_node(node_id, after_cost=at)
        times[node_id] = at
    return times
