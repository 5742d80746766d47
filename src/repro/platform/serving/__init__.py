"""Resilient mode-B serving: sharded replicated indexes behind a
deadline-aware front door.

The offline half of mode B builds sentiment/search indexes; this package
is the *online* half hardened for sustained query traffic under faults:

* :mod:`.shards` — subject/entity-hash partitioning of the mode-B
  indexes with replication across simulated nodes;
* :mod:`.deadline` — request budgets over the simulated clock, with
  remainder propagation to downstream calls;
* :mod:`.breaker` — per-service closed/open/half-open circuit breakers;
* :mod:`.router` — admission control, load shedding, hedged reads,
  replica failover, and graceful degradation;
* :mod:`.loadgen` — the seeded closed-loop load generator the chaos
  bench drives.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .deadline import Deadline, DeadlineExceeded
from .loadgen import (
    LoadGenerator,
    LoadProfile,
    ServingScenario,
    build_scenario,
    percentile,
)
from ..services import OPS
from .router import (
    DEFAULT_BUDGET,
    STATUS_CODES,
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_SHED,
    LatencyModel,
    LatencyProfile,
    NodeIndexService,
    ServingRequest,
    ServingRouter,
    node_service,
)
from .shards import ReplicatedIndex, ShardReplica, shard_of

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "DEFAULT_BUDGET",
    "Deadline",
    "DeadlineExceeded",
    "HALF_OPEN",
    "LatencyModel",
    "LatencyProfile",
    "LoadGenerator",
    "LoadProfile",
    "NodeIndexService",
    "OPEN",
    "OPS",
    "ReplicatedIndex",
    "STATUS_CODES",
    "STATUS_DEGRADED",
    "STATUS_ERROR",
    "STATUS_EXPIRED",
    "STATUS_OK",
    "STATUS_SHED",
    "ServingRequest",
    "ServingRouter",
    "ServingScenario",
    "ShardReplica",
    "build_scenario",
    "node_service",
    "percentile",
    "shard_of",
]
