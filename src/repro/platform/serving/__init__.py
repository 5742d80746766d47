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
from .loadgen import LoadProfile, build_scenario
from .router import ServingRequest, ServingRouter, node_service
from .shards import ReplicatedIndex, shard_of

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "HALF_OPEN",
    "LoadProfile",
    "OPEN",
    "ReplicatedIndex",
    "ServingRequest",
    "ServingRouter",
    "build_scenario",
    "node_service",
    "shard_of",
]
