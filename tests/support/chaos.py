"""Deterministic chaos-test harness for the simulated cluster.

Chaos testing here is *enumerated*, not random: a seed expands into a
:class:`~repro.platform.faults.FaultPlan`, the same pipeline or corpus
miner runs under that plan, and a fixed set of invariants is checked
against the run report.  Because every fault comes from the seed, a
violated invariant is a reproducible test failure — rerun with the same
seed and watch it happen again.

The invariants (graceful degradation must never silently corrupt
aggregate counts):

* **no lost entities under replication** — with R ≥ 2 and at most one
  dead node, ``coverage == 1.0`` and ``degraded`` is False;
* **coverage is honest** — ``coverage`` equals processed entities over
  stored entities, lies in [0, 1], and ``degraded`` is set exactly when
  it falls short of 1.0;
* **report totals are consistent** — ``total_work`` covers the summed
  per-node work, ``makespan`` at least the busiest node, and per-node
  work is non-negative;
* **failover accounting** — every failover partition appears in some
  node's charged work, and lost partitions only occur when every owner
  died.

Use from pytest::

    from tests.support import chaos

    outcome = chaos.run_corpus_chaos(make_store, miner_factory, seed=7,
                                     num_nodes=4, replication=2)
    assert outcome.violations == []
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

from repro.core.mining import CorpusMiner, MinerPipeline
from repro.obs import Obs
from repro.platform.cluster import Cluster, ClusterRunReport
from repro.platform.datastore import DataStore
from repro.platform.faults import FaultPlan
from repro.platform.retry import RetryPolicy

T = TypeVar("T")

_EPS = 1e-9

#: Default retry policy for chaos runs: deterministic (no jitter) so
#: work accounting is reproducible across identical seeds.
DEFAULT_CHAOS_RETRY = RetryPolicy(max_attempts=4, base_backoff=0.1, multiplier=2.0)


@dataclass
class ChaosOutcome:
    """One chaos run: what happened and which invariants broke."""

    seed: int
    report: ClusterRunReport
    result: object = None
    fault_summary: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_invariants(
    report: ClusterRunReport,
    *,
    replication: int,
    total_entities: int,
) -> list[str]:
    """All invariant violations in a run report (empty list = healthy)."""
    violations: list[str] = []
    if not 0.0 <= report.coverage <= 1.0 + _EPS:
        violations.append(f"coverage {report.coverage} outside [0, 1]")
    if report.degraded != (report.coverage < 1.0 - _EPS):
        violations.append(
            f"degraded flag {report.degraded} inconsistent with coverage {report.coverage}"
        )
    if replication >= 2 and len(report.dead_nodes) <= replication - 1:
        if report.lost_partitions:
            violations.append(
                f"lost partitions {report.lost_partitions} despite replication {replication} "
                f"and only {len(report.dead_nodes)} dead node(s)"
            )
        if report.coverage < 1.0 - _EPS:
            violations.append(
                f"coverage {report.coverage} < 1.0 despite replication {replication}"
            )
    if total_entities:
        expected = report.pipeline.entities_processed / total_entities
        if abs(report.coverage - expected) > 1e-6:
            violations.append(
                f"coverage {report.coverage} disagrees with processed fraction {expected}"
            )
    if any(work < -_EPS for work in report.per_node_work):
        violations.append("negative per-node work")
    if report.total_work + _EPS < sum(report.per_node_work):
        violations.append("total_work smaller than summed node work")
    if report.makespan + _EPS < max(report.per_node_work, default=0.0):
        violations.append("makespan smaller than busiest node")
    if report.lost_partitions and not report.dead_nodes:
        violations.append("partitions lost without any dead node")
    if report.failovers and not report.dead_nodes:
        violations.append("failovers reported without any dead node")
    return violations


#: Per-seed fault rates of a chaos run's scheduled plan.
NODE_DEATH_RATE = 0.25
SERVICE_FAILURE_RATE = 0.3


def _chaos_cluster(
    store: DataStore, seed: int, num_nodes: int, replication: int, obs: Obs | None
) -> tuple[FaultPlan, Cluster]:
    """The seed's scheduled fault plan and a cluster running under it."""
    plan = FaultPlan.scheduled(
        seed,
        services=("cluster.coordinator",),
        num_nodes=num_nodes,
        num_partitions=store.num_partitions,
        service_failure_rate=SERVICE_FAILURE_RATE,
        node_death_rate=NODE_DEATH_RATE,
    )
    cluster = Cluster(
        store,
        num_nodes=num_nodes,
        replication=replication,
        fault_plan=plan,
        retry_policy=DEFAULT_CHAOS_RETRY,
        obs=obs,
    )
    return plan, cluster


def run_pipeline_chaos(
    store_factory: Callable[[], DataStore],
    pipeline_factory: Callable[[], MinerPipeline],
    *,
    seed: int,
    num_nodes: int,
    replication: int = 2,
    obs: Obs | None = None,
) -> ChaosOutcome:
    """One seeded chaos run of an entity-miner pipeline."""
    store = store_factory()
    plan, cluster = _chaos_cluster(store, seed, num_nodes, replication, obs)
    total = len(store)
    report = cluster.run_pipeline(pipeline_factory())
    return ChaosOutcome(
        seed=seed,
        report=report,
        fault_summary=plan.summary(),
        violations=check_invariants(report, replication=replication, total_entities=total),
    )


def run_corpus_chaos(
    store_factory: Callable[[], DataStore],
    miner_factory: Callable[[], CorpusMiner[T]],
    *,
    seed: int,
    num_nodes: int,
    replication: int = 2,
    obs: Obs | None = None,
) -> ChaosOutcome:
    """One seeded chaos run of a corpus miner (map per partition, reduce)."""
    store = store_factory()
    plan, cluster = _chaos_cluster(store, seed, num_nodes, replication, obs)
    total = len(store)
    result, report = cluster.run_corpus_miner(miner_factory())
    return ChaosOutcome(
        seed=seed,
        report=report,
        result=result,
        fault_summary=plan.summary(),
        violations=check_invariants(report, replication=replication, total_entities=total),
    )


def sweep(
    runner: Callable[[int], ChaosOutcome],
    seeds: Iterator[int] | range,
) -> list[ChaosOutcome]:
    """Run a chaos runner across seeds; returns every outcome.

    Convenience for ``assert all(o.ok for o in chaos.sweep(...))`` —
    failures carry their seed so the exact run can be replayed.
    """
    return [runner(seed) for seed in seeds]
