"""The miner framework: entity-level and corpus-level miners.

"There are two types of miners in WebFountain: entity-level and
corpus-level (cross-entity) miners.  Entity-level miners process each
entity without information from neighboring entities, and typically
augment processed entities with the results.  In contrast, corpus-level
miners require all or part of the entire data in store."

A :class:`MinerPipeline` runs an ordered chain of entity miners over the
data store, validating layer dependencies (a miner declaring
``requires = ("spot",)`` cannot run before something ``provides`` it).
Corpus miners implement map/reduce-style hooks so the simulated cluster
can execute them per-partition and merge.

The framework is deliberately store-agnostic: it talks to any object
satisfying the :class:`EntityStore` protocol, so it can live below
:mod:`repro.platform` in the import DAG (``core/miners → platform``)
while :class:`repro.platform.datastore.DataStore` remains the production
implementation.  The platform, its cluster and the apps import these
names from here.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Generic, Iterable, Iterator, Protocol, TypeVar

from .entity import Entity

T = TypeVar("T")


class EntityStore(Protocol):
    """The store surface the miner framework needs.

    :class:`repro.platform.datastore.DataStore` satisfies this protocol;
    tests may substitute any in-memory object with the same methods.
    """

    def scan(self) -> Iterator[Entity]: ...

    def store(self, entity: Entity) -> None: ...


class EntityMiner(abc.ABC):
    """A miner that annotates one entity at a time."""

    #: Unique miner name (used in pipeline diagnostics).
    name: str = "entity-miner"
    #: Annotation layers this miner reads.
    requires: tuple[str, ...] = ()
    #: Annotation layers this miner writes.
    provides: tuple[str, ...] = ()

    @abc.abstractmethod
    def process(self, entity: Entity) -> None:
        """Annotate *entity* in place."""


class CorpusMiner(abc.ABC, Generic[T]):
    """A miner over the whole corpus, expressed as map + reduce."""

    name: str = "corpus-miner"
    requires: tuple[str, ...] = ()

    @abc.abstractmethod
    def map_partition(self, entities: Iterable[Entity]) -> T:
        """Process one partition's entities into a partial result."""

    @abc.abstractmethod
    def reduce(self, partials: list[T]) -> T:
        """Merge partial results into the final one."""


class PipelineError(RuntimeError):
    """Raised when miner dependencies cannot be satisfied."""


@dataclass
class PipelineReport:
    """What one pipeline run did."""

    entities_processed: int = 0
    miner_runs: dict[str, int] = field(default_factory=dict)
    errors: list[tuple[str, str, str]] = field(default_factory=list)  # (miner, entity, error)

    def merge(self, other: "PipelineReport") -> None:
        self.entities_processed += other.entities_processed
        for name, count in other.miner_runs.items():
            self.miner_runs[name] = self.miner_runs.get(name, 0) + count
        self.errors.extend(other.errors)


class MinerPipeline:
    """An ordered chain of entity miners with dependency validation."""

    def __init__(self, miners: list[EntityMiner], strict: bool = True):
        self._miners = list(miners)
        self._strict = strict
        self._validate()

    @property
    def miners(self) -> list[EntityMiner]:
        return list(self._miners)

    def _validate(self) -> None:
        available: set[str] = set()
        for miner in self._miners:
            missing = [layer for layer in miner.requires if layer not in available]
            if missing:
                raise PipelineError(
                    f"miner {miner.name!r} requires layers {missing} not provided upstream"
                )
            available.update(miner.provides)

    # -- execution -------------------------------------------------------------------------

    def process_entity(self, entity: Entity, report: PipelineReport | None = None) -> Entity:
        """Run every miner on one entity, in order."""
        self.process_batch([entity], report)
        return entity

    def process_batch(
        self, entities: list[Entity], report: PipelineReport | None = None
    ) -> PipelineReport:
        """Run the pipeline over an entity slice, one miner at a time.

        The loop is *miner-major*: each stage sweeps the full slice
        before the next stage starts, so per-miner tables (spotting
        automata, parse memos, lexicon probe caches) stay hot across the
        batch.  Per-entity semantics do not depend on the slicing — the
        same dependency checks, the same error isolation, the same end
        state — which the batch-equivalence tests pin down, including
        under chaos failover.
        """
        report = report if report is not None else PipelineReport()
        produced: list[set[str]] = [set() for _ in entities]
        for miner in self._miners:
            for index, entity in enumerate(entities):
                missing = [
                    layer
                    for layer in miner.requires
                    if layer not in produced[index] and not entity.has_layer(layer)
                ]
                if missing:
                    if self._strict:
                        raise PipelineError(
                            f"entity {entity.entity_id!r} missing layers {missing} "
                            f"for {miner.name!r}"
                        )
                    continue
                try:
                    miner.process(entity)
                except Exception as exc:  # noqa: BLE001 — isolate miner crashes
                    report.errors.append((miner.name, entity.entity_id, str(exc)))
                    if self._strict:
                        raise
                    continue
                produced[index].update(miner.provides)
                report.miner_runs[miner.name] = report.miner_runs.get(miner.name, 0) + 1
        report.entities_processed += len(entities)
        return report

    def run(self, store: EntityStore) -> PipelineReport:
        """Run over every entity in the store, writing each back as it finishes."""
        report = PipelineReport()
        for entity in list(store.scan()):
            self.process_batch([entity], report)
            store.store(entity)
        return report


__all__ = [
    "CorpusMiner",
    "EntityMiner",
    "EntityStore",
    "MinerPipeline",
    "PipelineError",
    "PipelineReport",
]
