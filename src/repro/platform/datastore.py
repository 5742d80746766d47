"""The data store: a hash-partitioned entity map.

WebFountain stored entities on a shared-nothing cluster (512 RAID arrays
across 500+ nodes).  The paper's miners need only the store's contracts,
which this simulation keeps at laptop scale:

* entities are hash-partitioned across ``num_partitions`` partitions;
* each partition maps entity id to the entity's latest version, so
  ``store`` replaces, ``delete`` removes and ``get`` is one lookup;
* ``scan`` yields a snapshot of the live entities, partition-major and
  in id order within a partition.

The system's log-structured storage is the index's segment model
(:mod:`repro.platform.segments`), not this store.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Iterator

from .entity import Entity


def default_partitioner(entity_id: str, num_partitions: int) -> int:
    """Stable hash partitioning (md5, not Python's salted hash)."""
    digest = hashlib.md5(entity_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % num_partitions


class Partition:
    """One shard: entity id → latest entity."""

    def __init__(self, partition_id: int):
        self.partition_id = partition_id
        self._entities: dict[str, Entity] = {}
        #: Chaos hook (see repro.platform.faults): consulted on every
        #: write; may drop the write or substitute a corrupted entity.
        self.fault_plan = None

    def put(self, entity: Entity) -> None:
        if self.fault_plan is not None:
            intercepted = self.fault_plan.intercept_write(self.partition_id, entity)
            if intercepted is None:
                return
            entity = intercepted
        self._entities[entity.entity_id] = entity

    def delete(self, entity_id: str) -> None:
        self._entities.pop(entity_id, None)

    def get(self, entity_id: str) -> Entity | None:
        return self._entities.get(entity_id)

    def scan(self) -> Iterator[Entity]:
        """Live entities, id order, as of the call."""
        for _, entity in sorted(self._entities.items()):
            yield entity

    def __len__(self) -> int:
        return len(self._entities)


class DataStore:
    """The partitioned entity store."""

    def __init__(self, num_partitions: int = 8):
        if num_partitions < 1:
            raise ValueError("num_partitions must be positive")
        self._partitions = [Partition(i) for i in range(num_partitions)]

    def attach_fault_plan(self, fault_plan) -> None:
        """Route every partition write through *fault_plan* (chaos mode)."""
        for partition in self._partitions:
            partition.fault_plan = fault_plan

    # -- public API ------------------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    def partition_of(self, entity_id: str) -> Partition:
        return self._partitions[default_partitioner(entity_id, len(self._partitions))]

    def partition(self, index: int) -> Partition:
        return self._partitions[index]

    def store(self, entity: Entity) -> None:
        """Insert or replace an entity."""
        self.partition_of(entity.entity_id).put(entity)

    def store_all(self, entities: Iterable[Entity]) -> int:
        count = 0
        for entity in entities:
            self.store(entity)
            count += 1
        return count

    def get(self, entity_id: str) -> Entity | None:
        return self.partition_of(entity_id).get(entity_id)

    def delete(self, entity_id: str) -> None:
        self.partition_of(entity_id).delete(entity_id)

    def scan(self) -> Iterator[Entity]:
        """All live entities across partitions (partition-major order)."""
        for partition in self._partitions:
            yield from partition.scan()

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions)

    def __contains__(self, entity_id: str) -> bool:
        return self.get(entity_id) is not None

    def stats(self) -> dict[str, int]:
        return {"entities": len(self), "partitions": len(self._partitions)}

    # -- persistence -----------------------------------------------------------------

    def save(self, directory: str | Path) -> int:
        """Persist the store's entities to *directory*.

        Layout: ``manifest.json`` (store configuration) plus one
        ``partition-<i>.jsonl`` per partition, each line one entity
        record (annotations included) in scan order.  Partition files of
        an earlier save with more partitions are removed, so the
        directory holds exactly this store.  Returns the number of
        entities written.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": "repro-datastore-v1",
            "num_partitions": len(self._partitions),
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
        written = 0
        for partition in self._partitions:
            path = directory / f"partition-{partition.partition_id:04d}.jsonl"
            with path.open("w", encoding="utf-8") as stream:
                for entity in partition.scan():
                    stream.write(entity.to_json() + "\n")
                    written += 1
        for path in directory.glob("partition-*.jsonl"):
            index = path.stem.removeprefix("partition-")
            if index.isdigit() and int(index) >= len(self._partitions):
                path.unlink()
        return written

    @classmethod
    def load(cls, directory: str | Path) -> "DataStore":
        """Rebuild a store from :meth:`save` output.

        Reads the manifest's partitions only, so a stray partition file
        beyond them is ignored.
        """
        directory = Path(directory)
        manifest_path = directory / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(f"no datastore manifest under {directory}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != "repro-datastore-v1":
            raise ValueError(f"unknown datastore format {manifest.get('format')!r}")
        store = cls(num_partitions=int(manifest["num_partitions"]))
        for i in range(store.num_partitions):
            path = directory / f"partition-{i:04d}.jsonl"
            with path.open("r", encoding="utf-8") as stream:
                for line in stream:
                    line = line.strip()
                    if line:
                        store.store(Entity.from_json(line))
        return store
