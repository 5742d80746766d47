"""The data store: a partitioned, segmented entity store.

WebFountain stored entities on a shared-nothing cluster (512 RAID arrays
across 500+ nodes).  This simulation keeps the same *shape* at laptop
scale:

* entities are hash-partitioned across ``num_partitions`` partitions;
* each partition is a log of immutable **segments** plus an active
  in-memory memtable; a store/modify writes to the memtable, ``flush()``
  seals it into a segment;
* deletes write tombstones; ``compact()`` merges a partition's segments,
  dropping shadowed versions and tombstones;
* reads consult the memtable first, then segments newest-first.

The paper's miners only need ``store`` / ``get`` / ``scan``; the segment
machinery exists so the platform benchmarks exercise a realistic
storage-engine code path (and so compaction has something to do).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .entity import Entity

_TOMBSTONE = None


def default_partitioner(entity_id: str, num_partitions: int) -> int:
    """Stable hash partitioning (md5, not Python's salted hash)."""
    digest = hashlib.md5(entity_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % num_partitions


@dataclass
class Segment:
    """An immutable, sealed batch of entity versions (or tombstones)."""

    segment_id: int
    records: dict[str, Entity | None] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)


class Partition:
    """One shard: memtable + segment log."""

    def __init__(self, partition_id: int, memtable_limit: int = 256):
        if memtable_limit < 1:
            raise ValueError("memtable_limit must be positive")
        self.partition_id = partition_id
        self._memtable: dict[str, Entity | None] = {}
        self._segments: list[Segment] = []
        self._memtable_limit = memtable_limit
        self._next_segment_id = 0
        #: Chaos hook (see repro.platform.faults): consulted on every
        #: write; may drop the write or substitute a corrupted entity.
        self.fault_plan = None

    # -- writes -------------------------------------------------------------------

    def put(self, entity: Entity) -> None:
        if self.fault_plan is not None:
            intercepted = self.fault_plan.intercept_write(self.partition_id, entity)
            if intercepted is None:
                return
            entity = intercepted
        self._memtable[entity.entity_id] = entity
        if len(self._memtable) >= self._memtable_limit:
            self.flush()

    def delete(self, entity_id: str) -> None:
        self._memtable[entity_id] = _TOMBSTONE
        if len(self._memtable) >= self._memtable_limit:
            self.flush()

    def flush(self) -> None:
        """Seal the memtable into a new segment."""
        if not self._memtable:
            return
        self._segments.append(Segment(self._next_segment_id, dict(self._memtable)))
        self._next_segment_id += 1
        self._memtable = {}

    def compact(self) -> int:
        """Merge all segments; returns the number of records dropped."""
        merged: dict[str, Entity | None] = {}
        before = 0
        for segment in self._segments:  # oldest-first; later wins
            before += len(segment)
            merged.update(segment.records)
        live = {k: v for k, v in merged.items() if v is not _TOMBSTONE}
        self._segments = (
            [Segment(self._next_segment_id, live)] if live else []
        )
        if live:
            self._next_segment_id += 1
        return before - len(live)

    # -- reads --------------------------------------------------------------------

    def get(self, entity_id: str) -> Entity | None:
        if entity_id in self._memtable:
            return self._memtable[entity_id]
        for segment in reversed(self._segments):
            if entity_id in segment.records:
                return segment.records[entity_id]
        return None

    def scan(self) -> Iterator[Entity]:
        """Live entities, latest version of each, id order."""
        seen: dict[str, Entity | None] = {}
        for segment in self._segments:
            seen.update(segment.records)
        seen.update(self._memtable)
        for entity_id in sorted(seen):
            entity = seen[entity_id]
            if entity is not _TOMBSTONE:
                yield entity

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())


class DataStore:
    """The partitioned entity store."""

    def __init__(
        self,
        num_partitions: int = 8,
        memtable_limit: int = 256,
    ):
        if num_partitions < 1:
            raise ValueError("num_partitions must be positive")
        self._partitions = [Partition(i, memtable_limit) for i in range(num_partitions)]

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

    def modify(self, entity_id: str, mutator: Callable[[Entity], None]) -> Entity:
        """Read-modify-write helper; raises KeyError when absent."""
        entity = self.get(entity_id)
        if entity is None:
            raise KeyError(entity_id)
        mutator(entity)
        self.store(entity)
        return entity

    def scan(self) -> Iterator[Entity]:
        """All live entities across partitions (partition-major order)."""
        for partition in self._partitions:
            yield from partition.scan()

    def flush(self) -> None:
        for partition in self._partitions:
            partition.flush()

    def compact(self) -> int:
        return sum(partition.compact() for partition in self._partitions)

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions)

    def __contains__(self, entity_id: str) -> bool:
        return self.get(entity_id) is not None

    def stats(self) -> dict[str, int]:
        return {
            "entities": len(self),
            "partitions": len(self._partitions),
            "segments": sum(p.segment_count for p in self._partitions),
        }

    # -- persistence -----------------------------------------------------------------

    def save(self, directory: str | Path) -> int:
        """Persist the store's live entities to *directory*.

        Layout: ``manifest.json`` (store configuration) plus one
        ``partition-<i>.jsonl`` per partition, each line one entity
        record (annotations included).  The on-disk view is compacted:
        shadowed versions and tombstones are not written.  Returns the
        number of entities written.
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
        return written

    @classmethod
    def load(cls, directory: str | Path) -> "DataStore":
        """Rebuild a store from :meth:`save` output."""
        directory = Path(directory)
        manifest_path = directory / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(f"no datastore manifest under {directory}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != "repro-datastore-v1":
            raise ValueError(f"unknown datastore format {manifest.get('format')!r}")
        store = cls(num_partitions=int(manifest["num_partitions"]))
        for path in sorted(directory.glob("partition-*.jsonl")):
            with path.open("r", encoding="utf-8") as stream:
                for line in stream:
                    line = line.strip()
                    if line:
                        store.store(Entity.from_json(line))
        store.flush()
        return store
