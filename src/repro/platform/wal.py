"""Simulated write-ahead log for the ingest path.

WebFountain's ingestors accepted documents continuously; on real
hardware a crash between "accepted" and "indexed" must not lose data.
This module supplies the durability half of that contract for the
simulation: :class:`WriteAheadLog` records every accepted
:class:`~repro.platform.ingestion.DocumentDelta` batch *before* any
store or index mutation happens.  The serving scenario
(:func:`~repro.platform.serving.build_scenario` with restarts) appends
each batch before handing it to
:meth:`~repro.platform.segments.LiveIndexer.apply_batch`, which seals
the record once every shard has absorbed the batch's segment; after a
simulated crash :meth:`WriteAheadLog.replay` yields exactly the batches
whose segments were never sealed.

Exactly-once comes from two properties downstream of the log:

* mining is deterministic, so re-running
  :meth:`~repro.platform.segments.DeltaIndexer.index_batch` on a
  replayed batch builds a byte-identical segment; and
* every delta id in a batch is tombstoned by its segment, so absorbing
  a replayed segment *again* masks any earlier copy — replay after a
  crash that landed on either side of the absorb converges to the same
  observable index state.

The log is purely simulated: records live in memory and "durability"
means surviving the loss of the *indexer* object, not the process.
Costs are charged to the shared :class:`~repro.obs.clock.SimClock` so
benchmarks see the price of durability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from ..obs import Obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .ingestion import DocumentDelta

#: Simulated cost of appending one delta to the log (fsync amortised).
WAL_APPEND_COST_PER_DELTA = 0.001


@dataclass(frozen=True)
class WalRecord:
    """One appended batch: a log sequence number and its deltas."""

    lsn: int
    deltas: tuple["DocumentDelta", ...]


class WriteAheadLog:
    """An append-only, seal-acknowledged batch log.

    ``append`` assigns the next LSN; ``seal`` acknowledges that the
    batch's segment is durable in the replicated index, advancing the
    checkpoint over any contiguous sealed prefix.  ``replay`` yields
    the unsealed records in LSN order — the exact work a restarted
    indexer must redo.
    """

    def __init__(self, obs: Obs | None = None):
        self._obs = obs if obs is not None else Obs.default()
        self._records: list[WalRecord] = []
        self._sealed: set[int] = set()
        self._next_lsn = 1
        self._checkpoint = 0

    def append(self, deltas: Sequence["DocumentDelta"]) -> int:
        """Durably record a batch; returns its log sequence number."""
        if not deltas:
            raise ValueError("cannot append an empty batch to the WAL")
        lsn = self._next_lsn
        self._next_lsn += 1
        self._records.append(WalRecord(lsn=lsn, deltas=tuple(deltas)))
        self._obs.clock.advance(WAL_APPEND_COST_PER_DELTA * len(deltas))
        metrics = self._obs.metrics
        metrics.counter("wal.appends").inc()
        metrics.counter("wal.deltas_logged").inc(len(deltas))
        metrics.gauge("wal.depth").set(self.depth)
        return lsn

    def seal(self, lsn: int) -> None:
        """Acknowledge that the segment for *lsn* is durable.

        Sealing is idempotent; unknown LSNs are rejected so a bug in
        the replay path cannot silently acknowledge work never logged.
        """
        if not 1 <= lsn < self._next_lsn:
            raise ValueError(f"unknown WAL lsn {lsn}")
        self._sealed.add(lsn)
        while self._checkpoint + 1 in self._sealed:
            self._checkpoint += 1
        self._obs.metrics.gauge("wal.depth").set(self.depth)
        self._obs.metrics.gauge("wal.checkpoint").set(self._checkpoint)

    def replay(self) -> Iterator[WalRecord]:
        """Unsealed records in LSN order — the redo work after a crash."""
        for record in self._records:
            if record.lsn not in self._sealed:
                yield record

    @property
    def depth(self) -> int:
        """Accepted-but-unsealed batches (0 = fully checkpointed)."""
        return len(self._records) - len(self._sealed)

    @property
    def last_lsn(self) -> int:
        """Highest LSN handed out so far (0 = empty log)."""
        return self._next_lsn - 1

    @property
    def checkpoint_lsn(self) -> int:
        """Largest LSN below which every record is sealed."""
        return self._checkpoint

    def snapshot(self) -> dict:
        """JSON-ready view for the health surface."""
        return {
            "depth": self.depth,
            "last_lsn": self.last_lsn,
            "checkpoint_lsn": self._checkpoint,
            "unsealed": [r.lsn for r in self.replay()],
        }
