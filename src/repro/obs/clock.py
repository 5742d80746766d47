"""Simulated clock for observability timestamps.

The platform has no wall clock: cluster nodes account *simulated work
units* (see :mod:`repro.platform.cluster`), and retries charge backoff in
the same currency.  Span timestamps therefore come from a
:class:`SimClock` that instrumented components advance by exactly the
cost they charge — a span's duration *is* its simulated cost, and traces
stay deterministic run-to-run.

A tiny epsilon tick on span start keeps sibling spans ordered even when
no cost lands between them.
"""

from __future__ import annotations

#: Advance applied by :meth:`SimClock.tick` — small enough never to
#: perturb cost-derived durations, large enough to order siblings.
TICK = 1e-6


class SimClock:
    """A monotonic simulated clock measured in work units."""

    __slots__ = ("_now",)

    def __init__(self):
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, units: float) -> float:
        """Move the clock forward by *units* (must be non-negative)."""
        if units < 0:
            raise ValueError("the simulated clock cannot run backwards")
        self._now += units
        return self._now

    def tick(self) -> float:
        """Minimal advance used to order otherwise-simultaneous events."""
        self._now += TICK
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"
