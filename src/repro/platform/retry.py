"""Retry policy for Vinci requests, in simulated cost units.

WebFountain services were expected to fail transiently; callers retried
with backoff rather than aborting a corpus run.  The simulation has no
wall clock, so backoff is charged in the same *simulated work units*
the cluster already uses for makespan accounting: a retried request
makes the run "take longer" in exactly the way Figure-1-style reports
can show, without any ``sleep``.

Jitter is drawn from a seeded RNG (the fault plan's seed by default) so
retried schedules stay deterministic run-to-run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with optional seeded jitter.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    request plus at most two retries.  ``backoff(attempt)`` is the cost
    charged *before* retry number ``attempt`` (1-based), growing by
    ``multiplier`` each time.  ``jitter`` widens each backoff by a
    uniform factor in ``[1-jitter, 1+jitter]``.
    """

    max_attempts: int = 3
    base_backoff: float = 0.1
    multiplier: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff < 0:
            raise ValueError("base_backoff must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")

    def backoff(self, attempt: int, rng: random.Random | None = None) -> float:
        """Simulated cost charged before retry *attempt* (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        cost = self.base_backoff * self.multiplier ** (attempt - 1)
        if self.jitter and rng is not None:
            cost *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return cost

    def allows_retry(self, attempt: int) -> bool:
        """May another attempt follow attempt number *attempt*?"""
        return attempt < self.max_attempts


class RetryStats:
    """Counters a bus accumulates while applying a retry policy.

    Since the observability layer landed this is a *view* over a
    :class:`~repro.obs.metrics.MetricsRegistry` — the numbers live as
    ``vinci.retries`` / ``vinci.retry_*`` series in the registry the bus
    shares with the rest of the run, and this class keeps the historical
    attribute API (including ``stats.exhausted += 1``) on top of it.
    """

    _RETRIES = "vinci.retries"
    _BACKOFF = "vinci.retry_backoff_cost"
    _EXHAUSTED = "vinci.retry_exhausted"
    _RECOVERED = "vinci.retry_recovered"
    _BY_SERVICE = "vinci.retries_by_service"

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def retries(self) -> int:
        return int(self.metrics.value(self._RETRIES))

    @property
    def backoff_cost(self) -> float:
        return self.metrics.value(self._BACKOFF)

    @property
    def exhausted(self) -> int:
        """Requests that failed even after all attempts."""
        return int(self.metrics.value(self._EXHAUSTED))

    @exhausted.setter
    def exhausted(self, value: int) -> None:
        self.metrics.counter(self._EXHAUSTED).set(value)

    @property
    def recovered(self) -> int:
        """Requests that succeeded on a retry attempt."""
        return int(self.metrics.value(self._RECOVERED))

    @recovered.setter
    def recovered(self, value: int) -> None:
        self.metrics.counter(self._RECOVERED).set(value)

    @property
    def by_service(self) -> dict[str, int]:
        return {
            dict(labels)["service"]: int(counter.value)
            for labels, counter in self.metrics.series(self._BY_SERVICE)
        }

    def record_retry(self, service: str, cost: float) -> None:
        self.metrics.counter(self._RETRIES).inc()
        self.metrics.counter(self._BACKOFF).inc(cost)
        self.metrics.counter(self._BY_SERVICE, service=service).inc()

    def record_exhausted(self) -> None:
        self.metrics.counter(self._EXHAUSTED).inc()

    def record_recovered(self) -> None:
        self.metrics.counter(self._RECOVERED).inc()

    def snapshot(self) -> dict[str, float]:
        return {
            "retries": self.retries,
            "backoff_cost": self.backoff_cost,
            "exhausted": self.exhausted,
            "recovered": self.recovered,
        }
