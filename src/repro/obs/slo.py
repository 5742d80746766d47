"""Declarative SLOs with multi-window burn-rate alerting on the sim clock.

An :class:`SLOSpec` states an objective ("99% of router responses are
served", "95% of requests finish within 5.0 sim units", "95% of batches
become queryable within 40.0 sim units of ingest").  Each spec is
tracked as a stream of timestamped good/bad events over sliding
sim-clock windows; *burn rate* is the classic SRE ratio

    burn_rate = observed_bad_fraction / error_budget

so 1.0 means "burning budget exactly as fast as the objective allows"
and 10.0 means "ten times too fast".  An alert fires only when **every**
configured window exceeds its threshold — the long window proves the
problem is sustained, the short window proves it is still happening —
and resolves when any window drops back below.  Every transition is
appended to :attr:`SLOMonitor.alerts`, mirrored into ``slo.*`` metrics,
and recorded in the audit trail (kind :data:`AUDIT_KIND_SLO`), so alert
history rides the same JSONL export stream as spans and decisions.

Everything is driven by the shared :class:`~repro.obs.clock.SimClock`:
no wall clock, no RNG — a scripted breach fires identically on every
run (DET001/DET002 clean).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from . import audit as _audit

#: SLO kinds.
AVAILABILITY = "availability"
LATENCY = "latency"
FRESHNESS = "freshness"
REPLICATION = "replication"

#: Audit-entry kind used for alert transitions.
AUDIT_KIND_SLO = "slo"

#: Alert states.
FIRING = "firing"
RESOLVED = "resolved"


@dataclass(frozen=True)
class BurnWindow:
    """One sliding window and the burn rate that trips it."""

    length: float
    max_burn_rate: float

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("window length must be positive")
        if self.max_burn_rate <= 0:
            raise ValueError("max burn rate must be positive")


#: Default window pair: a long window for "sustained" and a short one
#: for "still happening", both in sim units (page-style thresholds).
DEFAULT_WINDOWS = (
    BurnWindow(length=200.0, max_burn_rate=2.0),
    BurnWindow(length=25.0, max_burn_rate=2.0),
)


@dataclass(frozen=True)
class SLOSpec:
    """A declarative objective over a stream of good/bad events.

    ``objective`` is the good fraction promised (0.99 = 99%); the error
    budget is its complement.  For :data:`LATENCY` and :data:`FRESHNESS`
    kinds, ``threshold`` is the sim-cost ceiling that classifies an
    observation as bad; :data:`AVAILABILITY` ignores it (the caller
    classifies by response status).
    """

    name: str
    kind: str
    objective: float
    threshold: float = 0.0
    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (AVAILABILITY, LATENCY, FRESHNESS, REPLICATION):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be strictly between 0 and 1")
        if not self.windows:
            raise ValueError("an SLO needs at least one burn window")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass(frozen=True)
class AlertEvent:
    """One alert transition (fired or resolved) for one SLO."""

    slo: str
    state: str
    at: float
    burn_rates: tuple[tuple[float, float], ...]  # (window length, rate)

    def to_record(self) -> dict[str, Any]:
        return {
            "type": "slo_alert",
            "slo": self.slo,
            "state": self.state,
            "at": self.at,
            "burn_rates": [list(pair) for pair in self.burn_rates],
        }


class _WindowState:
    """One window's event deque with running totals.

    Keeping per-window counts incrementally makes every evaluation
    amortised O(evicted events) instead of rescanning the whole window —
    the SLO monitor runs once per drained burst on the serving hot path
    and shares the bench-obs overhead budget with the tracer.
    """

    __slots__ = ("window", "events", "total", "bad")

    def __init__(self, window: BurnWindow):
        self.window = window
        self.events: deque[tuple[float, bool]] = deque()  # (t, bad)
        self.total = 0
        self.bad = 0

    def record(self, t: float, bad: bool) -> None:
        self.events.append((t, bad))
        self.total += 1
        self.bad += bad

    def burn_rate(self, now: float, error_budget: float) -> float:
        """Bad fraction in the window, normalised by the error budget."""
        cutoff = now - self.window.length
        events = self.events
        while events and events[0][0] < cutoff:
            _, was_bad = events.popleft()
            self.total -= 1
            self.bad -= was_bad
        if self.total == 0:
            return 0.0
        return (self.bad / self.total) / error_budget


class _Tracker:
    """Event stream + alert state for one spec."""

    __slots__ = ("spec", "windows", "good", "bad", "firing")

    def __init__(self, spec: SLOSpec):
        self.spec = spec
        self.windows = tuple(_WindowState(w) for w in spec.windows)
        self.good = 0
        self.bad = 0
        self.firing = False

    def record(self, t: float, bad: bool) -> None:
        if bad:
            self.bad += 1
        else:
            self.good += 1
        for state in self.windows:
            state.record(t, bad)

    def evaluate(self, now: float) -> tuple[dict[str, Any], AlertEvent | None]:
        budget = self.spec.error_budget
        rates = tuple(
            (s.window.length, s.burn_rate(now, budget)) for s in self.windows
        )
        breaching = all(
            rate >= w.max_burn_rate
            for (_, rate), w in zip(rates, self.spec.windows)
        )
        event: AlertEvent | None = None
        if breaching and not self.firing:
            self.firing = True
            event = AlertEvent(self.spec.name, FIRING, now, rates)
        elif not breaching and self.firing:
            self.firing = False
            event = AlertEvent(self.spec.name, RESOLVED, now, rates)
        total = self.good + self.bad
        status = {
            "slo": self.spec.name,
            "kind": self.spec.kind,
            "objective": self.spec.objective,
            "threshold": self.spec.threshold,
            "events": total,
            "bad": self.bad,
            "good_fraction": (self.good / total) if total else 1.0,
            "burn_rates": {f"{length:g}": rate for length, rate in rates},
            "firing": self.firing,
        }
        return status, event


#: The stock SLO thresholds: request latency and ingest freshness (both
#: simulated time), and the replication-health objective.
LATENCY_THRESHOLD = 5.0
FRESHNESS_THRESHOLD = 40.0
REPLICATION_OBJECTIVE = 0.95


def default_serving_slos() -> tuple[SLOSpec, ...]:
    """The stock router SLO set: availability, p95 latency, p95 freshness."""
    return (
        SLOSpec(
            name="availability",
            kind=AVAILABILITY,
            objective=0.99,
            description="99% of router responses are served (ok or degraded)",
        ),
        SLOSpec(
            name="latency_p95",
            kind=LATENCY,
            objective=0.95,
            threshold=LATENCY_THRESHOLD,
            description=f"95% of requests finish within {LATENCY_THRESHOLD:g}",
        ),
        SLOSpec(
            name="freshness_p95",
            kind=FRESHNESS,
            objective=0.95,
            threshold=FRESHNESS_THRESHOLD,
            description=(
                f"95% of ingest batches queryable within {FRESHNESS_THRESHOLD:g}"
            ),
        ),
    )


def replication_slo() -> SLOSpec:
    """Replication-health objective for recovery-enabled clusters.

    Each observation is one shard at one recovery tick; "bad" means the
    shard was under-replicated at that instant.  Kept out of
    :func:`default_serving_slos` so plain serving runs (no restarts, no
    recovery manager) keep their exact report shape — the scenario
    builder adds it via :meth:`SLOMonitor.add_spec` when recovery is on.
    """
    return SLOSpec(
        name="replication_health",
        kind=REPLICATION,
        objective=REPLICATION_OBJECTIVE,
        description=(
            f"{REPLICATION_OBJECTIVE:.0%} of per-shard observations at full "
            "replication"
        ),
    )


class SLOMonitor:
    """Tracks a set of SLO specs against one observability context.

    The router calls :meth:`record_request` per response and the live
    indexer calls :meth:`record_freshness` per absorbed batch; some
    driver (load generator, health command, test) calls
    :meth:`evaluate` at checkpoints to advance the alert state machine.
    """

    #: Response statuses that count against the availability budget.
    BAD_STATUSES = frozenset({"error", "shed", "expired"})

    def __init__(self, obs: Any, specs: tuple[SLOSpec, ...] | None = None):
        self._obs = obs
        self._trackers: dict[str, _Tracker] = {}
        # Per-kind views so the per-response intake path never scans
        # trackers of the wrong kind (it runs once per router response).
        self._by_kind: dict[str, list[_Tracker]] = {
            AVAILABILITY: [], LATENCY: [], FRESHNESS: [], REPLICATION: []
        }
        self.alerts: list[AlertEvent] = []
        for spec in specs if specs is not None else default_serving_slos():
            self.add_spec(spec)

    def add_spec(self, spec: SLOSpec) -> None:
        if spec.name in self._trackers:
            raise ValueError(f"duplicate SLO {spec.name!r}")
        tracker = _Tracker(spec)
        self._trackers[spec.name] = tracker
        self._by_kind[spec.kind].append(tracker)

    @property
    def specs(self) -> tuple[SLOSpec, ...]:
        return tuple(t.spec for t in self._trackers.values())

    # -- event intake -----------------------------------------------------------

    def record_request(self, status: str, latency: float) -> None:
        """Feed one router response into availability + latency SLOs."""
        now = self._obs.clock.now
        bad = status in self.BAD_STATUSES
        for tracker in self._by_kind[AVAILABILITY]:
            tracker.record(now, bad)
        for tracker in self._by_kind[LATENCY]:
            tracker.record(now, latency > tracker.spec.threshold)

    def record_freshness(self, lag: float) -> None:
        """Feed one ingest-to-queryable lag observation."""
        now = self._obs.clock.now
        for tracker in self._by_kind[FRESHNESS]:
            tracker.record(now, lag > tracker.spec.threshold)

    def record_replication(self, healthy: bool) -> None:
        """Feed one per-shard replication-health observation.

        The recovery manager calls this once per shard per tick:
        ``healthy`` means the shard currently has at least the configured
        replication factor's worth of *live* replicas.
        """
        now = self._obs.clock.now
        for tracker in self._by_kind[REPLICATION]:
            tracker.record(now, not healthy)

    # -- evaluation -------------------------------------------------------------

    def evaluate(self) -> list[dict[str, Any]]:
        """Advance every alert state machine; return per-SLO statuses."""
        now = self._obs.clock.now
        metrics = self._obs.metrics
        statuses: list[dict[str, Any]] = []
        for tracker in self._trackers.values():
            status, event = tracker.evaluate(now)
            statuses.append(status)
            metrics.gauge("slo.burning", slo=tracker.spec.name).set(
                1.0 if tracker.firing else 0.0
            )
            shortest = min(tracker.spec.windows, key=lambda w: w.length)
            metrics.gauge("slo.burn_rate", slo=tracker.spec.name).set(
                status["burn_rates"][f"{shortest.length:g}"]
            )
            if event is not None:
                self.alerts.append(event)
                metrics.counter("slo.alerts", state=event.state).inc()
                self._obs.audit.record(
                    _audit.AuditEntry(
                        kind=AUDIT_KIND_SLO,
                        subject=event.slo,
                        decision=event.state,
                        reason="multi-window burn rate",
                        detail=(
                            ("at", event.at),
                            ("burn_rates", [list(p) for p in event.burn_rates]),
                        ),
                    )
                )
        return statuses

    def status_snapshot(self) -> dict[str, Any]:
        """Evaluation results plus alert history, for the health surface."""
        return {
            "slos": self.evaluate(),
            "alerts": [event.to_record() for event in self.alerts],
        }
