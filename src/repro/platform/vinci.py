"""Vinci: the in-process service bus.

"The nodes in the cluster communicate using a Web-service style,
lightweight, high-speed communication protocol called Vinci, a derivative
of SOAP."

This simulation keeps Vinci's programming model — named services
exchanging small request/response documents — without sockets: handlers
register under a service name, callers send dict payloads, and the bus
records traffic so the platform benchmarks can report message counts.

Observability
-------------
Every bus carries an :class:`~repro.obs.Obs` context.  Per-service
request/failure counts live in its metrics registry (``vinci.requests`` /
``vinci.failures`` series — :meth:`VinciBus.stats` is a view over them,
as is :class:`~repro.platform.retry.RetryStats`), and when tracing is
enabled each logical request becomes a ``vinci.request`` span with one
``vinci.attempt`` child per try, carrying attempt numbers and injected
fault kinds.  The envelope trace is an explicit ring buffer: the newest
``trace_limit`` exchanges are kept and the number evicted is surfaced in
``stats()["_trace"]["dropped"]`` and the ``vinci.trace_dropped`` counter.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from ..obs import Obs
from ..obs.context import extract_context
from .faults import TIMEOUT, FaultPlan
from .retry import RetryPolicy, RetryStats

Handler = Callable[[dict[str, Any]], dict[str, Any]]

#: Pseudo-service key under which ``stats()`` reports trace-buffer state.
TRACE_STATS_KEY = "_trace"


class VinciError(RuntimeError):
    """Service-level failure (unknown service or handler exception)."""


class VinciTimeout(VinciError):
    """An injected service timeout (the handler never ran)."""


class ServiceRecord:
    """Registered service; its traffic counters live in the metrics registry."""

    __slots__ = ("name", "handler", "_requests", "_failures")

    def __init__(self, name: str, handler: Handler, obs: Obs):
        self.name = name
        self.handler = handler
        self._requests = obs.metrics.counter("vinci.requests", service=name)
        self._failures = obs.metrics.counter("vinci.failures", service=name)

    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def failures(self) -> int:
        return int(self._failures.value)

    def mark_request(self) -> None:
        self._requests.inc()

    def mark_failure(self) -> None:
        self._failures.inc()


@dataclass
class Envelope:
    """One request/response exchange, as recorded by the bus trace.

    ``attempt`` is 1 for a first try and counts up across retries of the
    same logical request; ``fault`` names an injected fault kind when
    the exchange failed because of one ("error", "timeout").
    ``trace_id`` attributes the exchange to the caller's trace when the
    payload threaded a :class:`~repro.obs.context.TraceContext` (0 when
    untraced), so every recorded attempt maps onto exactly one
    ``vinci.attempt`` span in the dump.
    """

    service: str
    request: dict[str, Any]
    response: dict[str, Any] | None
    ok: bool
    attempt: int = 1
    fault: str = ""
    trace_id: int = 0


class VinciBus:
    """The service registry and request router.

    A bus optionally carries a :class:`~repro.platform.retry.RetryPolicy`
    (transient failures are retried with simulated-cost backoff) and a
    :class:`~repro.platform.faults.FaultPlan` (scheduled faults fire
    before the handler runs).  Without either, behaviour is identical to
    the original fail-fast bus.
    """

    def __init__(
        self,
        trace_limit: int = 1000,
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        obs: Obs | None = None,
    ):
        if trace_limit < 0:
            raise ValueError("trace_limit must be non-negative")
        self._obs = obs if obs is not None else Obs.default()
        self._services: dict[str, ServiceRecord] = {}
        self._trace: deque[Envelope] = deque(maxlen=trace_limit or None)
        self._trace_limit = trace_limit
        self._dropped = self._obs.metrics.counter("vinci.trace_dropped")
        self._retry_policy = retry_policy
        self._fault_plan = fault_plan
        self._retry_stats = RetryStats(self._obs.metrics)
        # Jitter stream: seeded from the plan so runs are reproducible.
        self._rng = random.Random(fault_plan.seed if fault_plan is not None else 0)

    # -- registration -----------------------------------------------------------------

    def register(self, name: str, handler: Handler) -> None:
        """Register (or replace) a service handler."""
        if not name:
            raise ValueError("service name must be non-empty")
        self._services[name] = ServiceRecord(name, handler, self._obs)

    def unregister(self, name: str) -> None:
        self._services.pop(name, None)

    def services(self) -> list[str]:
        return sorted(self._services)

    def __contains__(self, name: str) -> bool:
        return name in self._services

    # -- requests ----------------------------------------------------------------------

    def request(self, service: str, payload: dict[str, Any] | None = None) -> dict[str, Any]:
        """Send a request; raises :class:`VinciError` on failure.

        An unknown service is a permanent error and is never retried.
        Handler failures, injected faults, and malformed responses are
        transient: with a retry policy the bus re-sends, charging the
        policy's backoff into :attr:`retry_stats` in simulated cost
        units, until an attempt succeeds or attempts run out.  Only a
        ``None`` payload means "no payload" and is sent as ``{}``; any
        other value reaches the handler as given.
        """
        if payload is None:
            payload = {}
        tracer = self._obs.tracer
        # Join the caller's trace when the payload threads a context
        # (the serving router and cluster coordinator both do); without
        # one the span nests under whatever span is open on this tracer.
        ctx = extract_context(payload)
        with tracer.span("vinci.request", parent=ctx, service=service) as span:
            trace_id = span.trace_id
            record = self._services.get(service)
            if record is None:
                self._record(
                    Envelope(service, payload, None, ok=False, trace_id=trace_id)
                )
                raise VinciError(f"no such service: {service!r}")
            policy = self._retry_policy
            attempt = 0
            while True:
                attempt += 1
                try:
                    response = self._attempt(record, payload, attempt, trace_id)
                except VinciError:
                    if policy is not None and policy.allows_retry(attempt):
                        cost = policy.backoff(attempt, self._rng)
                        self._retry_stats.record_retry(service, cost)
                        self._obs.clock.advance(cost)
                        continue
                    self._retry_stats.record_exhausted()
                    span.set_attribute("attempts", attempt)
                    raise
                if attempt > 1:
                    self._retry_stats.record_recovered()
                span.set_attribute("attempts", attempt)
                return response

    def _attempt(
        self,
        record: ServiceRecord,
        payload: dict[str, Any],
        attempt: int,
        trace_id: int = 0,
    ) -> dict[str, Any]:
        """One try at one service: inject faults, run handler, validate."""
        service = record.name
        record.mark_request()
        with self._obs.tracer.span(
            "vinci.attempt", service=service, attempt=attempt
        ) as span:
            fault = (
                self._fault_plan.consume_service_fault(service)
                if self._fault_plan is not None
                else None
            )
            if fault is not None:
                record.mark_failure()
                span.set_attribute("fault", fault)
                self._record(
                    Envelope(
                        service, payload, None,
                        ok=False, attempt=attempt, fault=fault, trace_id=trace_id,
                    )
                )
                if fault == TIMEOUT:
                    raise VinciTimeout(f"service {service!r} timed out (injected)")
                raise VinciError(f"service {service!r} failed (injected)")
            try:
                response = record.handler(payload)
            except VinciError:
                record.mark_failure()
                self._record(
                    Envelope(
                        service, payload, None,
                        ok=False, attempt=attempt, trace_id=trace_id,
                    )
                )
                raise
            except Exception as exc:
                record.mark_failure()
                self._record(
                    Envelope(
                        service, payload, None,
                        ok=False, attempt=attempt, trace_id=trace_id,
                    )
                )
                raise VinciError(f"service {service!r} failed: {exc}") from exc
            if not isinstance(response, dict):
                record.mark_failure()
                self._record(
                    Envelope(
                        service, payload, None,
                        ok=False, attempt=attempt, trace_id=trace_id,
                    )
                )
                raise VinciError(f"service {service!r} returned a non-document response")
            self._record(
                Envelope(
                    service, payload, response,
                    ok=True, attempt=attempt, trace_id=trace_id,
                )
            )
            return response

    # -- introspection -------------------------------------------------------------------

    @property
    def obs(self) -> Obs:
        return self._obs

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-service traffic plus the ``_trace`` ring-buffer entry.

        Service entries are views over the ``vinci.requests`` /
        ``vinci.failures`` metric series.  The reserved ``_trace`` key
        (zero-filled ``requests``/``failures`` so aggregations over
        values stay correct) reports the ring buffer: envelopes
        currently held, envelopes dropped, and the configured limit.
        """
        out = {
            name: {"requests": r.requests, "failures": r.failures}
            for name, r in sorted(self._services.items())
        }
        out[TRACE_STATS_KEY] = {
            "requests": 0,
            "failures": 0,
            "recorded": len(self._trace),
            "dropped": self.trace_dropped,
            "limit": self._trace_limit,
        }
        return out

    def trace(self) -> list[Envelope]:
        """The newest ``trace_limit`` envelopes, oldest first."""
        return list(self._trace)

    @property
    def trace_dropped(self) -> int:
        """Envelopes evicted from the ring buffer so far."""
        return int(self._dropped.value)

    @property
    def retry_stats(self) -> RetryStats:
        return self._retry_stats

    @property
    def fault_plan(self) -> FaultPlan | None:
        return self._fault_plan

    @property
    def retry_policy(self) -> RetryPolicy | None:
        return self._retry_policy

    def _record(self, envelope: Envelope) -> None:
        if self._trace_limit == 0:
            self._dropped.inc()
            return
        if len(self._trace) == self._trace_limit:
            # deque(maxlen=...) evicts the oldest envelope on append; the
            # eviction is counted here so it is never silent.
            self._dropped.inc()
        self._trace.append(envelope)
