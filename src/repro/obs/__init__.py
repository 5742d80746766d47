"""Unified observability: spans, metrics, and the decision audit trail.

Everything instrumented in the system takes one :class:`Obs` handle
bundling four pieces that share a simulated clock:

* ``tracer``  — hierarchical :class:`~repro.obs.tracer.Span` trees
  (no-op by default; see :func:`Obs.enabled`);
* ``metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry` every
  counter in the system reports into (always live: the legacy stats
  objects are views over it);
* ``audit``   — the :class:`~repro.obs.audit.AuditTrail` of keep/filter
  and polarity decisions (no-op by default);
* ``clock``   — the :class:`~repro.obs.clock.SimClock` timestamps come
  from, advanced by instrumented components as they charge simulated
  cost.

``Obs.default()`` is zero-cost on the trace/audit side: tracing wraps
become a single method call returning a shared inert object.
``Obs.enabled()`` turns everything on.
"""

from __future__ import annotations

from .audit import NULL_AUDIT, AuditTrail, NullAuditTrail
from .clock import SimClock
from .context import (
    ROOT,
    TRACE_KEY,
    TraceContext,
    extract_context,
    with_trace,
)
from .export import (
    dump_records,
    read_trace,
    render_dump,
    render_span_tree,
    write_trace,
)
from .metrics import MetricsRegistry
from .health import health_snapshot, render_health
from .slo import (
    AlertEvent,
    BurnWindow,
    SLOMonitor,
    SLOSpec,
    default_serving_slos,
    replication_slo,
)
from .tracer import NULL_TRACER, NullTracer, Span, Tracer


class Obs:
    """One run's observability context: tracer + metrics + audit + clock."""

    __slots__ = ("clock", "tracer", "metrics", "audit")

    def __init__(
        self,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
        audit: AuditTrail | NullAuditTrail | None = None,
        clock: SimClock | None = None,
    ):
        self.clock = clock if clock is not None else SimClock()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.audit = audit if audit is not None else NULL_AUDIT

    @classmethod
    def default(cls) -> "Obs":
        """Metrics live, tracing and audit disabled (the zero-cost mode)."""
        return cls()

    @classmethod
    def enabled(cls) -> "Obs":
        """Everything on, sharing one simulated clock."""
        clock = SimClock()
        return cls(
            tracer=Tracer(clock),
            metrics=MetricsRegistry(),
            audit=AuditTrail(),
            clock=clock,
        )

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    @property
    def auditing(self) -> bool:
        return self.audit.enabled

    def records(self) -> list[dict]:
        """The full JSONL record stream for this context."""
        return dump_records(self.tracer.spans(), self.metrics, self.audit.entries)

    def write(self, path: str) -> int:
        """Dump spans + metrics + audit to a JSONL file."""
        return write_trace(
            path, self.tracer.spans(), self.metrics, self.audit.entries
        )


__all__ = [
    "AlertEvent",
    "AuditTrail",
    "BurnWindow",
    "MetricsRegistry",
    "NULL_AUDIT",
    "NULL_TRACER",
    "NullAuditTrail",
    "NullTracer",
    "Obs",
    "ROOT",
    "SLOMonitor",
    "SLOSpec",
    "SimClock",
    "Span",
    "TRACE_KEY",
    "TraceContext",
    "Tracer",
    "default_serving_slos",
    "dump_records",
    "extract_context",
    "health_snapshot",
    "read_trace",
    "render_dump",
    "render_health",
    "render_span_tree",
    "replication_slo",
    "with_trace",
    "write_trace",
]
