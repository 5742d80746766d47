"""The ops health surface: one snapshot of the whole serving system.

:func:`health_snapshot` assembles everything an operator would ask
first — queue depth, response mix, breaker states, per-replica segment
logs and compaction backlog, active version pins, ingest counters, NLP
memo hit rates, SLO burn rates, and stage-latency histograms whose slow
buckets carry exemplar trace ids — into one JSON-safe dict, and
:func:`render_health` prints it as the ``repro health`` text view.

The function is duck-typed over the router / live-indexer objects (it
reads only public introspection surfaces), so this module stays in the
dependency-free ``obs`` layer without importing ``platform``.
"""

from __future__ import annotations

from typing import Any

from .metrics import Histogram, MetricsRegistry

#: Stage-latency histograms surfaced with p95 + exemplar trace ids.
STAGE_HISTOGRAMS = (
    ("queue_wait", "serving.queue_wait"),
    ("read", "serving.latency"),
    ("total", "serving.request_latency"),
    ("ingest_lag", "ingest.lag"),
)

#: Memo names mirrored into the ``nlp.memo_*`` series by the analyzer.
MEMO_NAMES = ("split", "tag", "parse")


def _series_values(metrics: MetricsRegistry, name: str) -> dict[str, float]:
    """``label-set -> value`` for every non-histogram series of *name*."""
    out: dict[str, float] = {}
    for labels, instrument in metrics.series(name):
        if isinstance(instrument, Histogram):
            continue
        key = ",".join(f"{k}={v}" for k, v in labels) or "total"
        out[key] = instrument.value
    return out


def _histogram_summary(hist: Histogram) -> dict[str, float | int]:
    return {
        "count": hist.count,
        "mean": round(hist.mean, 6),
        "p50_le": hist.quantile_bound(0.5),
        "p95_le": hist.quantile_bound(0.95),
        "p95_exemplar_trace": hist.exemplar_for_quantile(0.95),
    }


def _memo_rates(metrics: MetricsRegistry) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for memo in MEMO_NAMES:
        hits = metrics.value("nlp.memo_hits", memo=memo)
        misses = metrics.value("nlp.memo_misses", memo=memo)
        evictions = metrics.value("nlp.memo_evictions", memo=memo)
        lookups = hits + misses
        out[memo] = {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        }
    return out


def health_snapshot(
    obs: Any,
    *,
    router: Any = None,
    live_indexer: Any = None,
    slo: Any = None,
    recovery: Any = None,
    wal: Any = None,
) -> dict[str, Any]:
    """One ops snapshot; every section is optional except time + memos."""
    metrics = obs.metrics
    snap: dict[str, Any] = {"sim_time": obs.clock.now}
    if router is not None:
        snap["serving"] = {
            "queue_depth": router.queue_depth,
            "requests": _series_values(metrics, "serving.requests"),
            "responses": _series_values(metrics, "serving.responses"),
            "hedges": metrics.value("serving.hedges"),
            "hedge_wins": metrics.value("serving.hedge_wins"),
            "failovers": metrics.value("serving.failovers"),
            "cancelled_reads": metrics.value("serving.cancelled_reads"),
            "breakers": router.breaker_snapshots(),
        }
        index = router.index
        replicas = []
        for shard_id in index.shard_ids():
            for replica in index.replicas_for(shard_id):
                replicas.append(
                    {
                        "shard": replica.shard_id,
                        "replica": replica.replica,
                        "node": replica.node_id,
                        "segments": len(replica.segments),
                        "latest_version": replica.latest_version,
                    }
                )
        index_section: dict[str, Any] = {
            "current_version": index.current_version,
            "active_pins": {
                str(v): n for v, n in sorted(index.active_pins().items())
            },
            "compaction_floor": index.compaction_floor(),
            "max_segment_count": index.max_segment_count(),
            "replicas": replicas,
        }
        if live_indexer is not None:
            index_section["compaction_backlog"] = max(
                0, index.max_segment_count() - live_indexer.policy.max_segments
            )
        snap["index"] = index_section
    if live_indexer is not None:
        snap["ingest"] = {
            "batches_applied": live_indexer.batches_applied,
            "documents_indexed": live_indexer.documents_indexed,
            "compaction_runs": metrics.value("compaction.runs"),
            "compaction_merged_docs": metrics.value("compaction.merged_docs"),
        }
    snap["memos"] = _memo_rates(metrics)
    stages: dict[str, Any] = {}
    for stage, name in STAGE_HISTOGRAMS:
        for labels, instrument in metrics.series(name):
            if isinstance(instrument, Histogram) and not labels:
                stages[stage] = _histogram_summary(instrument)
    snap["stage_latency"] = stages
    if recovery is not None:
        snap["recovery"] = recovery.snapshot()
    if wal is not None:
        snap["wal"] = wal.snapshot()
    if slo is not None:
        snap["slo"] = slo.status_snapshot()
    return snap


def _fmt(value: float) -> str:
    return f"{value:g}"


def render_health(snap: dict[str, Any]) -> str:
    """The ``repro health`` text view of one snapshot."""
    lines: list[str] = [f"health @ sim_time={_fmt(snap['sim_time'])}"]
    serving = snap.get("serving")
    if serving:
        lines.append("")
        lines.append("serving")
        lines.append(f"  queue_depth      {_fmt(serving['queue_depth'])}")
        responses = ", ".join(
            f"{key}={_fmt(val)}" for key, val in sorted(serving["responses"].items())
        )
        lines.append(f"  responses        {responses or '(none)'}")
        lines.append(
            "  hedges           "
            f"{_fmt(serving['hedges'])} ({_fmt(serving['hedge_wins'])} wins)"
        )
        lines.append(f"  failovers        {_fmt(serving['failovers'])}")
        lines.append(f"  cancelled_reads  {_fmt(serving['cancelled_reads'])}")
        for breaker in serving["breakers"]:
            lines.append(
                f"  breaker {breaker['service']:<22} {breaker['state']:<9} "
                f"opens={breaker['opens']} fastfails={breaker['fastfails']}"
            )
    index = snap.get("index")
    if index:
        lines.append("")
        lines.append("index")
        lines.append(f"  version          {index['current_version']}")
        pins = ", ".join(
            f"v{v}x{n}" for v, n in index["active_pins"].items()
        )
        lines.append(f"  active_pins      {pins or '(none)'}")
        lines.append(f"  compaction_floor {index['compaction_floor']}")
        lines.append(f"  max_segments     {index['max_segment_count']}")
        if "compaction_backlog" in index:
            lines.append(f"  backlog          {index['compaction_backlog']}")
        for replica in index["replicas"]:
            lines.append(
                f"  shard{replica['shard']}/r{replica['replica']}"
                f"@node{replica['node']}  segments={replica['segments']} "
                f"v{replica['latest_version']}"
            )
    ingest = snap.get("ingest")
    if ingest:
        lines.append("")
        lines.append("ingest")
        lines.append(f"  batches          {ingest['batches_applied']}")
        lines.append(f"  documents        {ingest['documents_indexed']}")
        lines.append(f"  compaction_runs  {_fmt(ingest['compaction_runs'])}")
        lines.append(
            f"  merged_docs      {_fmt(ingest['compaction_merged_docs'])}"
        )
    lines.append("")
    lines.append("memos")
    for memo, stats in snap["memos"].items():
        lines.append(
            f"  {memo:<6} hits={_fmt(stats['hits'])} "
            f"misses={_fmt(stats['misses'])} "
            f"evictions={_fmt(stats['evictions'])} "
            f"hit_rate={stats['hit_rate']:.2%}"
        )
    if snap["stage_latency"]:
        lines.append("")
        lines.append("stage latency (p95 bucket bound, exemplar trace)")
        for stage, summary in snap["stage_latency"].items():
            lines.append(
                f"  {stage:<10} count={summary['count']} "
                f"mean={_fmt(summary['mean'])} p95<={_fmt(summary['p95_le'])} "
                f"trace={summary['p95_exemplar_trace']}"
            )
    recovery = snap.get("recovery")
    if recovery:
        lines.append("")
        lines.append("recovery")
        live_rf = ", ".join(
            f"shard{shard}:{live}"
            for shard, live in recovery["live_replication"].items()
        )
        lines.append(f"  live_rf          {live_rf or '(none)'}")
        under = ", ".join(str(s) for s in recovery["under_replicated"])
        lines.append(f"  under_replicated {under or '(none)'}")
        down = ", ".join(str(n) for n in recovery["down_nodes"])
        lines.append(f"  down_nodes       {down or '(none)'}")
        inflight = ", ".join(
            f"shard{shard}@node{host}"
            for shard, host in recovery["inflight_replicas"]
        )
        lines.append(f"  inflight         {inflight or '(none)'}")
        lines.append(
            "  transfers        "
            f"{recovery['transfers']} ({recovery['docs_shipped']} docs)"
        )
        lines.append(f"  settled          {recovery['settled']}")
    wal = snap.get("wal")
    if wal:
        lines.append("")
        lines.append("wal")
        lines.append(f"  depth            {wal['depth']}")
        lines.append(f"  last_lsn         {wal['last_lsn']}")
        lines.append(f"  checkpoint_lsn   {wal['checkpoint_lsn']}")
        unsealed = ", ".join(str(lsn) for lsn in wal["unsealed"])
        lines.append(f"  unsealed         {unsealed or '(none)'}")
    slo = snap.get("slo")
    if slo:
        lines.append("")
        lines.append("slo")
        for status in slo["slos"]:
            rates = ", ".join(
                f"{window}:{rate:.2f}"
                for window, rate in status["burn_rates"].items()
            )
            flag = "FIRING" if status["firing"] else "ok"
            lines.append(
                f"  {status['slo']:<14} {flag:<6} objective={status['objective']:g} "
                f"events={status['events']} bad={status['bad']} burn=[{rates}]"
            )
        for alert in slo["alerts"]:
            lines.append(
                f"  alert {alert['slo']} {alert['state']} at {_fmt(alert['at'])}"
            )
    return "\n".join(lines)
