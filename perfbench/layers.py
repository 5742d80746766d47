"""Per-layer wall-clock attribution for the traced benchmark run.

The traced run wraps each layer's public entry point (a method on a
class, or a module function) with a timer that keeps a stack of open
spans.  A span's *self* time is its duration minus the time its timed
children took, so the self times of all layers, plus whatever ran
outside every span (``unattributed``), add up to the wall time of the
window exactly.

Nothing under ``src/`` changes: the wrappers are installed on the
classes and modules from here, and only in a ``--trace 1`` process.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

#: (layer name, module, attribute path) — the layer is named after the
#: module that owns the function.  ``tag`` is timed where the miner calls
#: it, on the analyzer, so tagging inside the analyzer counts once.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("nlp.sentences.split_text", "repro.nlp.sentences", "SentenceSplitter.split_text"),
    ("nlp.postagger.tag", "repro.core.analyzer", "SentimentAnalyzer.tag"),
    (
        "nlp.parse_cache.parse_with_status",
        "repro.nlp.parse_cache",
        "ParseMemo.parse_with_status",
    ),
    # SubjectSpotter inherits spot_document from the Aho-Corasick base.
    (
        "core.spotting.spot_document",
        "repro.core.spotting",
        "AhoCorasickSpotter.spot_document",
    ),
    ("core.analyzer.judge_spots", "repro.core.analyzer", "SentimentAnalyzer.judge_spots"),
    ("core.miner.mine_document", "repro.core.miner", "SentimentMiner.mine_document"),
    ("platform.segments.index_batch", "repro.platform.segments", "DeltaIndexer.index_batch"),
    ("platform.segments.apply_batch", "repro.platform.segments", "LiveIndexer.apply_batch"),
    ("platform.serving.shards.absorb", "repro.platform.serving.shards", "ReplicatedIndex.absorb"),
    (
        "platform.serving.shards.compact",
        "repro.platform.serving.shards",
        "ReplicatedIndex.compact",
    ),
    (
        "platform.serving.shards.version_vector",
        "repro.platform.serving.shards",
        "ShardReplica.version_vector",
    ),
    (
        "platform.serving.shards.segment_digest",
        "repro.platform.serving.shards",
        "segment_digest",
    ),
    ("platform.recovery.tick", "repro.platform.recovery", "RecoveryManager.tick"),
    (
        "platform.serving.router.submit",
        "repro.platform.serving.router",
        "ServingRouter.submit",
    ),
    (
        "platform.serving.router.drain",
        "repro.platform.serving.router",
        "ServingRouter.drain",
    ),
    ("platform.vinci.request", "repro.platform.vinci", "VinciBus.request"),
    ("platform.wal.append", "repro.platform.wal", "WriteAheadLog.append"),
    ("platform.wal.seal", "repro.platform.wal", "WriteAheadLog.seal"),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)


@dataclass
class LayerStats:
    self_ns: int = 0
    total_ns: int = 0
    calls: int = 0


class LayerTimer:
    """Self-time accounting over wrapped layer entry points."""

    def __init__(self) -> None:
        self.stats = {name: LayerStats() for name in LAYER_NAMES}
        # Time taken by timed children of each open span; the bottom
        # entry collects the time of top-level spans.
        self._child_ns = [0]
        self._originals: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stats in self.stats.values():
            stats.self_ns = 0
            stats.total_ns = 0
            stats.calls = 0

    def wrap(self, function, stats: LayerStats):
        child_ns = self._child_ns
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            child_ns.append(0)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stats.self_ns += elapsed - child_ns.pop()
                stats.total_ns += elapsed
                stats.calls += 1
                child_ns[-1] += elapsed

        return timed

    def install(self) -> None:
        for name, module_name, path in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, self.stats[name]))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def per_call_overhead_ns(self, calls: int = 200_000) -> float:
        """Median extra cost of one wrapped call over a bare call."""

        def bare():
            return None

        wrapped = self.wrap(bare, LayerStats())
        samples = []
        for _ in range(5):
            started = time.perf_counter_ns()
            for _ in range(calls):
                bare()
            plain = time.perf_counter_ns() - started
            started = time.perf_counter_ns()
            for _ in range(calls):
                wrapped()
            samples.append((time.perf_counter_ns() - started - plain) / calls)
        samples.sort()
        return max(0.0, samples[len(samples) // 2])
