"""Corpus-level feature term extraction miner.

Wraps :class:`repro.core.features.FeatureExtractor` as a WebFountain
corpus miner: the map phase extracts candidate counts per partition, the
reduce phase merges the 2×2 tables and applies the likelihood-ratio test.
Membership in D+ vs D− comes from an entity metadata field (default
``domain``): entities whose field equals the topic are D+.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..core.features import FeatureExtractionConfig, FeatureExtractor, likelihood_ratio
from ..core.model import FeatureTerm
from ..obs import Obs
from ..core.entity import Entity
from ..core.mining import CorpusMiner


@dataclass
class FeaturePartial:
    """Per-partition counts: candidate doc frequencies in D+ and D−."""

    dplus_docs: int = 0
    dminus_docs: int = 0
    dplus_df: Counter = field(default_factory=Counter)
    dminus_df: Counter = field(default_factory=Counter)


class FeatureTermMiner(CorpusMiner[FeaturePartial]):
    """Map/reduce feature extraction over stored entities.

    The reduce step returns a :class:`FeaturePartial`; call
    :meth:`score` on it to get ranked :class:`FeatureTerm` rows.
    """

    name = "feature-term-miner"

    def __init__(
        self,
        topic: str,
        config: FeatureExtractionConfig | None = None,
        obs: Obs | None = None,
    ):
        self._topic = topic
        self._config = config or FeatureExtractionConfig()
        self._extractor = FeatureExtractor(self._config)
        self._obs = obs if obs is not None else Obs.default()

    # -- map -----------------------------------------------------------------------------

    def map_partition(self, entities: Iterable[Entity]) -> FeaturePartial:
        partial = FeaturePartial()
        dplus_texts: list[str] = []
        dminus_texts: list[str] = []
        for entity in entities:
            if entity.metadata.get("domain") == self._topic:
                dplus_texts.append(entity.content)
            else:
                dminus_texts.append(entity.content)
        partial.dplus_docs = len(dplus_texts)
        partial.dminus_docs = len(dminus_texts)
        with self._obs.tracer.span(
            "stage.extract_features",
            dplus=partial.dplus_docs,
            dminus=partial.dminus_docs,
        ) as span:
            # Candidates come from D+ only (the paper extracts from reviews).
            candidate_sets = [
                set(self._extractor.candidate_phrases(t)) for t in dplus_texts
            ]
            candidates = set().union(*candidate_sets) if candidate_sets else set()
            for doc_candidates in candidate_sets:
                partial.dplus_df.update(doc_candidates)
            for text in dminus_texts:
                present = self._present_in(text, candidates)
                partial.dminus_df.update(present)
            span.set_attribute("candidates", len(candidates))
        self._obs.metrics.counter("features.documents").inc(
            partial.dplus_docs + partial.dminus_docs
        )
        self._obs.metrics.counter("features.candidates").inc(len(partial.dplus_df))
        return partial

    def _present_in(self, text: str, candidates: set[str]) -> set[str]:
        if not candidates:
            return set()
        lowered = " " + " ".join(text.lower().split()) + " "
        found = set()
        for candidate in candidates:
            if f" {candidate}" in lowered or f" {candidate}s" in lowered:
                found.add(candidate)
        return found

    # -- reduce ---------------------------------------------------------------------------

    def reduce(self, partials: list[FeaturePartial]) -> FeaturePartial:
        merged = FeaturePartial()
        for partial in partials:
            merged.dplus_docs += partial.dplus_docs
            merged.dminus_docs += partial.dminus_docs
            merged.dplus_df.update(partial.dplus_df)
            merged.dminus_df.update(partial.dminus_df)
        return merged

    # -- scoring -----------------------------------------------------------------------------

    def score(self, merged: FeaturePartial) -> list[FeatureTerm]:
        """Apply selection to merged counts; mirrors FeatureExtractor."""
        scored: list[FeatureTerm] = []
        for term, c11 in merged.dplus_df.items():
            if c11 < self._config.min_support:
                continue
            c12 = merged.dminus_df.get(term, 0)
            if self._config.ranker == "likelihood":
                value = likelihood_ratio(
                    c11, c12, merged.dplus_docs - c11, merged.dminus_docs - c12
                )
            else:
                value = float(c11)
            scored.append(
                FeatureTerm(term=term, score=value, dplus_count=c11, dminus_count=c12)
            )
        scored.sort(key=lambda f: (-f.score, f.term))
        if self._config.top_n is not None:
            return scored[: self._config.top_n]
        if self._config.ranker == "frequency":
            return scored
        from ..core.features import CHI2_CRITICAL

        threshold = CHI2_CRITICAL[self._config.confidence]
        return [f for f in scored if f.score > threshold]
