"""Feature term extraction: bBNP candidates + likelihood-ratio selection.

Implements Section 4.1 of the paper:

1. extract candidate base noun phrases from the topic-focused collection
   D+ with the **bBNP heuristic** (beginning definite base noun phrases
   followed by a verb phrase);
2. for each candidate, count the documents containing it in D+ (C11) and
   in the off-topic collection D− (C12), and the complements C21/C22;
3. score with **Dunning's likelihood-ratio test** (−2 log λ), zeroing the
   score when the candidate is not positively associated with D+
   (r2 ≥ r1 in the paper's notation);
4. keep candidates above a χ² confidence threshold, or the top N.

Alternative candidate heuristics ("dbnp": all definite bNPs anywhere;
"bnp": all base NPs) and a raw-frequency ranker exist for the ablation
benchmarks DESIGN.md calls out.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from ..nlp.chunker import Chunker
from ..nlp.lemmatizer import Lemmatizer
from ..nlp.postagger import PosTagger
from ..nlp.sentences import SentenceSplitter
from ..nlp.tokens import Chunk, TaggedSentence
from .model import FeatureTerm

#: χ² critical values (1 degree of freedom) for the confidence gate.
CHI2_CRITICAL = {0.90: 2.706, 0.95: 3.841, 0.99: 6.635, 0.999: 10.828}

HEURISTICS = ("bbnp", "dbnp", "bnp")
RANKERS = ("likelihood", "frequency")


def _xlogy(x: float, y: float) -> float:
    """x * log(y) with the 0·log(0) = 0 convention."""
    if x == 0.0:
        return 0.0
    return x * math.log(y)


def likelihood_ratio(c11: int, c12: int, c21: int, c22: int) -> float:
    """Dunning's −2 log λ for the 2×2 table of the paper's Table 1.

    ``c11``/``c12``: documents containing the candidate in D+ / D−;
    ``c21``/``c22``: documents *not* containing it in D+ / D−.
    Returns 0.0 when the candidate is not positively associated with D+
    (the paper's ``r2 ≥ r1`` guard).
    """
    for value in (c11, c12, c21, c22):
        if value < 0:
            raise ValueError("contingency counts must be non-negative")
    total = c11 + c12 + c21 + c22
    if total == 0:
        return 0.0
    containing = c11 + c12
    missing = c21 + c22
    if containing == 0 or missing == 0:
        return 0.0
    r1 = c11 / containing
    r2 = c21 / missing
    if r2 >= r1:
        return 0.0
    r = (c11 + c21) / total
    log_l0 = (
        _xlogy(c11 + c21, r)
        + _xlogy(c12 + c22, 1.0 - r)
    )
    log_l1 = (
        _xlogy(c11, r1)
        + _xlogy(c12, 1.0 - r1)
        + _xlogy(c21, r2)
        + _xlogy(c22, 1.0 - r2)
    )
    return max(0.0, 2.0 * (log_l1 - log_l0))


@dataclass(frozen=True)
class FeatureExtractionConfig:
    """Knobs for candidate extraction and selection."""

    heuristic: str = "bbnp"
    ranker: str = "likelihood"
    confidence: float = 0.95
    top_n: int | None = None
    min_support: int = 2

    def __post_init__(self) -> None:
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"heuristic must be one of {HEURISTICS}")
        if self.ranker not in RANKERS:
            raise ValueError(f"ranker must be one of {RANKERS}")
        if self.confidence not in CHI2_CRITICAL:
            raise ValueError(f"confidence must be one of {sorted(CHI2_CRITICAL)}")
        if self.top_n is not None and self.top_n <= 0:
            raise ValueError("top_n must be positive")
        if self.min_support < 1:
            raise ValueError("min_support must be at least 1")


class FeatureExtractor:
    """Extract topic feature terms from D+ against D−."""

    def __init__(
        self,
        config: FeatureExtractionConfig | None = None,
        tagger: PosTagger | None = None,
    ):
        self._config = config or FeatureExtractionConfig()
        self._tagger = tagger or PosTagger()
        self._chunker = Chunker()
        self._splitter = SentenceSplitter()
        self._lemmatizer = Lemmatizer()

    @property
    def config(self) -> FeatureExtractionConfig:
        return self._config

    # -- public API -----------------------------------------------------------

    def extract(self, dplus: Iterable[str], dminus: Iterable[str]) -> list[FeatureTerm]:
        """Feature terms ranked by score, best first.

        *dplus* are topic-focused documents (e.g. product reviews),
        *dminus* documents not focused on the topic.
        """
        dplus = list(dplus)
        dminus = list(dminus)
        candidates, display = self._candidates(dplus)
        if not candidates:
            return []
        plus_df = self._document_frequency(dplus, candidates)
        minus_df = self._document_frequency(dminus, candidates)
        n_plus = len(dplus)
        n_minus = len(dminus)
        scored: list[FeatureTerm] = []
        for key in candidates:
            c11 = plus_df.get(key, 0)
            c12 = minus_df.get(key, 0)
            if c11 < self._config.min_support:
                continue
            if self._config.ranker == "likelihood":
                score = likelihood_ratio(c11, c12, n_plus - c11, n_minus - c12)
            else:
                score = float(c11)
            scored.append(
                FeatureTerm(term=display[key], score=score, dplus_count=c11, dminus_count=c12)
            )
        scored.sort(key=lambda f: (-f.score, f.term))
        return self._select(scored)

    def candidate_phrases(self, document: str) -> list[str]:
        """Candidate feature phrases one document yields (normalised)."""
        keys: list[str] = []
        for tagged in self._tagged_sentences(document):
            for chunk in self._chunks_for(tagged):
                keys.append(self._normalise(chunk))
        return keys

    # -- internals --------------------------------------------------------------

    def _select(self, scored: list[FeatureTerm]) -> list[FeatureTerm]:
        if self._config.top_n is not None:
            return scored[: self._config.top_n]
        if self._config.ranker == "frequency":
            return scored
        threshold = CHI2_CRITICAL[self._config.confidence]
        return [f for f in scored if f.score > threshold]

    def _tagged_sentences(self, document: str) -> list[TaggedSentence]:
        return [self._tagger.tag(s) for s in self._splitter.split_text(document)]

    def _chunks_for(self, tagged: TaggedSentence) -> list[Chunk]:
        if self._config.heuristic == "bbnp":
            return self._chunker.beginning_definite_bnps(tagged)
        if self._config.heuristic == "dbnp":
            return self._chunker.definite_bnps(tagged)
        return self._chunker.base_noun_phrases(tagged)

    def _normalise(self, chunk: Chunk) -> str:
        """Lowercase, plural-fold the head noun: "The Batteries" → battery."""
        words = [t.lower for t in chunk.tokens]
        head = chunk.tokens[-1]
        words[-1] = self._lemmatizer.lemmatize(head.text, head.tag)
        return " ".join(words)

    def _candidates(self, dplus: list[str]) -> tuple[set[str], dict[str, str]]:
        """Candidate keys from D+ and a display form for each."""
        counter: Counter[str] = Counter()
        for document in dplus:
            counter.update(self.candidate_phrases(document))
        display = {key: key for key in counter}
        return set(counter), display

    def _document_frequency(self, documents: list[str], candidates: set[str]) -> dict[str, int]:
        """How many documents contain each candidate as a token n-gram."""
        max_len = max((key.count(" ") + 1 for key in candidates), default=1)
        df: dict[str, int] = {}
        for document in documents:
            seen: set[str] = set()
            for tagged in self._tagged_sentences(document):
                tokens = tagged.tokens
                n = len(tokens)
                for i in range(n):
                    for length in range(1, min(max_len, n - i) + 1):
                        window = tokens[i : i + length]
                        words = [t.lower for t in window]
                        words[-1] = self._lemmatizer.lemmatize(window[-1].text, window[-1].tag)
                        key = " ".join(words)
                        if key in candidates:
                            seen.add(key)
            for key in seen:
                df[key] = df.get(key, 0) + 1
        return df
