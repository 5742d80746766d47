"""Spot disambiguation: is this occurrence really about the subject?

"The disambiguator evaluates each spot to determine if it is truly related
to the intended subject ... It utilizes user-defined sets of terms that
are positively (or negatively) related to the topic for each domain.  For
each spot, it computes a score for a local context surrounding the spot,
and a global context (the full document).  The score is based on the
on-topic and off-topic terms found, their TF·IDF scores, and their types
(single term or lexical affinity).  If the global context score passes a
threshold, all spots on the page are considered on-topic.  Otherwise it
checks whether the combined local context and global context score passes
another threshold." (paper Section 3, after Amitay et al.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..obs.audit import FILTERED, KEPT, NULL_AUDIT, AuditTrail, NullAuditTrail
from ..nlp.tokens import Sentence, Token
from .model import Spot


@dataclass(frozen=True)
class TopicTermSet:
    """User-defined on-topic / off-topic context terms for one domain.

    Terms may be single words or two-word *lexical affinities*; affinities
    are stronger evidence and receive double weight, as in the multi-
    resolution disambiguation paper the system builds on.
    """

    on_topic: frozenset[str]
    off_topic: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.on_topic & self.off_topic
        if overlap:
            raise ValueError(f"terms cannot be both on- and off-topic: {sorted(overlap)}")

    @classmethod
    def build(cls, on_topic: Iterable[str], off_topic: Iterable[str] = ()) -> "TopicTermSet":
        return cls(
            on_topic=frozenset(t.lower() for t in on_topic),
            off_topic=frozenset(t.lower() for t in off_topic),
        )


@dataclass(frozen=True)
class DisambiguationConfig:
    """Thresholds and window size for the two-resolution scoring."""

    local_window: int = 30  # tokens on each side of the spot
    global_threshold: float = 2.0
    combined_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.local_window <= 0:
            raise ValueError("local_window must be positive")


@dataclass
class DisambiguationResult:
    """Partition of a document's spots into on-topic and off-topic."""

    on_topic: list[Spot] = field(default_factory=list)
    off_topic: list[Spot] = field(default_factory=list)
    global_score: float = 0.0

    @property
    def total(self) -> int:
        return len(self.on_topic) + len(self.off_topic)


class Disambiguator:
    """Two-resolution (local + global) context scorer.

    Parameters
    ----------
    terms:
        The domain's on/off-topic term sets.
    config:
        Thresholds; the defaults suit the synthetic corpora.

    Every term weighs 1.0 (a lexical affinity 2.0): the paper's TF·IDF
    weighting is not reproduced.
    """

    def __init__(
        self,
        terms: TopicTermSet,
        config: DisambiguationConfig | None = None,
    ):
        self._terms = terms
        self._config = config or DisambiguationConfig()

    # -- public API --------------------------------------------------------------

    def disambiguate(
        self,
        sentences: list[Sentence],
        spots: list[Spot],
        audit: AuditTrail | NullAuditTrail | None = None,
    ) -> DisambiguationResult:
        """Partition *spots* given the document's sentences.

        When an :class:`~repro.obs.audit.AuditTrail` is supplied, every
        spot's keep/filter decision is recorded with the resolution that
        made it (``global-pass``, ``combined-pass``, ``combined-fail``)
        and the scores involved.
        """
        audit = audit if audit is not None else NULL_AUDIT
        tokens = [t for s in sentences for t in s.tokens]
        result = DisambiguationResult()
        result.global_score = self._score(tokens)
        if result.global_score >= self._config.global_threshold:
            result.on_topic = list(spots)
            if audit.enabled:
                for spot in spots:
                    audit.record_spot(
                        spot.subject.canonical,
                        KEPT,
                        "global-pass",
                        document_id=spot.document_id,
                        sentence_index=spot.sentence_index,
                        term=spot.term,
                        global_score=result.global_score,
                        threshold=self._config.global_threshold,
                    )
            return result
        for spot in spots:
            local = self._local_tokens(tokens, spot)
            local_score = self._score(local)
            combined = local_score + result.global_score
            kept = combined >= self._config.combined_threshold
            if kept:
                result.on_topic.append(spot)
            else:
                result.off_topic.append(spot)
            if audit.enabled:
                audit.record_spot(
                    spot.subject.canonical,
                    KEPT if kept else FILTERED,
                    "combined-pass" if kept else "combined-fail",
                    document_id=spot.document_id,
                    sentence_index=spot.sentence_index,
                    term=spot.term,
                    global_score=result.global_score,
                    local_score=local_score,
                    combined_score=combined,
                    threshold=self._config.combined_threshold,
                )
        return result

    # -- scoring -------------------------------------------------------------------

    def _score(self, tokens: list[Token]) -> float:
        """Signed evidence score over a token window."""
        score = 0.0
        words = [t.lower for t in tokens]
        for i, word in enumerate(words):
            if word in self._terms.on_topic:
                score += 1.0
            elif word in self._terms.off_topic:
                score -= 1.0
            if i + 1 < len(words):
                bigram = f"{word} {words[i + 1]}"
                # Lexical affinities count double.
                if bigram in self._terms.on_topic:
                    score += 2.0
                elif bigram in self._terms.off_topic:
                    score -= 2.0
        return score

    def _local_tokens(self, tokens: list[Token], spot: Spot) -> list[Token]:
        """Tokens within the local window around the spot."""
        window = self._config.local_window
        inside = [i for i, t in enumerate(tokens) if spot.span.overlaps(t.span)]
        if not inside:
            return []
        lo = max(0, inside[0] - window)
        hi = min(len(tokens), inside[-1] + window + 1)
        return tokens[lo:hi]
