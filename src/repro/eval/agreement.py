"""Two-judge manual evaluation simulation for feature precision.

"The extracted feature terms were manually examined by two human
subjects and only the terms that both subjects labeled as feature terms
were counted for the computation of the precision."

The simulated judges know the domain's true feature vocabulary (the
generator's ground truth) and make small independent mistakes, so the
agreement protocol — intersecting both judges' labels — actually does
something.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..corpora.vocab import DomainVocab


@dataclass(frozen=True)
class JudgedTerm:
    """One extracted term with both judges' verdicts."""

    term: str
    is_true_feature: bool
    judge_a: bool
    judge_b: bool

    @property
    def accepted(self) -> bool:
        """Counted as a feature only when both judges agree it is one."""
        return self.judge_a and self.judge_b


#: Chance that a judge labels a non-feature term a feature.
FALSE_ACCEPT_RATE = 0.01


class FeatureJudgePanel:
    """Two simulated judges with independent error rates."""

    def __init__(
        self,
        vocab: DomainVocab,
        seed: int = 2005,
        miss_rate: float = 0.02,
    ):
        if not 0 <= miss_rate < 1:
            raise ValueError("miss_rate must lie in [0, 1)")
        # Judges accept number-folded variants: "lyric" counts as the
        # feature "lyrics", "batteries" as "battery".
        from ..nlp.lemmatizer import Lemmatizer

        lemmatizer = Lemmatizer()
        self._truth = set()
        for feature in vocab.features:
            lower = feature.lower()
            self._truth.add(lower)
            words = lower.split()
            words[-1] = lemmatizer.lemmatize(words[-1], "NNS")
            self._truth.add(" ".join(words))
        self._rng = random.Random(seed)
        self._miss_rate = miss_rate

    def is_true_feature(self, term: str) -> bool:
        return term.lower() in self._truth

    def judge(self, terms: list[str]) -> list[JudgedTerm]:
        """Both judges label every term independently."""
        judged = []
        for term in terms:
            truth = self.is_true_feature(term)
            judged.append(
                JudgedTerm(
                    term=term,
                    is_true_feature=truth,
                    judge_a=self._one_verdict(truth),
                    judge_b=self._one_verdict(truth),
                )
            )
        return judged

    def _one_verdict(self, truth: bool) -> bool:
        roll = self._rng.random()
        if truth:
            return roll >= self._miss_rate
        return roll < FALSE_ACCEPT_RATE

    def precision(self, terms: list[str]) -> float:
        """The paper's protocol: accepted-by-both / extracted."""
        if not terms:
            return 0.0
        judged = self.judge(terms)
        return sum(1 for j in judged if j.accepted) / len(judged)

    def agreement_rate(self, terms: list[str]) -> float:
        """Fraction of terms on which the judges agree (sanity metric)."""
        if not terms:
            return 1.0
        judged = self.judge(terms)
        return sum(1 for j in judged if j.judge_a == j.judge_b) / len(judged)
