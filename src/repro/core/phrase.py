"""Phrase-level sentiment: polarity of a chunk under negation.

"The sentiment of a phrase is determined by the sentiment words in the
phrase.  For example, *excellent pictures* (JJ NN) is a positive sentiment
phrase because *excellent* (JJ) is a positive sentiment word.  For a
sentiment phrase with an adverb with negative meaning ... the sentiment
polarity of the phrase is reversed." (paper Section 4.2)

The scorer sums signed votes from lexicon hits, flipping the sign of every
word in the scope of a negator.  Every hit counts one vote, as in the
paper: degree adverbs ("very", "somewhat") neither strengthen nor weaken
the word they modify.  The paper's output is binary, so the public
result is the sign; the signed sum is kept as ``score``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lexicons import negation
from ..nlp.tokens import Chunk, TaggedToken
from .lexicon import SentimentLexicon
from .model import Polarity


@dataclass(frozen=True)
class PhraseSentiment:
    """Result of scoring one phrase."""

    polarity: Polarity
    score: float
    sentiment_words: tuple[str, ...]
    negated: bool

    @property
    def is_polar(self) -> bool:
        return self.polarity.is_polar


class PhraseScorer:
    """Compute phrase polarity from lexicon hits and negation scope."""

    def __init__(self, lexicon: SentimentLexicon):
        self._lexicon = lexicon

    def score_tokens(self, tokens: tuple[TaggedToken, ...] | list[TaggedToken]) -> PhraseSentiment:
        """Score a token sequence as one phrase."""
        total = 0.0
        words: list[str] = []
        negated = False
        pending_negation = False
        for token in tokens:
            lower = token.lower
            if lower in negation.NEGATION_ADVERBS or lower in negation.NEGATION_DETERMINERS:
                pending_negation = True
                negated = True
                continue
            if lower in negation.NEGATION_QUANTIFIERS and token.tag in {"JJ", "DT"}:
                # "little support", "few merits" — quantifier use only.
                pending_negation = True
                negated = True
                continue
            polarity = self._lexicon.polarity(token.text, token.tag)
            if polarity.is_polar:
                value = 1.0 if polarity is Polarity.POSITIVE else -1.0
                if pending_negation:
                    value = -value
                total += value
                words.append(lower)
            # One negator flips the rest of the phrase (scope = suffix),
            # matching the paper's phrase-reversal rule.
        if total > 0:
            polarity = Polarity.POSITIVE
        elif total < 0:
            polarity = Polarity.NEGATIVE
        else:
            polarity = Polarity.NEUTRAL
        return PhraseSentiment(
            polarity=polarity,
            score=total,
            sentiment_words=tuple(words),
            negated=negated,
        )

    def score_chunk(self, chunk: Chunk) -> PhraseSentiment:
        """Score a parser chunk (NP / ADJP / VG)."""
        return self.score_tokens(chunk.tokens)
