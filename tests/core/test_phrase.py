"""Unit tests for phrase-level polarity with negation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lexicon import default_lexicon
from repro.core.model import Polarity
from repro.core.phrase import PhraseScorer
from repro.nlp.tokens import Chunk, TaggedToken, Token


@pytest.fixture(scope="module")
def scorer():
    return PhraseScorer(default_lexicon())


def phrase(*pairs):
    """Build a token tuple from (word, tag) pairs."""
    tokens = []
    offset = 0
    for word, tag in pairs:
        tokens.append(TaggedToken(Token(word, offset, offset + len(word)), tag))
        offset += len(word) + 1
    return tuple(tokens)


class TestBasicPolarity:
    def test_paper_example_excellent_pictures(self, scorer):
        # "excellent pictures (JJ NN) is a positive sentiment phrase"
        result = scorer.score_tokens(phrase(("excellent", "JJ"), ("pictures", "NNS")))
        assert result.polarity is Polarity.POSITIVE
        assert "excellent" in result.sentiment_words

    def test_negative_adjective(self, scorer):
        result = scorer.score_tokens(phrase(("mediocre", "JJ"), ("services", "NNS")))
        assert result.polarity is Polarity.NEGATIVE

    def test_neutral_phrase(self, scorer):
        result = scorer.score_tokens(phrase(("the", "DT"), ("camera", "NN")))
        assert result.polarity is Polarity.NEUTRAL
        assert result.sentiment_words == ()

    def test_sentiment_noun(self, scorer):
        result = scorer.score_tokens(phrase(("a", "DT"), ("total", "JJ"), ("failure", "NN")))
        assert result.polarity is Polarity.NEGATIVE

    def test_mixed_majority_wins(self, scorer):
        result = scorer.score_tokens(
            phrase(("excellent", "JJ"), ("pictures", "NNS"), ("despite", "IN"),
                   ("annoying", "JJ"), ("noisy", "JJ"), ("software", "NN"))
        )
        assert result.polarity is Polarity.NEGATIVE  # 1 positive vs 2 negative

    def test_balanced_is_neutral(self, scorer):
        result = scorer.score_tokens(phrase(("good", "JJ"), ("bad", "JJ")))
        assert result.polarity is Polarity.NEUTRAL
        assert result.score == 0.0


class TestNegation:
    def test_not_reverses(self, scorer):
        result = scorer.score_tokens(phrase(("not", "RB"), ("excellent", "JJ")))
        assert result.polarity is Polarity.NEGATIVE
        assert result.negated

    def test_no_reverses(self, scorer):
        # "no problems" is a positive statement.
        result = scorer.score_tokens(phrase(("no", "DT"), ("problems", "NNS")))
        assert result.polarity is Polarity.POSITIVE

    def test_never_hardly_seldom(self, scorer):
        for negator in ("never", "hardly", "seldom"):
            result = scorer.score_tokens(phrase((negator, "RB"), ("reliable", "JJ")))
            assert result.polarity is Polarity.NEGATIVE, negator

    def test_little_as_quantifier(self, scorer):
        result = scorer.score_tokens(phrase(("little", "JJ"), ("support", "NN")))
        assert result.polarity is Polarity.NEGATIVE

    def test_negation_scope_is_suffix(self, scorer):
        # "excellent but not reliable" — "excellent" is outside the scope.
        result = scorer.score_tokens(
            phrase(("excellent", "JJ"), ("but", "CC"), ("not", "RB"), ("reliable", "JJ"))
        )
        # +1 then -1 -> neutral overall; negation seen.
        assert result.score == 0.0
        assert result.negated

    def test_double_sentiment_after_negator_both_flip(self, scorer):
        result = scorer.score_tokens(
            phrase(("no", "DT"), ("annoying", "JJ"), ("defects", "NNS"))
        )
        assert result.polarity is Polarity.POSITIVE
        assert result.score == 2.0


class TestWeightedMode:
    """Phrases are scored unweighted (paper §4.2): one vote per hit."""

    def test_unweighted_ignores_intensifiers(self, scorer):
        result = scorer.score_tokens(phrase(("very", "RB"), ("good", "JJ")))
        assert result.score == 1.0


class TestChunkScoring:
    def test_score_chunk(self, scorer):
        chunk = Chunk("NP", phrase(("excellent", "JJ"), ("pictures", "NNS")))
        assert scorer.score_chunk(chunk).polarity is Polarity.POSITIVE


class TestProperties:
    words = st.lists(
        st.sampled_from(
            [("excellent", "JJ"), ("terrible", "JJ"), ("camera", "NN"), ("not", "RB"),
             ("the", "DT"), ("failure", "NN"), ("superb", "JJ"), ("no", "DT")]
        ),
        min_size=1,
        max_size=8,
    )

    @given(words)
    def test_polarity_matches_score_sign(self, pairs):
        scorer = PhraseScorer(default_lexicon())
        result = scorer.score_tokens(phrase(*pairs))
        if result.score > 0:
            assert result.polarity is Polarity.POSITIVE
        elif result.score < 0:
            assert result.polarity is Polarity.NEGATIVE
        else:
            assert result.polarity is Polarity.NEUTRAL

    @given(words)
    def test_deterministic(self, pairs):
        scorer = PhraseScorer(default_lexicon())
        a = scorer.score_tokens(phrase(*pairs))
        b = scorer.score_tokens(phrase(*pairs))
        assert a == b
