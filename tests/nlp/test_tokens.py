"""Unit tests for the span/token data model."""

import copy
import pickle

import pytest

from repro.nlp.tokens import Chunk, Sentence, Span, TaggedSentence, TaggedToken, Token


def tok(text, start=0):
    return Token(text, start, start + len(text))


def ttok(text, tag, start=0):
    return TaggedToken(tok(text, start), tag)


class TestSpan:
    def test_length(self):
        assert len(Span(2, 7)) == 5

    def test_empty_span_allowed(self):
        assert len(Span(3, 3)) == 0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Span(-1, 4)

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            Span(5, 2)

    def test_contains(self):
        assert Span(0, 10).contains(Span(2, 5))
        assert Span(0, 10).contains(Span(0, 10))
        assert not Span(2, 5).contains(Span(0, 10))

    def test_overlaps(self):
        assert Span(0, 5).overlaps(Span(4, 8))
        assert not Span(0, 5).overlaps(Span(5, 8))

    def test_text_of(self):
        assert Span(4, 9).text_of("the camera works") == "camer"

    def test_ordering(self):
        assert Span(0, 3) < Span(1, 2)
        assert sorted([Span(5, 6), Span(0, 1)])[0] == Span(0, 1)


class TestToken:
    def test_span_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Token("abc", 0, 5)

    def test_properties(self):
        t = Token("Camera", 10, 16)
        assert t.lower == "camera"
        assert t.is_capitalized
        assert t.is_alpha
        assert t.span == Span(10, 16)

    def test_not_capitalized(self):
        assert not tok("camera").is_capitalized
        assert not tok("9mm").is_capitalized

    def test_tagged_token_delegates(self):
        tt = ttok("Flash", "NN", 3)
        assert tt.text == "Flash"
        assert tt.lower == "flash"
        assert tt.start == 3 and tt.end == 8


class TestSentence:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sentence([])

    def test_span_covers_tokens(self):
        s = Sentence([tok("the", 0), tok("camera", 4)])
        assert s.span == Span(0, 10)
        assert s.start == 0 and s.end == 10

    def test_iteration_and_len(self):
        s = Sentence([tok("a", 0), tok("b", 2)])
        assert len(s) == 2
        assert [t.text for t in s] == ["a", "b"]

    def test_text_of(self):
        doc = "the camera"
        s = Sentence([tok("the", 0), tok("camera", 4)])
        assert s.text_of(doc) == doc


class TestTaggedSentence:
    def test_words_and_tags(self):
        s = TaggedSentence([ttok("the", "DT", 0), ttok("camera", "NN", 4)])
        assert s.words == ["the", "camera"]
        assert s.tags == ["DT", "NN"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TaggedSentence([])


class TestChunk:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Chunk("NP", ())

    def test_text_and_head(self):
        c = Chunk("NP", (ttok("battery", "NN", 0), ttok("life", "NN", 8)))
        assert c.text == "battery life"
        assert c.lower == "battery life"
        assert c.head.text == "life"
        assert c.tags == ("NN", "NN")
        assert len(c) == 2

    def test_span(self):
        c = Chunk("NP", (ttok("battery", "NN", 4), ttok("life", "NN", 12)))
        assert c.span == Span(4, 16)


class TestSlottedTokens:
    """Token, TaggedToken and Chunk are slotted and carry derived fields.

    ``Token.lower`` and ``Chunk.span`` are computed at construction; they
    must stay out of equality, hashing and repr, and survive copying.
    """

    def test_no_instance_dict(self):
        t = tok("Camera", 2)
        for value in (t, TaggedToken(t, "NN"), Chunk("NP", (TaggedToken(t, "NN"),))):
            assert not hasattr(value, "__dict__")

    def test_frozen(self):
        t = tok("Camera", 2)
        with pytest.raises(AttributeError):
            t.lower = "other"
        with pytest.raises(AttributeError):
            Chunk("NP", (TaggedToken(t, "NN"),)).span = Span(0, 1)

    @pytest.mark.parametrize("start,end", [(3, 2), (4, 4), (2, 6)])
    def test_offsets_still_validated(self, start, end):
        with pytest.raises(ValueError):
            Token("abc", start, end)

    def test_eq_and_hash_ignore_lower(self):
        a, b = tok("Camera", 2), tok("Camera", 2)
        object.__setattr__(b, "lower", "something else")
        assert a == b and hash(a) == hash(b)
        assert "lower" not in repr(a)
        assert tok("Camera", 2) != tok("camera", 2)

    def test_eq_and_hash_ignore_span(self):
        tokens = (ttok("battery", "NN", 4), ttok("life", "NN", 12))
        a, b = Chunk("NP", tokens), Chunk("NP", tokens)
        object.__setattr__(b, "span", Span(0, 1))
        assert a == b and hash(a) == hash(b)
        assert "span" not in repr(a)

    def test_tagged_token_equality(self):
        assert ttok("Flash", "NN", 3) == ttok("Flash", "NN", 3)
        assert ttok("Flash", "NN", 3) != ttok("Flash", "VB", 3)
        assert hash(ttok("Flash", "NN", 3)) == hash(ttok("Flash", "NN", 3))

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
    def test_copy_and_pickle_round_trip(self, clone):
        t = tok("Zoom", 7)
        chunk = Chunk("NP", (ttok("the", "DT", 3), TaggedToken(t, "NN")))
        t2, tagged2, chunk2 = clone(t), clone(TaggedToken(t, "NN")), clone(chunk)
        assert t2 == t and t2.lower == "zoom"
        assert tagged2 == TaggedToken(t, "NN") and tagged2.lower == "zoom"
        assert chunk2 == chunk and chunk2.span == Span(3, 11)
