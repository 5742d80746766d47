"""The tokenizer's and tagger's per-word-type tables change speed only.

``Tokenizer`` keeps a table from regex match to its split and
``PosTagger`` one from ``(text, position == 0)`` to the lexical tag.
Served from those tables, both must equal the direct computation
(``_split_raw`` per match, ``_lexical_tag`` per token) on any text —
including the material the corpus generators never produce: unicode
punctuation, clitics, abbreviations, and capitalised unknown words at
and after the sentence start.  A table that reaches its bound is
cleared, so it never grows past the bound and outputs do not change.
``Tokenizer.terms`` reads the same table and must equal the lowered
texts of ``tokenize`` on the same material, plus whitespace-only text.
"""

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.postagger import PosTagger
from repro.nlp.sentences import SentenceSplitter
from repro.nlp.tokenizer import _WORD_RE, Tokenizer
from repro.nlp.tokens import Token

_WORDS = tuple(
    "the camera works well great flash lens price battery impressed "
    "disappointed sharper happiest quickly it I they he".split()
)
_CLITICS = ("don't", "doesn't", "it's", "Sony's", "they'll", "I'm", "we've", "rock'n'roll", "o'clock", "'tis")
_ABBREVIATIONS = ("Inc.", "U.S.", "e.g.", "Dr.", "J.", "Corp.", "etc.", "approx.", "config.", "vs.")
_PUNCTUATION = ("—", "–", "…", "“", "”", "‘", "’", "«", "»", "¿", "¡", "•", "€", ".", ",", "!", "?", "(", ")", "--", '"')
_NUMBERS = ("3.5", "1,000", "72GB", "NR70", "x335", "add-on", "state-of-the-art")

#: Capitalised and lower-case unknown words, so the lexical stage's
#: capitalisation and suffix rules run at position 0 and later.
_unknown = st.from_regex(r"[A-Z][a-z]{2,9}(s|ed|ing|ly|ness)?", fullmatch=True) | st.from_regex(
    r"[a-z]{3,10}(er|est|able)?", fullmatch=True
)

_piece = st.sampled_from(_WORDS + _CLITICS + _ABBREVIATIONS + _PUNCTUATION + _NUMBERS) | _unknown
_separator = st.sampled_from((" ", " ", " ", "", "  ", "\n", " "))


@st.composite
def prose(draw, max_pieces=40):
    pieces = draw(st.lists(_piece, min_size=1, max_size=max_pieces))
    out = []
    for piece in pieces:
        out.append(piece)
        out.append(draw(_separator))
    return "".join(out)


def direct_tokens(tokenizer, text):
    """Every regex match split from scratch, bypassing the table."""
    return [
        token
        for match in _WORD_RE.finditer(text)
        for token in tokenizer._split_raw(match.group(), match.start())
    ]


def direct_tags(tagger, tokens):
    """Lexical tags computed per token, then the contextual rules."""
    lexical = [tagger._lexical_tag(token, i) for i, token in enumerate(tokens)]
    return tuple(tagger._apply_context_rules(tokens, lexical))


def assert_same_token(got, want):
    """Equal in the fields ``==`` leaves out too, and after a copy or pickle."""
    assert got == want and got.lower == want.lower and hash(got) == hash(want)
    for clone in (copy.copy(got), pickle.loads(pickle.dumps(got))):
        assert clone == want and clone.lower == want.lower and hash(clone) == hash(want)


class TestTokenizerTable:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(prose(), min_size=1, max_size=4))
    def test_table_equals_direct_split(self, texts):
        tokenizer = Tokenizer(extra_abbreviations={"config."})
        for text in texts + texts:  # the second pass is served from the table
            tokens = tokenizer.tokenize(text)
            assert tokens == direct_tokens(tokenizer, text)
            for token in tokens:
                assert_same_token(token, Token(token.text, token.start, token.end))

    def test_table_is_per_instance(self):
        plain, extended = Tokenizer(), Tokenizer(extra_abbreviations={"config."})
        assert [t.text for t in plain.tokenize("config.")] == ["config", "."]
        assert [t.text for t in extended.tokenize("config.")] == ["config."]
        assert [t.text for t in plain.tokenize("config.")] == ["config", "."]

    def test_bound_clears_and_keeps_outputs(self):
        bounded, reference = Tokenizer(), Tokenizer()
        bounded._SPLIT_TABLE_MAX = 8
        words = [f"Word{i}'s" for i in range(50)] + ["Inc.", "U.S.", "don't"]
        for word in words + words:
            text = f"{word} rose…"
            assert bounded.tokenize(text) == reference.tokenize(text)
            assert len(bounded._splits) <= 8
        assert len(reference._splits) > 8


#: Material for :meth:`Tokenizer.terms` beyond :func:`prose`: trailing
#: apostrophes, initials and dotted acronyms, comma and decimal numbers.
_TERM_PIECES = (
    "dogs'", "James'", "rock'n'roll", "don't", "can't", "'", "''",
    "J. R. R.", "I.B.M.", "NASA", "Ph.D.", "a.m.", "U.S.A.", "St.", "No.",
    "1,234.56", "3,5", "0.5", ",000", "1,000,000", "12.", "4.5GB", "1.2.3",
    "“quoted”", "‘single’", "naïve", "café", "ß", "İ", "…", "\u00a0",
)
_whitespace = st.text(alphabet=" \t\n\r\u00a0\u2003", max_size=6)


@st.composite
def term_text(draw):
    pieces = draw(
        st.lists(st.sampled_from(_TERM_PIECES) | prose(max_pieces=6) | _whitespace, max_size=12)
    )
    return draw(_separator).join(pieces)


def lowered(tokenizer, text):
    return [token.lower for token in tokenizer.tokenize(text)]


class TestTokenizerTerms:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(term_text() | st.text(max_size=40) | _whitespace, min_size=1, max_size=4))
    def test_terms_equal_lowered_tokens(self, texts):
        tokenizer, reference = Tokenizer(), Tokenizer()
        for text in texts + texts:  # the second pass is served from the table
            assert tokenizer.terms(text) == lowered(reference, text)

    def test_empty_and_whitespace_only(self):
        tokenizer = Tokenizer()
        for text in ("", " ", "\n\t ", "\u00a0\u2003"):
            assert tokenizer.terms(text) == lowered(tokenizer, text) == []

    def test_terms_share_the_bounded_table(self):
        bounded, reference = Tokenizer(), Tokenizer()
        bounded._SPLIT_TABLE_MAX = 8
        words = [f"Word{i}'s" for i in range(50)] + ["Inc.", "U.S.", "don't"]
        for word in words + words:
            text = f"{word} rose 1,000.5…"
            assert bounded.terms(text) == lowered(reference, text)
            assert len(bounded._splits) <= 8
            assert bounded.tokenize(text) == reference.tokenize(text)
        assert len(reference._splits) > 8


class TestTaggerTable:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(prose(), min_size=1, max_size=4))
    def test_table_equals_direct_lexical_tags(self, texts):
        tagger = PosTagger(memo_size=0)
        splitter = SentenceSplitter(Tokenizer(), memo_size=0)
        for text in texts + texts:
            for sentence in splitter.split_text(text):
                tags = [t.tag for t in tagger.tag(sentence)]
                assert tuple(tags) == direct_tags(tagger, sentence.tokens)
        for (text, initial), tag in tagger._lexical_tags.items():
            token = Token(text, 0, len(text))
            assert tag == tagger._lexical_tag(token, 0 if initial else 1)

    def test_position_is_part_of_the_key(self):
        # An unknown capitalised word is NNP mid-sentence; sentence-initially
        # it goes through the suffix rules instead.
        tagger = PosTagger()
        splitter = SentenceSplitter(Tokenizer())
        [first] = splitter.split_text("Zorbling praised Zorbling.")
        tags = [t.tag for t in tagger.tag(first)]
        assert tags[0] == "VBG" and tags[2] == "NNP"
        assert tagger._lexical_tags[("Zorbling", True)] == "VBG"
        assert tagger._lexical_tags[("Zorbling", False)] == "NNP"

    def test_table_is_per_instance(self):
        splitter = SentenceSplitter(Tokenizer())
        [sentence] = splitter.split_text("It was zorblax.")
        plain = PosTagger()
        extended = PosTagger(extra_lexicon={"zorblax": "JJ"})
        assert [t.tag for t in plain.tag(sentence)][2] == "NN"
        assert [t.tag for t in extended.tag(sentence)][2] == "JJ"
        assert [t.tag for t in plain.tag(sentence)][2] == "NN"
        assert plain._lexical_tags[("zorblax", False)] == "NN"
        assert extended._lexical_tags[("zorblax", False)] == "JJ"

    def test_bound_clears_and_keeps_outputs(self):
        bounded, reference = PosTagger(memo_size=0), PosTagger(memo_size=0)
        bounded._LEXICAL_TABLE_MAX = 8
        splitter = SentenceSplitter(Tokenizer())
        texts = [f"Quarv{i} praised the zorbling{i} quickly." for i in range(30)]
        for text in texts + texts:
            for sentence in splitter.split_text(text):
                assert bounded.tag(sentence) == reference.tag(sentence)
                assert len(bounded._lexical_tags) <= 8
        assert len(reference._lexical_tags) > 8
