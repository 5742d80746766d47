"""Unit tests for the query language parser."""

import pytest

from repro.platform.query import (
    And,
    Concept,
    Not,
    Or,
    Phrase,
    QueryParseError,
    Range,
    Regex,
    Term,
    parse_query,
    render_query,
)


class TestAtoms:
    def test_bare_term_lowercased(self):
        assert parse_query("Camera") == Term("camera")

    def test_phrase(self):
        assert parse_query('"picture quality"') == Phrase(("picture", "quality"))

    def test_single_word_phrase_is_term(self):
        assert parse_query('"camera"') == Term("camera")

    def test_regex(self):
        node = parse_query(r"re:/NR\d+/")
        assert isinstance(node, Regex)
        assert node.compiled().fullmatch("NR70")

    def test_bad_regex_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("re:/(/")

    def test_range(self):
        assert parse_query("year:[2003 TO 2005]") == Range("year", 2003.0, 2005.0)

    def test_bad_range_body(self):
        with pytest.raises(QueryParseError):
            parse_query("year:[2003]")

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            Range("year", 5, 1)

    def test_concept(self):
        assert parse_query("sentiment:+") == Concept("sentiment", "+")
        assert parse_query("spot:camera") == Concept("spot", "camera")


class TestBooleanStructure:
    def test_and(self):
        assert parse_query("a AND b") == And(Term("a"), Term("b"))

    def test_implicit_and(self):
        assert parse_query("a b") == And(Term("a"), Term("b"))

    def test_or(self):
        assert parse_query("a OR b") == Or(Term("a"), Term("b"))

    def test_not(self):
        assert parse_query("NOT a") == Not(Term("a"))

    def test_precedence_and_binds_tighter(self):
        node = parse_query("a OR b AND c")
        assert node == Or(Term("a"), And(Term("b"), Term("c")))

    def test_parentheses_override(self):
        node = parse_query("(a OR b) AND c")
        assert node == And(Or(Term("a"), Term("b")), Term("c"))

    def test_nested(self):
        node = parse_query('camera AND (battery OR "picture quality") AND NOT tripod')
        assert isinstance(node, And)
        assert isinstance(node.right, Not)

    def test_left_associative_and_chain(self):
        node = parse_query("a AND b AND c")
        assert node == And(And(Term("a"), Term("b")), Term("c"))


class TestErrors:
    def test_empty_query(self):
        with pytest.raises(QueryParseError):
            parse_query("")

    def test_unbalanced_paren(self):
        with pytest.raises(QueryParseError):
            parse_query("(a AND b")

    def test_dangling_operator(self):
        with pytest.raises(QueryParseError):
            parse_query("a AND")

    def test_stray_close_paren(self):
        with pytest.raises(QueryParseError):
            parse_query("a )")

    def test_phrase_must_be_nonempty(self):
        with pytest.raises(QueryParseError):
            parse_query('""')

    def test_bracketed_body_is_always_a_range(self):
        # There is no spherical query: ``near:[lat,lon,radius]`` is read
        # as a range over a ``near`` field and refused for its body.
        with pytest.raises(QueryParseError, match="bad range body"):
            parse_query("near:[48.86,2.35,50]")


class TestLexerHardening:
    def test_unclosed_quote_rejected(self):
        with pytest.raises(QueryParseError, match="unclosed quote"):
            parse_query('"picture quality')

    def test_unclosed_quote_mid_query_rejected(self):
        with pytest.raises(QueryParseError, match="unclosed quote"):
            parse_query('camera AND "battery life')

    def test_empty_regex_body_rejected(self):
        with pytest.raises(QueryParseError, match="re://"):
            parse_query("re://")

    def test_closed_quotes_still_lex(self):
        assert parse_query('"picture quality"') == Phrase(("picture", "quality"))

    def test_regex_compiled_is_memoised(self):
        node = Regex(r"nr\d+")
        first = node.compiled()
        assert node.compiled() is first
        # The cache never leaks into equality or hashing.
        assert node == Regex(r"nr\d+")
        assert hash(node) == hash(Regex(r"nr\d+"))


class TestRendering:
    def test_round_trip_of_compound_query(self):
        text = 'camera AND (battery OR "picture quality") AND NOT tripod'
        node = parse_query(text)
        assert parse_query(render_query(node)) == node

    def test_round_trip_of_range_and_regex(self):
        for text in ("year:[2003 TO 2005]", r"re:/nr\d+/", "spot:NR70"):
            node = parse_query(text)
            assert parse_query(render_query(node)) == node
