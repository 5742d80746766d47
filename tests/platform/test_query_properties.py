"""Property tests: ``parse_query`` round-trips ASTs through ``render_query``.

Strategies generate ASTs over alphabets the surface syntax can actually
express (no quotes inside phrases, no slashes inside regex bodies) and
assert ``parse(render(q)) == q`` — the documented contract of
:func:`repro.platform.query.render_query`.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.platform.query import (
    And,
    Concept,
    Not,
    Or,
    Phrase,
    Range,
    Regex,
    Term,
    parse_query,
    render_query,
)

pytestmark = pytest.mark.serving

_LOWER = "abcdefghijklmnopqrstuvwxyz"
_WORD = _LOWER + "0123456789_"

#: Bare tokens the lexer reads back as a single lowercase term.
tokens = st.text(alphabet=_WORD, min_size=1, max_size=8)

#: Identifier-shaped field/layer names (``[A-Za-z_][\w.]*``).
idents = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(_LOWER + "_"),
    st.text(alphabet=_WORD + ".", max_size=6),
)

finite = st.floats(allow_nan=False, allow_infinity=False)

terms = tokens.map(Term)
phrases = st.lists(tokens, min_size=2, max_size=4).map(lambda ws: Phrase(tuple(ws)))
ranges = st.builds(
    lambda field, a, b: Range(field, min(a, b), max(a, b)),
    idents,
    finite,
    finite,
)
#: Regex bodies stick to literals the lexer token can carry (no ``/``).
regexes = st.text(alphabet=_WORD + ".", min_size=1, max_size=8).map(Regex)
concepts = st.builds(Concept, idents, st.text(alphabet=_WORD, min_size=1, max_size=6))

leaves = st.one_of(terms, phrases, ranges, regexes, concepts)
queries = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Not, inner),
    ),
    max_leaves=12,
)


@settings(deadline=None)
@given(queries)
def test_parse_render_round_trip(query):
    assert parse_query(render_query(query)) == query


@settings(deadline=None)
@given(queries)
def test_render_is_a_fixed_point(query):
    rendered = render_query(query)
    assert render_query(parse_query(rendered)) == rendered


@settings(deadline=None)
@given(st.lists(tokens, min_size=2, max_size=5))
def test_unclosed_quotes_always_refused(words):
    from repro.platform.query import QueryParseError

    with pytest.raises(QueryParseError, match="unclosed quote"):
        parse_query('"' + " ".join(words))


def test_empty_label_concept_has_no_surface_form():
    with pytest.raises(ValueError, match="empty-label"):
        render_query(Concept("spot", ""))


def test_unknown_node_rejected():
    with pytest.raises(TypeError):
        render_query(object())
