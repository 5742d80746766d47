"""Query language for the indexer.

"The indexer supports multiple indices for various query types including
boolean, range, regular expression ... and other complex query types."

This module defines the query AST and a small recursive-descent parser
for a Lucene-ish surface syntax::

    camera AND (battery OR flash) AND NOT tripod
    "picture quality"                      # phrase
    year:[2003 TO 2005]                    # metadata range
    re:/NR\\d+/                            # regular expression over tokens
    sentiment:+                            # conceptual token (layer:label)

Evaluation lives in :mod:`repro.platform.indexer`; the AST nodes are plain
data so they can be built programmatically too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class Query:
    """Marker base class for AST nodes."""


@dataclass(frozen=True)
class Term(Query):
    """Single-token match (case-folded)."""

    token: str


@dataclass(frozen=True)
class Phrase(Query):
    """Consecutive-token match."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("phrase must contain at least one token")


@dataclass(frozen=True)
class And(Query):
    left: Query
    right: Query


@dataclass(frozen=True)
class Or(Query):
    left: Query
    right: Query


@dataclass(frozen=True)
class Not(Query):
    operand: Query


@dataclass(frozen=True)
class Range(Query):
    """Numeric metadata range, inclusive on both ends."""

    field: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError("range low must not exceed high")


@dataclass(frozen=True)
class Regex(Query):
    """Regular-expression match against individual tokens.

    Compiled case-insensitively because the index folds tokens to
    lowercase.
    """

    pattern: str

    def compiled(self) -> re.Pattern:
        """Compiled pattern, memoised per node.

        The cache lives in ``__dict__`` (not a field), so it bypasses the
        frozen-dataclass ``__setattr__`` and never affects equality or
        hashing; evaluation over large vocabularies no longer recompiles
        the pattern once per index scan.
        """
        cached = self.__dict__.get("_compiled")
        if cached is None:
            cached = re.compile(self.pattern, re.IGNORECASE)
            self.__dict__["_compiled"] = cached
        return cached


@dataclass(frozen=True)
class Concept(Query):
    """Conceptual-token match: ``layer`` + optional ``label``.

    Conceptual tokens are annotations produced by miners ("spot",
    "sentiment", ...), indexed alongside text tokens.
    """

    layer: str
    label: str = ""


class QueryParseError(ValueError):
    """Raised on malformed query strings."""


_TOKEN_RE = re.compile(
    r"""
    \s*(
        \(|\)
        |AND\b|OR\b|NOT\b
        |"[^"]*"
        |re:/(?:[^/\\]|\\.)*/
        |[A-Za-z_][\w.]*:\[[^\]]*\]
        |[A-Za-z_][\w.]*:[\w+-]+
        |[^\s()"]+
    )
    """,
    re.VERBOSE,
)


def _lex(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            if remainder.startswith('"'):
                # A bare quote means the quoted-phrase alternative failed:
                # the quote was never closed.  Refuse instead of silently
                # lexing '"abc' as a term.
                raise QueryParseError(f"unclosed quote at: {remainder!r}")
            raise QueryParseError(f"cannot lex query at: {remainder!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive descent over: or_expr := and_expr (OR and_expr)* ..."""

    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._pos = 0

    def parse(self) -> Query:
        if not self._tokens:
            raise QueryParseError("empty query")
        node = self._or_expr()
        if self._pos != len(self._tokens):
            raise QueryParseError(f"unexpected token {self._tokens[self._pos]!r}")
        return node

    def _peek(self) -> str | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _advance(self) -> str:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _or_expr(self) -> Query:
        node = self._and_expr()
        while self._peek() == "OR":
            self._advance()
            node = Or(node, self._and_expr())
        return node

    def _and_expr(self) -> Query:
        node = self._unary()
        while True:
            nxt = self._peek()
            if nxt == "AND":
                self._advance()
                node = And(node, self._unary())
            elif nxt is not None and nxt not in {")", "OR"}:
                # Implicit AND between adjacent terms.
                node = And(node, self._unary())
            else:
                return node

    def _unary(self) -> Query:
        token = self._peek()
        if token is None:
            raise QueryParseError("unexpected end of query")
        if token == "NOT":
            self._advance()
            return Not(self._unary())
        return self._atom()

    def _atom(self) -> Query:
        token = self._advance()
        if token == "(":
            node = self._or_expr()
            if self._peek() != ")":
                raise QueryParseError("missing closing parenthesis")
            self._advance()
            return node
        if token == ")":
            raise QueryParseError("unexpected ')'")
        if token.startswith('"'):
            words = token.strip('"').split()
            if not words:
                raise QueryParseError("empty phrase")
            if len(words) == 1:
                return Term(words[0].lower())
            return Phrase(tuple(w.lower() for w in words))
        if token.startswith("re:/") and token.endswith("/"):
            pattern = token[4:-1]
            if not pattern:
                raise QueryParseError("empty regex body: re://")
            try:
                re.compile(pattern)
            except re.error as exc:
                raise QueryParseError(f"bad regex: {exc}") from exc
            return Regex(pattern)
        range_match = re.match(r"^([A-Za-z_][\w.]*):\[([^\]]*)\]$", token)
        if range_match:
            field, body = range_match.groups()
            parts = re.split(r"\s+TO\s+", body.strip())
            if len(parts) != 2:
                raise QueryParseError(f"bad range body {body!r}")
            try:
                low, high = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise QueryParseError(f"non-numeric range bounds {body!r}") from exc
            return Range(field, low, high)
        concept_match = re.match(r"^([A-Za-z_][\w.]*):([\w+-]+)$", token)
        if concept_match:
            layer, label = concept_match.groups()
            return Concept(layer, label)
        return Term(token.lower())


def parse_query(text: str) -> Query:
    """Parse a query string into an AST."""
    return _Parser(_lex(text)).parse()


def render_query(query: Query) -> str:
    """Render an AST back to surface syntax.

    Boolean operators are fully parenthesised, so the output is not
    always the shortest form, but ``parse_query(render_query(q)) == q``
    holds for any AST the parser itself can produce (the property the
    round-trip tests exercise).
    """
    if isinstance(query, Term):
        return query.token
    if isinstance(query, Phrase):
        return '"' + " ".join(query.tokens) + '"'
    if isinstance(query, And):
        return f"({render_query(query.left)} AND {render_query(query.right)})"
    if isinstance(query, Or):
        return f"({render_query(query.left)} OR {render_query(query.right)})"
    if isinstance(query, Not):
        return f"(NOT {render_query(query.operand)})"
    if isinstance(query, Range):
        return f"{query.field}:[{query.low!r} TO {query.high!r}]"
    if isinstance(query, Regex):
        return f"re:/{query.pattern}/"
    if isinstance(query, Concept):
        if not query.label:
            raise ValueError("an empty-label Concept has no surface form")
        return f"{query.layer}:{query.label}"
    raise TypeError(f"unknown query node {type(query).__name__}")
