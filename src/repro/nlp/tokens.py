"""Core token and span data structures shared across the NLP substrate.

Every stage of the pipeline (tokenizer, tagger, chunker, parser, and the
WebFountain-style miners) exchanges these types.  Character offsets always
refer to the *original* document text, which lets miners annotate entities
without ever mutating the raw text — the WebFountain contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True, order=True)
class Span:
    """A half-open character interval ``[start, end)`` in a document."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        """Return True when *other* lies entirely inside this span."""
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Span") -> bool:
        """Return True when the two spans share at least one character."""
        return self.start < other.end and other.start < self.end

    def text_of(self, document: str) -> str:
        """Slice this span out of *document*."""
        return document[self.start : self.end]


@dataclass(frozen=True, slots=True)
class Token:
    """A single token with its surface form and source offsets.

    ``lower`` is derived from ``text`` once, at construction: the tagger,
    parser and analyzer read it many times per token.
    """

    text: str
    start: int
    end: int
    lower: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.end - self.start != len(self.text):
            raise ValueError(
                f"token text {self.text!r} does not fit span [{self.start}, {self.end})"
            )
        object.__setattr__(self, "lower", self.text.lower())

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)

    @property
    def is_capitalized(self) -> bool:
        """True when the first character is an uppercase letter."""
        return bool(self.text) and self.text[0].isupper()

    @property
    def is_alpha(self) -> bool:
        return self.text.isalpha()


@dataclass(frozen=True, slots=True)
class TaggedToken:
    """A token paired with its Penn Treebank part-of-speech tag."""

    token: Token
    tag: str

    @property
    def text(self) -> str:
        return self.token.text

    @property
    def lower(self) -> str:
        return self.token.lower

    @property
    def start(self) -> int:
        return self.token.start

    @property
    def end(self) -> int:
        return self.token.end

    @property
    def span(self) -> Span:
        return self.token.span

    @property
    def is_capitalized(self) -> bool:
        return self.token.is_capitalized

    @property
    def is_alpha(self) -> bool:
        return self.token.is_alpha


@dataclass
class Sentence:
    """A sentence: an ordered run of tokens plus its own span.

    ``index`` is the zero-based position of the sentence in the document,
    used by the sentiment context window rules to pull in neighbouring
    sentences.
    """

    tokens: list[Token]
    index: int = 0

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("a sentence must contain at least one token")

    @property
    def span(self) -> Span:
        return Span(self.tokens[0].start, self.tokens[-1].end)

    @property
    def start(self) -> int:
        return self.tokens[0].start

    @property
    def end(self) -> int:
        return self.tokens[-1].end

    def text_of(self, document: str) -> str:
        return self.span.text_of(document)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)


@dataclass
class TaggedSentence:
    """A sentence whose tokens carry POS tags."""

    tokens: list[TaggedToken]
    index: int = 0

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("a tagged sentence must contain at least one token")

    @property
    def span(self) -> Span:
        return Span(self.tokens[0].start, self.tokens[-1].end)

    @property
    def words(self) -> list[str]:
        return [t.text for t in self.tokens]

    @property
    def tags(self) -> list[str]:
        return [t.tag for t in self.tokens]

    def text_of(self, document: str) -> str:
        return self.span.text_of(document)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[TaggedToken]:
        return iter(self.tokens)


@dataclass(frozen=True, slots=True)
class Chunk:
    """A contiguous phrase chunk (e.g. a base noun phrase or verb group).

    ``label`` is a phrase category such as ``NP`` or ``VG``; ``tokens`` are
    the tagged tokens covered by the chunk, in order.  ``span`` is derived
    from the first and last token once, at construction.
    """

    label: str
    tokens: tuple[TaggedToken, ...]
    span: Span = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("a chunk must cover at least one token")
        tokens = self.tokens
        object.__setattr__(self, "span", Span(tokens[0].start, tokens[-1].end))

    @property
    def text(self) -> str:
        """Surface form with single spaces (not offset-faithful)."""
        return " ".join(t.text for t in self.tokens)

    @property
    def lower(self) -> str:
        return self.text.lower()

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(t.tag for t in self.tokens)

    @property
    def head(self) -> TaggedToken:
        """Head token: the last token of the chunk (right-headed phrases)."""
        return self.tokens[-1]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[TaggedToken]:
        return iter(self.tokens)
