"""Bounded memoisation of shallow parses, keyed on what the parser reads.

Prose repeats a small stock of sentence *shapes* under ever-changing
words: "The zoom works well." and "The battery drains quickly." are
both ``DT NN VBZ RB .``, and the shallow parser gives them the same
clause structure.  :class:`ParseMemo` wraps a
:class:`~repro.nlp.parser.ShallowParser` with one bounded LRU keyed on
that shape, so a sentence parses once per shape, not once per text.

**The key** carries exactly what the parser reads, per token:

* the Penn tag — chunking, segmentation and role assignment are tag
  rules;
* the lowercased text, when the parser reads the word itself:
  clause-break words (which include "if"/"unless"/"whether", the
  hypothetical openers), negators and the determiner "no", ``,`` ``;``
  ``:``, every IN/TO word, which becomes
  :attr:`~repro.nlp.parser.PrepPhrase.preposition`, and every modal,
  the lemma of a modal-only verb group;
* for any other verb (``VB*``), whether its lemma under the parser's
  own lemmatizer is copular.  The parser makes a post-verbal NP the
  complement of a copular clause and the object of any other, so "The
  camera looks a bargain." and "The camera takes a picture." share a
  tag sequence but not a parse.  The lemma is computed once per verb
  word type into a bounded table, and the bit read from it.

Offsets are not in the key: the parser uses them only to order tokens,
which the token index already does.

**On a hit** the memo materialises a fresh
:class:`~repro.nlp.parser.SentenceParse` against the caller's tokens
from an offset-free *skeleton*: chunks as token indices, the clause
structure, preposition strings and ``hypothetical``.  The chunks are
built without re-validating their spans: the indices come from a parse
of the same shape, so each span is valid by construction.  Two fields
read open-class text and are looked up or recomputed for the caller:

* ``predicate_lemma``, read from the verb-lemma table for the
  predicate's head verb, which the key just looked up.  A head the table
  does not hold — a modal, a word whose text the key records, or one
  lost when the table was cleared — goes through
  :meth:`ShallowParser.predicate_lemma`;
* ``negated``, by :meth:`ShallowParser.is_negated` over the clause's
  segment, kept as a token-index range — its 24-character window
  depends on offsets and on the lengths of open-class words.  A segment
  without a negator stores no range and is never negated.

Nothing cached carries a ``document_id``, a sentence index, or a mutable
object shared between two hits.  ``tests/core/test_parse_memo.py``
checks hits against fresh parses.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from . import penn
from .parser import (
    CLAUSE_BREAK_WORDS,
    COPULAR_VERBS,
    NEGATIVE_ADVERBS,
    NEGATIVE_DETERMINERS,
    Clause,
    PrepPhrase,
    SentenceParse,
    ShallowParser,
    is_negator,
)
from .tokens import Chunk, TaggedSentence, TaggedToken, _chunk

#: One token's share of a shape: its tag, ``(tag, lowercased text)`` for
#: a word the parser reads, or ``(tag, copular)`` for a verb.
ShapePart = str | tuple[str, str] | tuple[str, bool]
Shape = tuple[ShapePart, ...]

#: Words whose text the parser reads whatever their tag.
_READ_WORDS = CLAUSE_BREAK_WORDS | NEGATIVE_ADVERBS | NEGATIVE_DETERMINERS | {",", ";", ":"}
#: Tags whose text the parser reads: an IN/TO word becomes a
#: preposition string, and a modal is the lemma of a modal-only group.
_TEXT_TAGS = frozenset({"IN", "TO", "MD"})


@dataclass(frozen=True)
class _ChunkSkeleton:
    """A chunk as indices into the sentence's token list."""

    label: str
    indices: tuple[int, ...]

    def materialize(self, tokens: list[TaggedToken]) -> Chunk:
        return _chunk(self.label, tuple([tokens[i] for i in self.indices]))


@dataclass(frozen=True)
class _ClauseSkeleton:
    """One clause with every chunk reduced to token indices.

    ``head`` is the token index of the predicate's last verb, whose
    lemma is the clause's, or None for a group without one (a modal).
    ``negation_scope`` is the clause segment's token range when that
    segment holds a negator, else None (the clause is not negated).
    """

    predicate: _ChunkSkeleton
    head: int | None
    subject: _ChunkSkeleton | None
    objects: tuple[_ChunkSkeleton, ...]
    complement: _ChunkSkeleton | None
    prep_phrases: tuple[tuple[str, _ChunkSkeleton], ...]
    negation_scope: tuple[int, int] | None
    hypothetical: bool

    def materialize(
        self, tokens: list[TaggedToken], parser: ShallowParser, verb_lemmas: dict[str, str]
    ) -> Clause:
        subject = self.subject
        complement = self.complement
        predicate = self.predicate.materialize(tokens)
        head = self.head
        lemma = verb_lemmas.get(tokens[head].token.lower) if head is not None else None
        if lemma is None:
            lemma = parser.predicate_lemma(predicate)
        scope = self.negation_scope
        return Clause(
            predicate,
            lemma,
            subject.materialize(tokens) if subject is not None else None,
            [o.materialize(tokens) for o in self.objects],
            complement.materialize(tokens) if complement is not None else None,
            [PrepPhrase(prep, np.materialize(tokens)) for prep, np in self.prep_phrases],
            scope is not None and parser.is_negated(tokens[scope[0] : scope[1]], predicate),
            self.hypothetical,
        )


def _chunk_skeleton(chunk: Chunk, index_by_start: dict[int, int]) -> _ChunkSkeleton:
    return _ChunkSkeleton(
        label=chunk.label,
        indices=tuple([index_by_start[t.start] for t in chunk.tokens]),
    )


def _clause_skeleton(
    clause: Clause,
    segment: tuple[int, int],
    tokens: list[TaggedToken],
    index_by_start: dict[int, int],
) -> _ClauseSkeleton:
    verbs = [t for t in clause.predicate.tokens if t.tag in penn.VERB_TAGS]
    return _ClauseSkeleton(
        predicate=_chunk_skeleton(clause.predicate, index_by_start),
        head=index_by_start[verbs[-1].start] if verbs else None,
        subject=(
            _chunk_skeleton(clause.subject, index_by_start) if clause.subject else None
        ),
        objects=tuple([_chunk_skeleton(o, index_by_start) for o in clause.objects]),
        complement=(
            _chunk_skeleton(clause.complement, index_by_start)
            if clause.complement
            else None
        ),
        prep_phrases=tuple(
            [
                (pp.preposition, _chunk_skeleton(pp.noun_phrase, index_by_start))
                for pp in clause.prep_phrases
            ]
        ),
        negation_scope=(
            segment if any(map(is_negator, tokens[segment[0] : segment[1]])) else None
        ),
        hypothetical=clause.hypothetical,
    )


class ParseMemo:
    """LRU-bounded, shape-keyed parse cache around a shallow parser.

    ``maxsize <= 0`` disables caching entirely (every call parses) —
    the reference configuration for the differential harness and the
    throughput benchmark's baseline.
    """

    #: Verb-lemma table bound; the table is cleared wholesale when it fills.
    _VERB_LEMMA_TABLE_MAX = 4096

    def __init__(self, parser: ShallowParser, maxsize: int = 128):
        self._parser = parser
        self._maxsize = maxsize
        self._cache: OrderedDict[Shape, tuple[_ClauseSkeleton, ...]] = OrderedDict()
        # Lowercased verb form -> its lemma.  A verb's lemma depends on
        # its text, not on which VB* tag it carries.
        self._verb_lemmas: dict[str, str] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def memo_stats(self) -> dict[str, int]:
        """Plain counters for registry mirroring (nlp stays obs-free)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._cache),
            "maxsize": self._maxsize,
        }

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()

    def shape(self, tagged: TaggedSentence) -> Shape:
        """The memo key of *tagged*: what the parser reads of each token."""
        lemmas = self._verb_lemmas
        parts: list[ShapePart] = []
        for tok in tagged.tokens:
            tag = tok.tag
            lower = tok.token.lower
            if lower in _READ_WORDS or tag in _TEXT_TAGS:
                # The text fixes the lemma too, so it subsumes the copular bit.
                parts.append((tag, lower))
            elif tag in penn.VERB_TAGS:
                lemma = lemmas.get(lower)
                if lemma is None:
                    lemma = self._parser.head_lemma(tok)
                    if len(lemmas) >= self._VERB_LEMMA_TABLE_MAX:
                        lemmas.clear()
                    lemmas[lower] = lemma
                parts.append((tag, lemma in COPULAR_VERBS))
            else:
                parts.append(tag)
        return tuple(parts)

    def parse(self, tagged: TaggedSentence) -> SentenceParse:
        parse, _ = self.parse_with_status(tagged)
        return parse

    def parse_with_status(self, tagged: TaggedSentence) -> tuple[SentenceParse, bool]:
        """Parse *tagged*; the flag reports whether the cache served it."""
        parser = self._parser
        if self._maxsize <= 0:
            return parser.parse(tagged), False
        key = self.shape(tagged)
        tokens = tagged.tokens
        skeletons = self._cache.get(key)
        if skeletons is not None:
            self.hits += 1
            self._cache.move_to_end(key)
            # Coordinated-subject inheritance is part of the parse and is
            # already baked into each skeleton's subject indices.
            lemmas = self._verb_lemmas
            clauses = [s.materialize(tokens, parser, lemmas) for s in skeletons]
            return SentenceParse(tagged, clauses), True
        self.misses += 1
        clauses = parser.parse_clauses(tagged)
        index_by_start = {t.start: i for i, t in enumerate(tokens)}
        self._cache[key] = tuple(
            [
                _clause_skeleton(clause, segment, tokens, index_by_start)
                for clause, segment in clauses
            ]
        )
        if len(self._cache) > self._maxsize:
            self._cache.popitem(last=False)
            self.evictions += 1
        return SentenceParse(tagged, [clause for clause, _ in clauses]), False
