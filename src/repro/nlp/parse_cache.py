"""Bounded memoisation of shallow parses, keyed on sentence signatures.

Template spam and syndicated reviews repeat the same sentences across
thousands of documents; parsing each occurrence from scratch is pure
waste.  :class:`ParseMemo` wraps a :class:`~repro.nlp.parser.ShallowParser`
with a bounded LRU keyed on the *tagged-sentence signature* — the token
texts, tags, and offsets normalised to the sentence start — so a
repeated sentence parses once no matter which document, sentence index,
or character position it reappears at.

Correctness hinges on two properties, both locked in by the
differential test harness (``tests/core/test_parse_memo.py``):

* **Shift invariance.**  The parser's logic depends only on token
  texts, tags, and *relative* offsets (negation windows are start
  deltas; chunking is index-based), so a parse computed at one document
  position is valid at any other position with the same signature.
* **No state leaks.**  The cache stores an offset-free *skeleton* —
  clause structure as token indices into the sentence — and
  materialises a fresh :class:`~repro.nlp.parser.SentenceParse` against
  the caller's actual tokens on every hit.  Nothing cached carries a
  ``document_id``, a sentence index, or a mutable object shared between
  two hits.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .parser import Clause, PrepPhrase, SentenceParse, ShallowParser
from .tokens import Chunk, TaggedSentence, TaggedToken

#: Signature of one tagged sentence: (text, tag, start − sentence start)
#: per token.  Token ``end`` is implied by ``start + len(text)``.
Signature = tuple[tuple[str, str, int], ...]


def sentence_signature(tagged: TaggedSentence) -> Signature:
    """Offset-normalised identity of a tagged sentence."""
    tokens = tagged.tokens
    base = tokens[0].token.start
    return tuple([(t.token.text, t.tag, t.token.start - base) for t in tokens])


@dataclass(frozen=True)
class _ChunkSkeleton:
    """A chunk as indices into the sentence's token list."""

    label: str
    indices: tuple[int, ...]

    def materialize(self, tokens: list[TaggedToken]) -> Chunk:
        return Chunk(self.label, tuple([tokens[i] for i in self.indices]))


@dataclass(frozen=True)
class _ClauseSkeleton:
    """One clause with every chunk reduced to token indices."""

    predicate: _ChunkSkeleton
    predicate_lemma: str
    subject: _ChunkSkeleton | None
    objects: tuple[_ChunkSkeleton, ...]
    complement: _ChunkSkeleton | None
    prep_phrases: tuple[tuple[str, _ChunkSkeleton], ...]
    negated: bool
    hypothetical: bool

    def materialize(self, tokens: list[TaggedToken]) -> Clause:
        subject = self.subject
        complement = self.complement
        return Clause(
            self.predicate.materialize(tokens),
            self.predicate_lemma,
            subject.materialize(tokens) if subject is not None else None,
            [o.materialize(tokens) for o in self.objects],
            complement.materialize(tokens) if complement is not None else None,
            [PrepPhrase(prep, np.materialize(tokens)) for prep, np in self.prep_phrases],
            self.negated,
            self.hypothetical,
        )


def _chunk_skeleton(chunk: Chunk, index_by_start: dict[int, int]) -> _ChunkSkeleton:
    return _ChunkSkeleton(
        label=chunk.label,
        indices=tuple([index_by_start[t.start] for t in chunk.tokens]),
    )


def _clause_skeleton(clause: Clause, index_by_start: dict[int, int]) -> _ClauseSkeleton:
    return _ClauseSkeleton(
        predicate=_chunk_skeleton(clause.predicate, index_by_start),
        predicate_lemma=clause.predicate_lemma,
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
        negated=clause.negated,
        hypothetical=clause.hypothetical,
    )


class ParseMemo:
    """LRU-bounded, signature-keyed parse cache around a shallow parser.

    ``maxsize <= 0`` disables caching entirely (every call parses) —
    the reference configuration for the differential harness and the
    throughput benchmark's baseline.
    """

    def __init__(self, parser: ShallowParser, maxsize: int = 128):
        self._parser = parser
        self._maxsize = maxsize
        self._cache: OrderedDict[Signature, tuple[_ClauseSkeleton, ...]] = OrderedDict()
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

    def parse(self, tagged: TaggedSentence) -> SentenceParse:
        parse, _ = self.parse_with_status(tagged)
        return parse

    def parse_with_status(self, tagged: TaggedSentence) -> tuple[SentenceParse, bool]:
        """Parse *tagged*; the flag reports whether the cache served it."""
        if self._maxsize <= 0:
            return self._parser.parse(tagged), False
        key = sentence_signature(tagged)
        skeletons = self._cache.get(key)
        if skeletons is not None:
            self.hits += 1
            self._cache.move_to_end(key)
            tokens = tagged.tokens
            clauses = [s.materialize(tokens) for s in skeletons]
            # Coordinated-subject inheritance is part of the parse and is
            # already baked into each skeleton's subject indices.
            return SentenceParse(tagged, clauses), True
        self.misses += 1
        parse = self._parser.parse(tagged)
        index_by_start = {t.start: i for i, t in enumerate(tagged.tokens)}
        self._cache[key] = tuple(
            [_clause_skeleton(clause, index_by_start) for clause in parse.clauses]
        )
        if len(self._cache) > self._maxsize:
            self._cache.popitem(last=False)
            self.evictions += 1
        return parse, False
