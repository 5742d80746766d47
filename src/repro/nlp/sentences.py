"""Sentence boundary detection over token streams.

The sentiment miner works on "sentiment contexts" which generally consist of
"the full sentence that contains a subject spot" (paper Section 3), so the
splitter must be reliable on review-style prose: abbreviations, decimal
numbers and quoted sentences must not create spurious boundaries.
"""

from __future__ import annotations

from collections import OrderedDict

from .tokenizer import Tokenizer
from .tokens import Sentence, Token

#: Tokens that terminate a sentence.
_TERMINATORS = frozenset({".", "!", "?"})

#: Tokens that may trail a terminator and still belong to the sentence.
_CLOSERS = frozenset({'"', "'", ")", "]", "''"})


class SentenceSplitter:
    """Split a token stream into sentences.

    The splitter is purely token-based: a sentence ends at ``.``, ``!`` or
    ``?`` (plus any trailing close-quotes/brackets) unless the period
    belongs to a known abbreviation token (the tokenizer keeps those
    attached, e.g. ``Prof.``) or the next token starts with a lowercase
    letter or digit (mid-sentence ellipsis / enumeration).

    ``memo_size`` bounds a document-level memo on :meth:`split_text`:
    token spans and sentence boundaries are a pure function of the text,
    so syndicated copies of a document tokenize once.  Cached sentences
    are materialised as fresh :class:`Sentence` objects per call (the
    frozen tokens are shared; the lists are not).  ``0`` disables the
    memo — the differential harness's reference configuration.
    """

    def __init__(self, tokenizer: Tokenizer | None = None, memo_size: int = 64):
        self._tokenizer = tokenizer or Tokenizer()
        self._memo_size = memo_size
        self._memo: OrderedDict[str, list[Sentence]] = OrderedDict()
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0

    def memo_stats(self) -> dict[str, int]:
        """Plain counters for registry mirroring (nlp stays obs-free)."""
        return {
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "evictions": self.memo_evictions,
            "size": len(self._memo),
            "maxsize": self._memo_size,
        }

    def split(self, tokens: list[Token]) -> list[Sentence]:
        """Group *tokens* into :class:`Sentence` objects."""
        sentences: list[Sentence] = []
        current: list[Token] = []
        i = 0
        n = len(tokens)
        while i < n:
            token = tokens[i]
            current.append(token)
            if self._ends_sentence(tokens, i):
                # Absorb trailing closers (quotes, brackets).
                while i + 1 < n and tokens[i + 1].text in _CLOSERS:
                    i += 1
                    current.append(tokens[i])
                sentences.append(Sentence(current, index=len(sentences)))
                current = []
            i += 1
        if current:
            sentences.append(Sentence(current, index=len(sentences)))
        return sentences

    def split_text(self, text: str) -> list[Sentence]:
        """Tokenize *text* and split into sentences in one call."""
        if self._memo_size <= 0:
            return self.split(self._tokenizer.tokenize(text))
        cached = self._memo.get(text)
        if cached is None:
            self.memo_misses += 1
            cached = self.split(self._tokenizer.tokenize(text))
            self._memo[text] = cached
            if len(self._memo) > self._memo_size:
                self._memo.popitem(last=False)
                self.memo_evictions += 1
        else:
            self.memo_hits += 1
            self._memo.move_to_end(text)
        return [Sentence(list(s.tokens), index=s.index) for s in cached]

    # -- internals ----------------------------------------------------------

    def _ends_sentence(self, tokens: list[Token], i: int) -> bool:
        # Only a bare terminator ends a sentence: the tokenizer keeps an
        # abbreviation's period attached ("Inc."), so those never do.
        if tokens[i].text not in _TERMINATORS:
            return False
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if nxt is not None and (nxt.text[0].islower() or nxt.text[0].isdigit()):
            # "etc. and so on" / enumerations do not end the sentence.
            return False
        return True


_DEFAULT = SentenceSplitter()


def split_sentences(text: str) -> list[Sentence]:
    """Split *text* into sentences with the default splitter."""
    return _DEFAULT.split_text(text)
