"""Reference (naive) hot-path implementations for differential testing.

The production pipeline runs an Aho–Corasick subject spotter and
bounded split/tag/parse memos.  Each of those is an *optimization* of a
simpler implementation whose semantics define correctness.  This module
keeps the simple implementations alive so tests and benchmarks can
assert, input by input, that the optimized path is byte-identical to
the reference path:

* :class:`ReferenceSubjectSpotter` — the original n-gram window scanner
  (one dict probe per (position, length) pair), sharing the production
  ``compile_terms`` table so the collision policy (first subject wins)
  is part of the common contract;
* :func:`reference_analyzer` — a :class:`SentimentAnalyzer` with its
  split, tag and parse memos disabled, so every sentence is tagged and
  parsed from scratch;
* :func:`reference_miner` — a mode-A :class:`SentimentMiner` wired to
  both of the above; drive it with ``mine_corpus`` for the full
  reference run.

:class:`SentimentMiner` has one engine for both modes, so the
reference miner runs the same stage loop as the production one.  Its
independence rests on the naive spotter and the disabled memos, not on
a second loop; the loop itself is pinned by the golden fixtures and by
the batch-split properties in
``tests/integration/test_batch_equivalence.py``.
"""

from __future__ import annotations

from repro.core.analyzer import SentimentAnalyzer
from repro.core.disambiguation import Disambiguator
from repro.core.miner import SentimentMiner
from repro.core.model import Spot, Subject
from repro.core.spotting import TermCollision, compile_terms
from repro.nlp.tokens import Sentence, Span, Token
from repro.obs import Obs


class ReferenceSubjectSpotter:
    """The historical n-gram subject spotter, kept verbatim as the oracle.

    Matching is case-insensitive over token n-grams, longest term first
    at each position, greedy left to right, non-overlapping.  Any change
    to the production spotter's observable behaviour must show up as a
    diff against this implementation.
    """

    def __init__(self, subjects: list[Subject]):
        self._subjects = list(subjects)
        self._by_term, self._collisions = compile_terms(self._subjects)
        self._max_len = max((len(k) for k in self._by_term), default=0)

    @property
    def subjects(self) -> list[Subject]:
        return list(self._subjects)

    @property
    def collisions(self) -> list[TermCollision]:
        return list(self._collisions)

    def spot_sentence(self, sentence: Sentence, document_id: str = "") -> list[Spot]:
        spots: list[Spot] = []
        tokens = sentence.tokens
        i = 0
        n = len(tokens)
        while i < n:
            match = self._longest_match(tokens, i)
            if match is None:
                i += 1
                continue
            length, subject = match
            span = Span(tokens[i].start, tokens[i + length - 1].end)
            term = " ".join(t.text for t in tokens[i : i + length])
            spots.append(
                Spot(
                    subject=subject,
                    term=term,
                    span=span,
                    sentence_index=sentence.index,
                    document_id=document_id,
                )
            )
            i += length
        return spots

    def spot_document(self, sentences: list[Sentence], document_id: str = "") -> list[Spot]:
        spots: list[Spot] = []
        for sentence in sentences:
            spots.extend(self.spot_sentence(sentence, document_id))
        return spots

    def _longest_match(self, tokens: list[Token], i: int) -> tuple[int, Subject] | None:
        limit = min(self._max_len, len(tokens) - i)
        for length in range(limit, 0, -1):
            key = tuple(tokens[i + k].lower for k in range(length))
            subject = self._by_term.get(key)
            if subject is not None:
                return length, subject
        return None


def reference_analyzer(obs: Obs | None = None, **kwargs) -> SentimentAnalyzer:
    """An analyzer with all hot-path memoisation off: every sentence is
    tagged and parsed from scratch on every occurrence."""
    kwargs.setdefault("parse_memo_size", 0)
    kwargs.setdefault("tag_memo_size", 0)
    kwargs.setdefault("split_memo_size", 0)
    return SentimentAnalyzer(obs=obs, **kwargs)


def reference_miner(
    subjects: list[Subject],
    obs: Obs | None = None,
    disambiguator: Disambiguator | None = None,
) -> SentimentMiner:
    """A mode-A miner on the fully naive path (n-gram spotter, no memo)."""
    return SentimentMiner(
        subjects=subjects,
        analyzer=reference_analyzer(obs=obs),
        disambiguator=disambiguator,
        obs=obs,
        spotter=ReferenceSubjectSpotter(subjects),
    )

