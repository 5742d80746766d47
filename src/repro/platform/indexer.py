"""The indexer: text-token and conceptual-token inverted indices.

"The WebFountain indexer creates indices not only from text tokens from
raw entities, but also from conceptual tokens generated by miners."

Three indices:

* :class:`InvertedIndex` — positional postings over text tokens, serving
  boolean / phrase / regex / range queries from :mod:`.query`;
* the **concept index** inside :class:`InvertedIndex` — (layer, label)
  postings built from entity annotations;
* :class:`SentimentIndex` — the mode-B product: (subject, polarity) →
  occurrences, answering "what does the web think about X?" at query time.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from ..core.model import Polarity, SentimentJudgment
from ..nlp.tokenizer import Tokenizer
from .entity import Entity
from .query import (
    And,
    Concept,
    Not,
    Or,
    Phrase,
    Query,
    Range,
    Regex,
    Term,
    parse_query,
)


#: The tokenizer every :class:`InvertedIndex` built without one shares, so
#: its split table stays warm across segments and merges.
_DEFAULT_TOKENIZER = Tokenizer()

#: Bound on each index's read memos (regex matches, live subject
#: counts); a memo is cleared wholesale when it fills.
_READ_MEMO_MAX = 64


class InvertedIndex:
    """Positional inverted index plus concept and metadata indices.

    ``mutations`` counts every write (:meth:`add_entity`,
    :meth:`remove_entity`, :meth:`absorb`); together with the object's
    identity it stamps the content, so a digest memoised against it goes
    stale exactly when the index changes.

    Regex matches are memoised per pattern against the same counter:
    a sealed segment, whose indexes never change, scans its vocabulary
    once per pattern, and any write drops the memo.  The memo's sets are
    never handed out; :meth:`search` always returns a fresh set.
    """

    def __init__(self, tokenizer: Tokenizer | None = None):
        self._tokenizer = tokenizer or _DEFAULT_TOKENIZER
        # term -> entity id -> positions.  Position tuples are
        # immutable, so absorbed and partitioned indexes share them.
        self._postings: dict[str, dict[str, tuple[int, ...]]] = defaultdict(dict)
        self._concepts: dict[tuple[str, str], set[str]] = defaultdict(set)
        self._metadata: dict[str, dict[str, float]] = defaultdict(dict)
        self._doc_ids: set[str] = set()
        self.mutations = 0
        # pattern -> matching ids, valid while ``mutations`` equals the stamp.
        self._regex_memo: dict[str, frozenset[str]] = {}
        self._regex_stamp = 0

    # -- construction ---------------------------------------------------------------

    def add_entity(self, entity: Entity) -> None:
        """Index one entity's text tokens, concepts and numeric metadata."""
        self.mutations += 1
        entity_id = entity.entity_id
        if entity_id in self._doc_ids:
            self.remove_entity(entity_id)
        self._doc_ids.add(entity_id)
        positions: dict[str, list[int]] = defaultdict(list)
        for position, term in enumerate(self._tokenizer.terms(entity.content)):
            positions[term].append(position)
        postings = self._postings
        for term, hits in positions.items():
            postings[term][entity_id] = tuple(hits)
        for layer in entity.layers():
            for annotation in entity.layer(layer):
                self._concepts[(layer, annotation.label)].add(entity_id)
                self._concepts[(layer, "")].add(entity_id)
        for key, value in entity.metadata.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self._metadata[key][entity_id] = float(value)

    def add_all(self, entities: Iterable[Entity]) -> int:
        count = 0
        for entity in entities:
            self.add_entity(entity)
            count += 1
        return count

    def remove_entity(self, entity_id: str) -> None:
        """Delete one document, pruning emptied postings as it goes.

        Pruning matters for batch/incremental equivalence: a token whose
        only document was removed must disappear from :meth:`idf_table`
        and :attr:`vocabulary_size` entirely, exactly as if the document
        had never been indexed — otherwise a build that saw a delete and
        a build that never saw the document disagree.
        """
        self.mutations += 1
        self._doc_ids.discard(entity_id)
        for token in [t for t, postings in self._postings.items() if entity_id in postings]:
            postings = self._postings[token]
            postings.pop(entity_id, None)
            if not postings:
                del self._postings[token]
        for key in [k for k, ids in self._concepts.items() if entity_id in ids]:
            ids = self._concepts[key]
            ids.discard(entity_id)
            if not ids:
                del self._concepts[key]
        for field_name in [f for f, values in self._metadata.items() if entity_id in values]:
            values = self._metadata[field_name]
            values.pop(entity_id, None)
            if not values:
                del self._metadata[field_name]

    def absorb(self, other: "InvertedIndex", skip: frozenset[str] = frozenset()) -> int:
        """Merge *other*'s documents into this index, excluding *skip* ids.

        Compaction merges a shard's segments with this: replaying another
        index's postings verbatim is byte-equivalent to re-adding the
        original entities (token positions, concepts and metadata carry
        over).  A term whose postings hold no skipped id is copied as one
        map; the rest are filtered once.  Position tuples are shared, not
        copied.  Documents already present are replaced, matching
        :meth:`add_entity` semantics.  Returns the documents absorbed.
        """
        self.mutations += 1
        absorbed = other._doc_ids - skip
        if not absorbed:
            return 0
        for entity_id in absorbed & self._doc_ids:
            self.remove_entity(entity_id)
        self._doc_ids |= absorbed
        _merge_maps(self._postings, other._postings, skip)
        for key, ids in other._concepts.items():
            kept = ids & absorbed
            if kept:
                self._concepts[key].update(kept)
        _merge_maps(self._metadata, other._metadata, skip)
        return len(absorbed)

    def partition(
        self, bucket: Callable[[str], int], parts: int
    ) -> list["InvertedIndex"]:
        """Split this index into *parts* indexes by ``bucket(entity_id)``.

        One walk over the postings, concepts and metadata routes each
        document's entries to its part, so slicing a sealed segment
        across shards costs the same whatever the shard count.  Position
        tuples are shared, not copied.
        """
        out = [InvertedIndex(self._tokenizer) for _ in range(parts)]
        home = {entity_id: out[bucket(entity_id)] for entity_id in self._doc_ids}
        for entity_id, part in home.items():
            part._doc_ids.add(entity_id)
        postings_of = {entity_id: part._postings for entity_id, part in home.items()}
        for term, postings in self._postings.items():
            for entity_id, positions in postings.items():
                postings_of[entity_id][term][entity_id] = positions
        for key, ids in self._concepts.items():
            for entity_id in ids:
                home[entity_id]._concepts[key].add(entity_id)
        for field_name, values in self._metadata.items():
            for entity_id, value in values.items():
                home[entity_id]._metadata[field_name][entity_id] = value
        return out

    # -- stats ------------------------------------------------------------------------

    @property
    def document_count(self) -> int:
        return len(self._doc_ids)

    @property
    def doc_ids(self) -> frozenset[str]:
        """The indexed document ids (for segment views and tests)."""
        return frozenset(self._doc_ids)

    @property
    def vocabulary_size(self) -> int:
        return sum(1 for postings in self._postings.values() if postings)

    def tokens(self) -> list[str]:
        """All tokens with live postings, sorted."""
        return sorted(t for t, postings in self._postings.items() if postings)

    def documents_for(self, token: str) -> set[str]:
        """Ids of documents containing *token*."""
        return set(self._postings.get(token.lower(), ()))

    def document_frequency(self, token: str) -> int:
        return len(self._postings.get(token.lower(), ()))

    def idf(self, token: str) -> float:
        """Smoothed IDF, usable as disambiguator weights."""
        df = self.document_frequency(token)
        if df == 0 or not self._doc_ids:
            return 1.0
        return math.log(len(self._doc_ids) / df) + 1.0

    def idf_table(self) -> dict[str, float]:
        """IDF per live token.

        Tokens whose postings were emptied by deletes are excluded, so a
        build that indexed-then-removed a document produces the same
        table as one that never saw it.
        """
        return {
            token: self.idf(token)
            for token in sorted(self._postings)
            if self._postings[token]
        }

    # -- query evaluation ----------------------------------------------------------------

    def search(self, query: Query | str) -> set[str]:
        """Entity ids matching the query."""
        if isinstance(query, str):
            query = parse_query(query)
        return self._evaluate(query)

    def _evaluate(self, query: Query) -> set[str]:
        if isinstance(query, Term):
            return set(self._postings.get(query.token, ()))
        if isinstance(query, Phrase):
            return self._phrase_match(query.tokens)
        if isinstance(query, And):
            return self._evaluate(query.left) & self._evaluate(query.right)
        if isinstance(query, Or):
            return self._evaluate(query.left) | self._evaluate(query.right)
        if isinstance(query, Not):
            return self._doc_ids - self._evaluate(query.operand)
        if isinstance(query, Range):
            values = self._metadata.get(query.field, {})
            return {eid for eid, v in values.items() if query.low <= v <= query.high}
        if isinstance(query, Regex):
            return set(self._regex_matches(query))
        if isinstance(query, Concept):
            return set(self._concepts.get((query.layer, query.label), ()))
        raise TypeError(f"unknown query node {type(query).__name__}")

    def _regex_matches(self, query: Regex) -> frozenset[str]:
        """Ids with a token fully matching *query*, memoised until a write."""
        memo = self._regex_memo
        if self._regex_stamp != self.mutations:
            memo.clear()
            self._regex_stamp = self.mutations
        matched = memo.get(query.pattern)
        if matched is None:
            if len(memo) >= _READ_MEMO_MAX:
                memo.clear()
            matched = memo[query.pattern] = self._scan_regex(query.compiled())
        return matched

    def _scan_regex(self, compiled: re.Pattern) -> frozenset[str]:
        """One vocabulary scan: the ids posted under every matching token."""
        postings = self._postings
        return frozenset().union(
            *map(postings.__getitem__, filter(compiled.fullmatch, postings))
        )

    def _phrase_match(self, tokens: tuple[str, ...]) -> set[str]:
        lists = [self._postings.get(token, {}) for token in tokens]
        if not lists or any(not postings for postings in lists):
            return set()
        candidates = set(lists[0])
        for postings in lists[1:]:
            candidates &= postings.keys()
        out: set[str] = set()
        for entity_id in candidates:
            following = [set(postings[entity_id]) for postings in lists[1:]]
            if any(
                all(start + offset in positions for offset, positions in enumerate(following, 1))
                for start in lists[0][entity_id]
            ):
                out.add(entity_id)
        return out


def _merge_maps(
    target: dict[str, dict[str, object]],
    source: dict[str, dict[str, object]],
    skip: frozenset[str],
) -> None:
    """Merge ``key -> entity id -> value`` maps, dropping *skip* ids.

    A source map holding no skipped id is copied whole; ``keys()``
    against *skip* walks the smaller side.  Values are shared.
    """
    for key, values in source.items():
        if not values.keys().isdisjoint(skip):
            values = {eid: value for eid, value in values.items() if eid not in skip}
        if not values:
            continue
        held = target.get(key)
        if held is None:
            target[key] = dict(values)
        else:
            held.update(values)


@dataclass(frozen=True)
class SentimentEntry:
    """One indexed sentiment occurrence."""

    subject: str
    polarity: Polarity
    entity_id: str
    start: int
    end: int


class SentimentIndex:
    """The mode-B sentiment index: offline analysis, online queries.

    "An alternative approach is to apply sentiment analysis to the entire
    corpus offline and index on them for quick query time response."

    ``mutations`` counts every write, as on :class:`InvertedIndex`, and
    stamps the memo behind :meth:`live_subject_counts` the same way.
    """

    def __init__(self):
        self._by_subject: dict[str, list[SentimentEntry]] = defaultdict(list)
        self.mutations = 0
        # mask -> live subject counts, valid while ``mutations`` equals the stamp.
        self._live_memo: dict[frozenset[str], dict[str, int]] = {}
        self._live_stamp = 0

    def add_judgment(self, judgment: SentimentJudgment) -> None:
        if not judgment.polarity.is_polar:
            return  # only polar findings are indexed
        self.mutations += 1
        entry = SentimentEntry(
            subject=judgment.subject_name,
            polarity=judgment.polarity,
            entity_id=judgment.spot.document_id,
            start=judgment.spot.start,
            end=judgment.spot.end,
        )
        self._by_subject[judgment.subject_name.lower()].append(entry)

    def add_all(self, judgments: Iterable[SentimentJudgment]) -> int:
        """Index every judgment; returns the entries added (the polar ones)."""
        count = 0
        for judgment in judgments:
            self.add_judgment(judgment)
            count += judgment.polarity.is_polar
        return count

    def add_entry(self, entry: SentimentEntry) -> None:
        """Append one pre-built entry (segment merges replay these)."""
        self.mutations += 1
        self._by_subject[entry.subject.lower()].append(entry)

    def remove_document(self, entity_id: str) -> int:
        """Drop every entry sourced from one document.

        Emptied subjects are pruned so :meth:`subjects` and
        :meth:`subject_counts` agree with a build that never indexed the
        document — the same batch/incremental equivalence contract as
        :meth:`InvertedIndex.remove_entity`.  Returns entries dropped.
        """
        self.mutations += 1
        dropped = 0
        for subject in list(self._by_subject):
            entries = self._by_subject[subject]
            kept = [e for e in entries if e.entity_id != entity_id]
            dropped += len(entries) - len(kept)
            if kept:
                self._by_subject[subject] = kept
            else:
                del self._by_subject[subject]
        return dropped

    def absorb(self, other: "SentimentIndex", skip: frozenset[str] = frozenset()) -> int:
        """Append *other*'s entries (insertion order kept), excluding *skip* docs.

        Each subject's list is filtered in one pass when there is
        anything to skip, then extended in one step.
        """
        self.mutations += 1
        count = 0
        for subject, entries in other._by_subject.items():
            if skip:
                entries = [e for e in entries if e.entity_id not in skip]
            if not entries:
                continue
            self._by_subject[subject].extend(entries)
            count += len(entries)
        return count

    def entity_ids(self) -> frozenset[str]:
        """All documents contributing at least one entry."""
        return frozenset(e.entity_id for entries in self._by_subject.values() for e in entries)

    def items(self) -> Iterator[tuple[str, list[SentimentEntry]]]:
        """(subject, entries) pairs in sorted subject order."""
        for subject in sorted(self._by_subject):
            yield subject, list(self._by_subject[subject])

    def query(self, subject: str, polarity: Polarity | None = None) -> list[SentimentEntry]:
        """All indexed sentiments about *subject* (optionally one polarity)."""
        entries = self._by_subject.get(subject.lower(), [])
        if polarity is None:
            return list(entries)
        return [e for e in entries if e.polarity is polarity]

    def counts(self, subject: str) -> dict[Polarity, int]:
        out = {Polarity.POSITIVE: 0, Polarity.NEGATIVE: 0}
        for entry in self._by_subject.get(subject.lower(), ()):
            out[entry.polarity] += 1
        return out

    def subjects(self) -> list[str]:
        """All indexed subjects, most-mentioned first.

        Ties break alphabetically so the ranking is deterministic and
        independent of judgment insertion order.
        """
        return sorted(self._by_subject, key=lambda s: (-len(self._by_subject[s]), s))

    def live_subject_counts(self, mask: frozenset[str]) -> Mapping[str, int]:
        """Subject → entries not sourced from a document in *mask*.

        Subjects with no such entry are left out.  Memoised on
        ``(mutations, mask)``, so a sealed segment read under an
        unchanged mask costs one lookup; the result is a read-only view
        of the memo, never the memo's own dict.
        """
        memo = self._live_memo
        if self._live_stamp != self.mutations:
            memo.clear()
            self._live_stamp = self.mutations
        counts = memo.get(mask)
        if counts is None:
            if len(memo) >= _READ_MEMO_MAX:
                memo.clear()
            counts = memo[mask] = {}
            for subject, entries in self._by_subject.items():
                live = sum(1 for e in entries if e.entity_id not in mask)
                if live:
                    counts[subject] = live
        return MappingProxyType(counts)

    def subject_counts(self) -> dict[str, int]:
        """Subject → mention count, for shard-level merging."""
        return {s: len(entries) for s, entries in sorted(self._by_subject.items())}

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_subject.values())

    def __iter__(self) -> Iterator[SentimentEntry]:
        for subject in sorted(self._by_subject):
            yield from self._by_subject[subject]
