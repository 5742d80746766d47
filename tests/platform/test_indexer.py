"""Unit tests for the inverted index and the sentiment index."""

import pytest

from repro.core.model import Polarity, SentimentJudgment, Spot, Subject
from repro.nlp.tokens import Span
from repro.platform.entity import Annotation, Entity
from repro.platform.indexer import InvertedIndex, SentimentIndex
from repro.platform.query import Concept, parse_query


def corpus():
    docs = {
        "d1": "The camera takes excellent pictures in daylight.",
        "d2": "The battery drains fast. The camera is heavy.",
        "d3": "Picture quality matters more than megapixels.",
        "d4": "The NR70 and NR80 are PDAs.",
    }
    entities = []
    for eid, content in docs.items():
        e = Entity(entity_id=eid, content=content, metadata={"year": int(eid[1]) + 2000})
        entities.append(e)
    return entities


@pytest.fixture()
def index():
    idx = InvertedIndex()
    idx.add_all(corpus())
    return idx


class TestBooleanSearch:
    def test_term(self, index):
        assert index.search("camera") == {"d1", "d2"}

    def test_term_case_folded(self, index):
        assert index.search("CAMERA") == {"d1", "d2"}

    def test_and(self, index):
        assert index.search("camera AND battery") == {"d2"}

    def test_or(self, index):
        assert index.search("battery OR pictures") == {"d1", "d2"}

    def test_not(self, index):
        assert index.search("NOT camera") == {"d3", "d4"}

    def test_compound(self, index):
        assert index.search("camera AND NOT battery") == {"d1"}

    def test_miss(self, index):
        assert index.search("zeppelin") == set()


class TestPhraseSearch:
    def test_phrase_hit(self, index):
        assert index.search('"excellent pictures"') == {"d1"}

    def test_phrase_requires_adjacency(self, index):
        assert index.search('"pictures excellent"') == set()

    def test_phrase_crossing_docs_empty(self, index):
        assert index.search('"battery quality"') == set()


class TestRegexAndRange:
    def test_regex_matches_tokens(self, index):
        assert index.search(r"re:/NR\d+/") == {"d4"}

    def test_range_over_metadata(self, index):
        assert index.search("year:[2001 TO 2002]") == {"d1", "d2"}

    def test_range_miss(self, index):
        assert index.search("year:[1990 TO 1991]") == set()


class TestConceptIndex:
    def test_concept_tokens_searchable(self):
        idx = InvertedIndex()
        e = Entity(entity_id="d1", content="The camera rocks.")
        e.annotate(Annotation.make("spot", 4, 10, label="camera"))
        idx.add_entity(e)
        assert idx.search(Concept("spot", "camera")) == {"d1"}
        assert idx.search(Concept("spot", "")) == {"d1"}
        assert idx.search(Concept("spot", "zoom")) == set()

    def test_concept_query_via_parser(self):
        idx = InvertedIndex()
        e = Entity(entity_id="d1", content="Good stuff here.")
        e.annotate(Annotation.make("sentiment", 0, 4, label="+"))
        idx.add_entity(e)
        assert idx.search(parse_query("sentiment:+")) == {"d1"}


class TestIndexMaintenance:
    def test_reindex_replaces(self, index):
        updated = Entity(entity_id="d1", content="Completely different words now.")
        index.add_entity(updated)
        assert "d1" not in index.search("camera")
        assert index.search("different") == {"d1"}

    def test_remove_entity(self, index):
        index.remove_entity("d2")
        assert index.search("battery") == set()
        assert index.document_count == 3

    def test_document_count(self, index):
        assert index.document_count == 4

    def test_document_frequency(self, index):
        assert index.document_frequency("camera") == 2
        assert index.document_frequency("zeppelin") == 0

    def test_idf_ordering(self, index):
        assert index.idf("camera") < index.idf("battery")

    def test_idf_unknown_is_one(self, index):
        assert index.idf("zeppelin") == 1.0

    def test_vocabulary_size_positive(self, index):
        assert index.vocabulary_size > 10


def judgment(subject, polarity, doc_id="d1", start=0, end=5):
    return SentimentJudgment(
        spot=Spot(
            subject=Subject(subject),
            term=subject,
            span=Span(start, end),
            sentence_index=0,
            document_id=doc_id,
        ),
        polarity=polarity,
    )


class TestSentimentIndex:
    def test_add_and_query(self):
        idx = SentimentIndex()
        idx.add_judgment(judgment("NR70", Polarity.POSITIVE))
        idx.add_judgment(judgment("NR70", Polarity.NEGATIVE, doc_id="d2"))
        assert len(idx.query("NR70")) == 2
        assert len(idx.query("NR70", Polarity.POSITIVE)) == 1

    def test_query_case_insensitive(self):
        idx = SentimentIndex()
        idx.add_judgment(judgment("NR70", Polarity.POSITIVE))
        assert len(idx.query("nr70")) == 1

    def test_neutral_judgments_not_indexed(self):
        idx = SentimentIndex()
        idx.add_judgment(judgment("NR70", Polarity.NEUTRAL))
        assert len(idx) == 0

    def test_counts(self):
        idx = SentimentIndex()
        for _ in range(3):
            idx.add_judgment(judgment("zoom", Polarity.POSITIVE))
        idx.add_judgment(judgment("zoom", Polarity.NEGATIVE))
        counts = idx.counts("zoom")
        assert counts[Polarity.POSITIVE] == 3
        assert counts[Polarity.NEGATIVE] == 1

    def test_subjects_sorted_by_mentions(self):
        idx = SentimentIndex()
        idx.add_judgment(judgment("rare", Polarity.POSITIVE))
        for _ in range(4):
            idx.add_judgment(judgment("popular", Polarity.POSITIVE))
        assert idx.subjects() == ["popular", "rare"]

    def test_add_all_returns_indexed_count(self):
        idx = SentimentIndex()
        n = idx.add_all(
            [judgment("a", Polarity.POSITIVE), judgment("b", Polarity.NEUTRAL)]
        )
        assert n == 1

    def test_add_all_counts_entries_added_to_a_populated_index(self):
        idx = SentimentIndex()
        idx.add_judgment(judgment("a", Polarity.POSITIVE))
        batch = [
            judgment("a", Polarity.NEGATIVE, doc_id="d2"),
            judgment("b", Polarity.NEUTRAL, doc_id="d2"),
            judgment("b", Polarity.POSITIVE, doc_id="d3"),
            judgment("c", Polarity.NEUTRAL, doc_id="d3"),
            judgment("a", Polarity.POSITIVE, doc_id="d4"),
        ]
        before = len(idx)
        n = idx.add_all(iter(batch))  # a one-shot iterable is enough
        assert n == len(idx) - before == 3

    def test_iteration(self):
        idx = SentimentIndex()
        idx.add_judgment(judgment("b", Polarity.POSITIVE))
        idx.add_judgment(judgment("a", Polarity.NEGATIVE))
        assert [e.subject for e in idx] == ["a", "b"]

    def test_subject_ranking_breaks_ties_alphabetically(self):
        idx = SentimentIndex()
        # Insert in an order that disagrees with the alphabet: the
        # ranking must not depend on insertion order.
        for subject in ("zoom", "flash", "battery"):
            idx.add_judgment(judgment(subject, Polarity.POSITIVE))
            idx.add_judgment(judgment(subject, Polarity.NEGATIVE, doc_id="d2"))
        idx.add_judgment(judgment("aperture", Polarity.POSITIVE))
        assert idx.subjects() == ["battery", "flash", "zoom", "aperture"]

    def test_subject_counts_for_shard_merging(self):
        idx = SentimentIndex()
        idx.add_judgment(judgment("zoom", Polarity.POSITIVE))
        idx.add_judgment(judgment("zoom", Polarity.NEGATIVE, doc_id="d2"))
        idx.add_judgment(judgment("flash", Polarity.POSITIVE))
        assert idx.subject_counts() == {"flash": 1, "zoom": 2}
