"""Unit tests for the shallow parser's role assignment."""

import pytest

from repro.nlp.parser import ShallowParser
from repro.nlp.postagger import PosTagger
from repro.nlp.sentences import split_sentences

_TAGGER = PosTagger(
    extra_lexicon={
        "excellent": "JJ",
        "vibrant": "JJ",
        "mediocre": "JJ",
        "sharp": "JJ",
        "functional": "JJ",
        "flawless": "JJ",
    }
)
_PARSER = ShallowParser()


def parse_one(text):
    (sentence,) = split_sentences(text)
    return _PARSER.parse(_TAGGER.tag(sentence))


def main_clause(text):
    parsed = parse_one(text)
    assert parsed.main_clause is not None, text
    return parsed.main_clause


class TestPredicates:
    def test_simple_predicate(self):
        assert main_clause("The camera works.").predicate_lemma == "work"

    def test_passive_predicate_lemma(self):
        assert main_clause("I am impressed by the picture quality.").predicate_lemma == "impress"

    def test_copula(self):
        clause = main_clause("The colors are vibrant.")
        assert clause.predicate_lemma == "be"
        assert clause.is_copular

    def test_modal_chain_predicate(self):
        assert main_clause("The flash will not work.").predicate_lemma == "work"

    def test_no_verb_no_clause(self):
        assert parse_one("What a camera!").clauses == []


class TestSubjects:
    def test_simple_subject(self):
        assert main_clause("The camera takes excellent pictures.").subject.text == "The camera"

    def test_pronoun_subject(self):
        assert main_clause("I love the zoom.").subject.text == "I"

    def test_subject_skips_pp_attachment(self):
        clause = main_clause("The support in the NR70 series is functional.")
        assert clause.subject.text == "The support"

    def test_coordinated_clause_inherits_subject(self):
        parsed = parse_one("The zoom is fast and works well.")
        assert len(parsed.clauses) == 2
        assert parsed.clauses[1].subject.text == "The zoom"


class TestObjectsAndComplements:
    def test_direct_object(self):
        clause = main_clause("The company offers mediocre services.")
        assert clause.object.text == "mediocre services"

    def test_adjectival_complement(self):
        clause = main_clause("The colors are vibrant.")
        assert clause.complement.text == "vibrant"
        assert clause.objects == []

    def test_nominal_complement_with_copula(self):
        clause = main_clause("The NR70 is an excellent camera.")
        assert clause.complement.text == "an excellent camera"

    def test_coordinated_adjective_complement(self):
        clause = main_clause("The support is well implemented and functional.")
        assert clause.complement is not None
        assert "functional" in clause.complement.text


class TestPrepPhrases:
    def test_pp_capture(self):
        clause = main_clause("I am impressed by the picture quality.")
        pp = clause.prep_phrase("by", "with")
        assert pp is not None
        assert pp.noun_phrase.text == "the picture quality"

    def test_pp_lookup_miss(self):
        clause = main_clause("I am impressed by the picture quality.")
        assert clause.prep_phrase("at") is None

    def test_pp_text(self):
        clause = main_clause("It comes with a lens.")
        assert clause.prep_phrases[0].text == "with a lens"

    def test_multiple_pps(self):
        clause = main_clause("It ships with a lens in a box.")
        preps = [pp.preposition for pp in clause.prep_phrases]
        assert preps == ["with", "in"]


class TestNegation:
    def test_contraction_negation(self):
        assert main_clause("The flash doesn't work.").negated

    def test_not_negation(self):
        assert main_clause("The flash does not work.").negated

    def test_never_negation(self):
        assert main_clause("The flash never works.").negated

    def test_no_negation(self):
        assert not main_clause("The flash works.").negated

    def test_hardly(self):
        assert main_clause("The battery hardly lasts an hour.").negated

    def test_determiner_no_negates_through_the_object(self):
        # Paper Section 4.2: "has no flaws" negates the predicate through
        # its object.  Found via lint DEAD001 — NEGATIVE_DETERMINERS was
        # defined but never consulted by is_negated.
        assert main_clause("The camera has no flaws.").negated

    def test_determiner_no_negates_from_the_subject(self):
        assert main_clause("No feature works.").negated

    def test_plain_object_is_not_negated(self):
        assert not main_clause("The camera has flaws.").negated


class TestClauseSegmentation:
    def test_but_splits_clauses(self):
        parsed = parse_one("The zoom is fast, but the flash is weak.")
        assert len(parsed.clauses) == 2
        assert parsed.clauses[0].subject.text == "The zoom"
        assert parsed.clauses[1].subject.text == "the flash"

    def test_coordinated_adjectives_not_split(self):
        parsed = parse_one("The zoom is fast and sharp.")
        assert len(parsed.clauses) == 1

    def test_because_clause(self):
        parsed = parse_one("I love it because the pictures are flawless.")
        assert len(parsed.clauses) == 2
        assert parsed.clauses[1].subject.text == "the pictures"

    def test_relative_clause(self):
        parsed = parse_one("The camera, which I bought, works.")
        lemmas = [c.predicate_lemma for c in parsed.clauses]
        assert "buy" in lemmas and "work" in lemmas


class TestClauseLookup:
    def test_clause_covering_finds_subject_clause(self):
        parsed = parse_one("The zoom is fast, but the flash is weak.")
        (sentence,) = split_sentences("The zoom is fast, but the flash is weak.")
        text = "The zoom is fast, but the flash is weak."
        start = text.index("flash")
        clause = parsed.clause_covering(start, start + len("flash"))
        assert clause is parsed.clauses[1]

    def test_clause_covering_miss(self):
        parsed = parse_one("The zoom is fast.")
        assert parsed.clause_covering(900, 910) is None
