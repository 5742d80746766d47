"""Sanity tests over the raw lexicon data modules."""

from repro.lexicons import adjectives, adverbs, negation, nouns, patterns, verbs
from repro.core.patterns import parse_pattern_line


class TestAdjectives:
    def test_no_overlap_between_polarities(self):
        overlap = set(adjectives.POSITIVE_ADJECTIVES) & set(adjectives.NEGATIVE_ADJECTIVES)
        assert overlap == set()

    def test_scale(self):
        assert len(adjectives.POSITIVE_ADJECTIVES) >= 500
        assert len(adjectives.NEGATIVE_ADJECTIVES) >= 500

    def test_all_lowercase_no_spaces(self):
        for word in adjectives.POSITIVE_ADJECTIVES + adjectives.NEGATIVE_ADJECTIVES:
            assert word == word.lower()
            assert " " not in word

    def test_entries_shape(self):
        for term, pos, symbol in adjectives.entries():
            assert pos == "JJ"
            assert symbol in "+-"


class TestNouns:
    def test_no_overlap(self):
        assert set(nouns.POSITIVE_NOUNS) & set(nouns.NEGATIVE_NOUNS) == set()

    def test_scale_below_500(self):
        # Paper: "less than 500 nouns".
        total = len(nouns.POSITIVE_NOUNS) + len(nouns.NEGATIVE_NOUNS)
        assert 100 <= total <= 500


class TestVerbs:
    def test_no_overlap(self):
        assert set(verbs.POSITIVE_VERBS) & set(verbs.NEGATIVE_VERBS) == set()

    def test_trans_verbs_carry_no_polarity(self):
        trans = set(verbs.TRANS_VERBS)
        assert trans & set(verbs.POSITIVE_VERBS) == set()
        assert trans & set(verbs.NEGATIVE_VERBS) == set()

    def test_paper_trans_examples_present(self):
        assert "be" in verbs.TRANS_VERBS
        assert "offer" in verbs.TRANS_VERBS


class TestAdverbs:
    def test_no_overlap(self):
        assert set(adverbs.POSITIVE_ADVERBS) & set(adverbs.NEGATIVE_ADVERBS) == set()


class TestNegation:
    def test_paper_negators_present(self):
        # "not, no, never, hardly, seldom, or little"
        assert "not" in negation.NEGATION_ADVERBS
        assert "never" in negation.NEGATION_ADVERBS
        assert "hardly" in negation.NEGATION_ADVERBS
        assert "seldom" in negation.NEGATION_ADVERBS
        assert "no" in negation.NEGATION_DETERMINERS
        assert "little" in negation.NEGATION_QUANTIFIERS

    def test_is_negator(self):
        assert "not" in negation.ALL_NEGATORS
        assert "n't" in negation.ALL_NEGATORS
        assert "very" not in negation.ALL_NEGATORS


class TestPatternData:
    def test_all_lines_parse(self):
        for line in patterns.pattern_lines():
            parse_pattern_line(line)

    def test_no_duplicate_lines(self):
        lines = patterns.pattern_lines()
        assert len(lines) == len(set(lines))

    def test_verb_class_disjointness(self):
        classes = [
            set(patterns.PSYCH_VERBS_POSITIVE),
            set(patterns.PSYCH_VERBS_NEGATIVE),
            set(patterns.EXPERIENCER_VERBS_POSITIVE),
            set(patterns.EXPERIENCER_VERBS_NEGATIVE),
        ]
        for i, a in enumerate(classes):
            for b in classes[i + 1 :]:
                assert a & b == set()

    def test_psych_verbs_are_sentiment_verbs(self):
        known = set(verbs.POSITIVE_VERBS) | set(verbs.NEGATIVE_VERBS)
        for verb in patterns.PSYCH_VERBS_POSITIVE + patterns.PSYCH_VERBS_NEGATIVE:
            assert verb in known, verb


class TestLexiconPatternConsistency:
    """Regression tests for lexicon bugs surfaced by ``repro lint``.

    The paper (Section 4.2) requires every pattern-DB entry's predicate
    to be a verb lemma the analyzer can recognise; predicates outside
    the verb lexicon produce patterns that can never fire.
    """

    def test_mistrust_is_a_negative_verb(self):
        # Bug: "mistrust" generated experiencer patterns ("mistrust - OP")
        # but had no polarity entry, so "I mistrust this vendor" scored
        # neutral.  Paper Section 4.2 lists verbs with inherent negative
        # sentiment; mistrust is one (cf. "trust" on the positive side).
        assert "mistrust" in verbs.NEGATIVE_VERBS
        assert "trust" in verbs.POSITIVE_VERBS

    def test_every_pattern_predicate_is_in_the_verb_lexicon(self):
        known = (
            set(verbs.POSITIVE_VERBS)
            | set(verbs.NEGATIVE_VERBS)
            | set(verbs.TRANS_VERBS)
        )
        missing = sorted(
            {line.split()[0] for line in patterns.pattern_lines()} - known
        )
        assert missing == [], missing

    def test_no_hyphenated_predicates(self):
        # Bug: "bring-about" can never match a single parsed verb lemma;
        # the tokenizer yields "bring" and "about" separately, and
        # "bring OP SP" already covers the lemma.
        for line in patterns.pattern_lines():
            assert "-" not in line.split()[0], line

    def test_trans_verbs_cover_pattern_helper_classes(self):
        trans = set(verbs.TRANS_VERBS)
        for verb in (
            patterns.COPULAR_PATTERN_VERBS
            + patterns.OBJECT_TO_SUBJECT_VERBS
            + patterns.FUNCTION_VERBS
            + patterns.INVERTING_VERBS
            + patterns.CAUSATIVE_VERBS
            + patterns.JUDGMENT_VERBS
            + list(patterns.PP_TO_SUBJECT_VERBS)
        ):
            assert verb in trans, verb
