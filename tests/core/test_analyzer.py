"""Unit tests for the sentiment analyzer — the paper's worked examples."""

import pytest

from repro.core.analyzer import SentimentAnalyzer
from repro.core.model import Polarity, Subject
from repro.obs import Obs


@pytest.fixture(scope="module")
def analyzer():
    return SentimentAnalyzer()


def judge(analyzer, text, *names):
    subjects = [Subject(n) for n in names]
    return {j.subject_name: j.polarity for j in analyzer.analyze_text(text, subjects)}


class TestPaperExamples:
    def test_impress_passive_pp(self, analyzer):
        # Paper: "I am impressed by the flash capabilities." → (flash capability, +)
        out = judge(analyzer, "I am impressed by the flash capabilities.", "flash capabilities")
        assert out["flash capabilities"] is Polarity.POSITIVE

    def test_take_op_sp(self, analyzer):
        # Paper: "This camera takes excellent pictures." → (camera, +)
        out = judge(analyzer, "This camera takes excellent pictures.", "camera")
        assert out["camera"] is Polarity.POSITIVE

    def test_be_cp_sp(self, analyzer):
        # Paper: "The colors are vibrant." → colors +
        out = judge(analyzer, "The colors are vibrant.", "colors")
        assert out["colors"] is Polarity.POSITIVE

    def test_offer_positive(self, analyzer):
        out = judge(analyzer, "The company offers high quality products.", "company")
        assert out["company"] is Polarity.POSITIVE

    def test_offer_negative(self, analyzer):
        out = judge(analyzer, "The company offers mediocre services.", "company")
        assert out["company"] is Polarity.NEGATIVE

    def test_picture_is_flawless(self, analyzer):
        # Paper's positive-polarity example sentence.
        out = judge(analyzer, "The picture is flawless.", "picture")
        assert out["picture"] is Polarity.POSITIVE

    def test_product_fails_to_meet(self, analyzer):
        # Paper's negative-polarity example sentence.
        out = judge(
            analyzer, "The product fails to meet our quality expectations.", "product"
        )
        assert out["product"] is Polarity.NEGATIVE


class TestNegationHandling:
    def test_verb_phrase_negation_reverses(self, analyzer):
        out = judge(analyzer, "The camera does not take excellent pictures.", "camera")
        assert out["camera"] is Polarity.NEGATIVE

    def test_negated_copula(self, analyzer):
        out = judge(analyzer, "The colors are not vibrant.", "colors")
        assert out["colors"] is Polarity.NEGATIVE

    def test_never_disappoints(self, analyzer):
        out = judge(analyzer, "The camera never disappoints.", "camera")
        assert out["camera"] is Polarity.POSITIVE

    def test_negation_verb_fails_to(self, analyzer):
        out = judge(analyzer, "The camera fails to impress.", "camera")
        assert out["camera"] is Polarity.NEGATIVE

    def test_stopped_working(self, analyzer):
        out = judge(analyzer, "The camera stopped working.", "camera")
        assert out["camera"] is Polarity.NEGATIVE

    def test_negation_off_ablation(self):
        plain = SentimentAnalyzer(handle_negation=False)
        out = judge(plain, "The camera does not take excellent pictures.", "camera")
        assert out["camera"] is Polarity.POSITIVE  # wrong on purpose

    def test_determiner_negation_in_subject(self, analyzer):
        # Paper Section 4.2: "no" acts at a determiner position.
        out = judge(analyzer, "No part of the lens is flimsy.", "lens")
        assert out["lens"] is Polarity.POSITIVE

    def test_determiner_negation_in_subject_of_intransitive(self, analyzer):
        out = judge(analyzer, "No feature works.", "feature")
        assert out["feature"] is Polarity.NEGATIVE

    def test_determiner_negation_in_object_not_double_counted(self, analyzer):
        # The phrase scorer already flips "no flaws" to positive; the
        # clause-level negation must not flip it back.
        out = judge(analyzer, "The camera has no flaws.", "camera")
        assert out["camera"] is Polarity.POSITIVE


class TestTargetAssociation:
    def test_multiple_subjects_distinct_polarity(self, analyzer):
        text = "Unlike the T series CLIEs, the NR70 offers superb playback."
        out = judge(analyzer, text, "NR70", "T series CLIEs")
        assert out["NR70"] is Polarity.POSITIVE
        assert out["T series CLIEs"] is Polarity.NEGATIVE

    def test_subject_in_other_clause_not_contaminated(self, analyzer):
        text = "The zoom is superb, but the flash is terrible."
        out = judge(analyzer, text, "zoom", "flash")
        assert out["zoom"] is Polarity.POSITIVE
        assert out["flash"] is Polarity.NEGATIVE

    def test_bystander_subject_is_neutral(self, analyzer):
        # "software" is mentioned but the sentiment targets "update".
        text = "The update fixes the annoying bug in the software."
        out = judge(analyzer, text, "update", "software")
        assert out["update"] is Polarity.POSITIVE
        assert out["software"] is Polarity.NEUTRAL

    def test_subject_with_pp_attachment_covered(self, analyzer):
        text = "The support in the NR70 series is functional."
        out = judge(analyzer, text, "NR70 series", "support")
        assert out["NR70 series"] is Polarity.POSITIVE
        assert out["support"] is Polarity.POSITIVE

    def test_experiencer_object_target(self, analyzer):
        out = judge(analyzer, "Reviewers recommend the camera.", "camera")
        assert out["camera"] is Polarity.POSITIVE

    def test_psych_verb_active_subject_target(self, analyzer):
        out = judge(analyzer, "The battery life disappointed everyone.", "battery life")
        assert out["battery life"] is Polarity.NEGATIVE


class TestNeutralCases:
    def test_factual_sentence_neutral(self, analyzer):
        out = judge(analyzer, "The camera is black.", "camera")
        assert out["camera"] is Polarity.NEUTRAL

    def test_unknown_predicate_neutral(self, analyzer):
        out = judge(analyzer, "The camera weighs ten ounces.", "camera")
        assert out["camera"] is Polarity.NEUTRAL

    def test_no_spot_no_judgment(self, analyzer):
        assert analyzer.analyze_text("The zoom is great.", [Subject("flash")]) == []


class TestAblations:
    def test_patterns_off_uses_whole_sentence(self):
        lexicon_only = SentimentAnalyzer(use_patterns=False)
        # Collocation-style behaviour: any sentiment word colours all spots.
        text = "The update fixes the annoying bug in the software."
        out = judge(lexicon_only, text, "software")
        assert out["software"] is Polarity.NEGATIVE  # "annoying"+"bug" dominate

    def test_patterns_off_neutral_without_sentiment(self):
        lexicon_only = SentimentAnalyzer(use_patterns=False)
        out = judge(lexicon_only, "The camera is black.", "camera")
        assert out["camera"] is Polarity.NEUTRAL


class TestBearsSentiment:
    def test_sentiment_word_detected(self, analyzer):
        from repro.nlp.sentences import split_sentences

        (s,) = split_sentences("The camera is excellent.")
        assert analyzer.bears_sentiment(analyzer.tag(s))

    def test_plain_factual_sentence(self, analyzer):
        from repro.nlp.sentences import split_sentences

        (s,) = split_sentences("The camera has a 3x zoom.")
        assert not analyzer.bears_sentiment(analyzer.tag(s))


class TestProvenance:
    def test_pattern_recorded(self, analyzer):
        (j,) = analyzer.analyze_text("The colors are vibrant.", [Subject("colors")])
        assert j.provenance.pattern == "be CP SP"
        assert j.provenance.predicate == "be"
        assert "vibrant" in j.provenance.sentiment_words

    def test_negation_recorded(self, analyzer):
        (j,) = analyzer.analyze_text("The colors are not vibrant.", [Subject("colors")])
        assert j.provenance.negated


class TestNounShadowedPredicates:
    """Regression: predicates that double as sentiment nouns must still
    tag as verbs inside the analyzer, or their patterns can never fire.

    Paper Section 4.2 treats experiencer verbs like "mistrust" as
    sentiment verbs; before the fix, the lexicon's NN entry for the same
    word shadowed the predicate's VB prior and every such pattern
    ("mistrust - OP", "crash - SP", ...) was dead in base-form clauses.
    """

    def test_mistrust_object_pattern_fires(self, analyzer):
        out = judge(analyzer, "I mistrust this vendor.", "vendor")
        assert out["vendor"] is Polarity.NEGATIVE

    def test_trust_object_pattern_fires(self, analyzer):
        out = judge(analyzer, "Reviewers trust this brand.", "brand")
        assert out["brand"] is Polarity.POSITIVE

    def test_crash_subject_pattern_fires(self, analyzer):
        # "crash" is also a negative noun; the verb reading must survive.
        out = judge(analyzer, "These phones crash constantly.", "phones")
        assert out["phones"] is Polarity.NEGATIVE

    def test_noun_reading_still_tags_as_noun(self, analyzer):
        # The override only sets the lexical prior; contextual rules keep
        # noun positions nominal ("the crash" after a determiner).
        tagged = analyzer.tag(
            list(analyzer._splitter.split_text("The crash ruined everything."))[0]
        )
        tags = {t.text: t.tag for t in tagged.tokens}
        assert tags["crash"].startswith("NN")


class TestCounterSeries:
    """The analyzer keeps its counter handles, bound on first increment.

    A series appears in the registry only once the analyzer has counted
    into it, and every increment lands in the registry's own series.
    """

    @staticmethod
    def analyzer_series(obs):
        return {k: v for k, v in obs.metrics.snapshot().items() if k.startswith("analyzer.")}

    def test_series_appear_on_first_increment(self):
        obs = Obs.enabled()
        analyzer = SentimentAnalyzer(obs=obs)
        analyzer.analyze_text("Is the flash good?", [Subject("flash")])
        assert self.analyzer_series(obs) == {
            "analyzer.questions_skipped": 1.0,
            "analyzer.sentences": 1.0,
        }
        analyzer.analyze_text(
            "The flash fails to impress. If the zoom were better, I would buy it.",
            [Subject("flash"), Subject("zoom")],
        )
        analyzer.analyze_text("The flash fails to impress.", [Subject("flash")])
        assert self.analyzer_series(obs) == {
            "analyzer.assignments": 2.0,
            "analyzer.clauses": 4.0,
            "analyzer.hypothetical_skipped": 1.0,
            "analyzer.negations_applied": 2.0,
            "analyzer.parse_memo_hits": 1.0,
            "analyzer.parse_memo_misses": 2.0,
            "analyzer.pattern_matches{pattern=impress + SP}": 2.0,
            "analyzer.questions_skipped": 1.0,
            "analyzer.sentences": 4.0,
        }

    def test_analyzers_sharing_a_registry_share_series(self):
        obs = Obs.enabled()
        for _ in range(2):
            SentimentAnalyzer(obs=obs).analyze_text("The flash fails to impress.", [Subject("flash")])
        series = self.analyzer_series(obs)
        assert series["analyzer.sentences"] == 2.0
        assert series["analyzer.pattern_matches{pattern=impress + SP}"] == 2.0
