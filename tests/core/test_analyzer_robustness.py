"""Regression tests: the analyzer must survive chaos-corrupted documents.

Fault injection can hand the sentiment pipeline empty documents,
punctuation-only text, reversed text, and mid-token truncations (see
``repro.platform.faults``).  These tests pin two guarantees:

* the paper's worked examples for negation reversal and pattern
  matching keep their polarities (regression anchors);
* degenerate inputs — empty text, all-stopword sentences, sentences
  with no predicate — return judgments (possibly none), never raise.
"""

import pytest

from repro.core.analyzer import SentimentAnalyzer
from repro.core.miner import SentimentMiner
from repro.core.model import Polarity, Subject
from repro.miners import SentimentEntityMiner
from repro.platform import Entity, FaultPlan, MinerPipeline

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def analyzer():
    return SentimentAnalyzer()


def judge(analyzer, text, *names):
    subjects = [Subject(n) for n in names]
    return {j.subject_name: j.polarity for j in analyzer.analyze_text(text, subjects)}


class TestWorkedExampleAnchors:
    """The paper's examples, re-asserted as chaos-regression anchors."""

    def test_pattern_match_positive(self, analyzer):
        # Paper: "This camera takes excellent pictures." → (camera, +)
        out = judge(analyzer, "This camera takes excellent pictures.", "camera")
        assert out["camera"] is Polarity.POSITIVE

    def test_pattern_match_negative(self, analyzer):
        # Paper: "The product fails to meet our quality expectations." → −
        out = judge(
            analyzer, "The product fails to meet our quality expectations.", "product"
        )
        assert out["product"] is Polarity.NEGATIVE

    def test_negation_reversal(self, analyzer):
        out = judge(analyzer, "The camera does not take excellent pictures.", "camera")
        assert out["camera"] is Polarity.NEGATIVE

    def test_double_anchor_negation_of_negative(self, analyzer):
        out = judge(analyzer, "The camera never disappoints.", "camera")
        assert out["camera"] is Polarity.POSITIVE


class TestDegenerateInputs:
    """Tokenizer edge cases injected by document corruption."""

    @pytest.mark.parametrize(
        "text",
        [
            "",  # empty document
            "   \n\t  ",  # whitespace only
            "?! ... !! ??",  # punctuation only (the 'punctuation' mode)
            "the of and a an in on.",  # all-stopword sentence
            "the camera.",  # sentence with no predicate
            "camera",  # bare mention, no sentence structure
            "Is the camera good?",  # question (asserts nothing)
        ],
    )
    def test_never_raises(self, analyzer, text):
        judgments = analyzer.analyze_text(text, [Subject("camera")])
        for judgment in judgments:
            # No crash, and anything returned is a well-formed judgment.
            assert judgment.polarity in (
                Polarity.POSITIVE,
                Polarity.NEGATIVE,
                Polarity.NEUTRAL,
            )

    def test_no_predicate_sentence_is_neutral(self, analyzer):
        out = judge(analyzer, "the camera.", "camera")
        assert out.get("camera", Polarity.NEUTRAL) is Polarity.NEUTRAL

    def test_question_yields_no_polar_judgment(self, analyzer):
        out = judge(analyzer, "Is the camera excellent?", "camera")
        assert all(p is Polarity.NEUTRAL for p in out.values())

    def test_anchor_survives_surrounding_garbage(self, analyzer):
        text = "?!?! ... The camera takes excellent pictures. the of and a."
        out = judge(analyzer, text, "camera")
        assert out["camera"] is Polarity.POSITIVE


class TestCorruptedEntitiesThroughPipeline:
    """Every FaultPlan corruption mode flows through the cluster's miner."""

    def _pipeline(self):
        return MinerPipeline([SentimentEntityMiner(SentimentMiner([Subject("camera")]))])

    def test_all_corruption_modes_processable(self):
        plan = FaultPlan(seed=1)
        original = Entity(
            entity_id="doc", content="The camera takes excellent pictures."
        )
        pipeline = self._pipeline()
        for _ in range(4):  # one per corruption mode
            corrupted = plan.corrupt_entity(original)
            pipeline.process_entity(corrupted)  # must not raise
            assert corrupted.metadata["corrupted"] is True

    def test_reversed_text_yields_no_spurious_sentiment(self):
        plan = FaultPlan(seed=1)
        plan.corrupt_entity(Entity(entity_id="x", content="x"))  # consume 'empty'
        plan.corrupt_entity(Entity(entity_id="x", content="x"))  # consume 'punctuation'
        reversed_doc = plan.corrupt_entity(
            Entity(entity_id="doc", content="The camera takes excellent pictures.")
        )
        assert reversed_doc.metadata["corruption"] == "reversed"
        pipeline = self._pipeline()
        pipeline.process_entity(reversed_doc)
        assert not reversed_doc.has_layer("sentiment") or all(
            a.label == "0" for a in reversed_doc.layer("sentiment")
        )
