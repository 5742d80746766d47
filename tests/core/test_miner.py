"""Unit tests for the end-to-end SentimentMiner (modes A and B)."""

import pytest

from repro.core.context import ContextWindowRule
from repro.core.disambiguation import Disambiguator, TopicTermSet
from repro.core.miner import SentimentMiner
from repro.core.model import Polarity, Subject
from repro.obs import Obs

SUBJECTS = [
    Subject("camera", ("cam",)),
    Subject("battery life",),
    Subject("zoom",),
]

REVIEW = (
    "I bought this camera last week. The camera takes excellent pictures. "
    "The battery life is disappointing. The zoom works really well."
)


@pytest.fixture(scope="module")
def miner():
    return SentimentMiner(subjects=SUBJECTS)


class TestModeA:
    def test_judgments_per_spot(self, miner):
        result = miner.mine_document(REVIEW, "doc1")
        by_subject = result.by_subject()
        polarities = {
            name: [j.polarity for j in judgments] for name, judgments in by_subject.items()
        }
        assert Polarity.POSITIVE in polarities["camera"]
        assert polarities["battery life"] == [Polarity.NEGATIVE]
        assert polarities["zoom"] == [Polarity.POSITIVE]

    def test_stats_counted(self, miner):
        result = miner.mine_document(REVIEW, "doc1")
        assert result.stats.documents == 1
        assert result.stats.sentences == 4
        assert result.stats.spots_found == 4
        assert result.stats.spots_on_topic == 4
        assert result.stats.judgments_polar >= 3

    def test_first_mention_neutral(self, miner):
        result = miner.mine_document(REVIEW, "doc1")
        camera = result.by_subject()["camera"]
        assert camera[0].polarity is Polarity.NEUTRAL  # "I bought this camera"

    def test_document_id_propagates(self, miner):
        result = miner.mine_document(REVIEW, "doc42")
        assert all(j.spot.document_id == "doc42" for j in result.judgments)

    def test_corpus_mining_merges(self, miner):
        result = miner.mine_corpus([("a", REVIEW), ("b", REVIEW)])
        assert result.stats.documents == 2
        assert len(result.judgments) == 2 * len(miner.mine_document(REVIEW).judgments)

    def test_polar_judgments_filter(self, miner):
        result = miner.mine_document(REVIEW)
        assert all(j.polarity.is_polar for j in result.polar_judgments())

    def test_disambiguator_filters_spots(self):
        terms = TopicTermSet.build(
            on_topic=["pictures", "photography"], off_topic=["weather", "beach"]
        )
        d = Disambiguator(terms)
        gated = SentimentMiner(subjects=[Subject("sun")], disambiguator=d)
        off_topic = "The sun is wonderful at the beach. The weather improved."
        result = gated.mine_document(off_topic)
        assert result.stats.spots_found == 1
        assert result.stats.spots_on_topic == 0
        assert result.judgments == []


class TestContexts:
    def test_contexts_yielded_per_spot(self, miner):
        contexts = list(miner.contexts(REVIEW, "doc1"))
        assert len(contexts) == 4

    def test_context_window_rule_respected(self):
        wide = SentimentMiner(subjects=SUBJECTS, context_rule=ContextWindowRule(1, 0))
        contexts = list(wide.contexts(REVIEW))
        # The second camera spot pulls in the preceding sentence.
        second = contexts[1]
        assert len(second.sentences) == 2


class TestModeB:
    def test_document_without_subjects_is_mode_b(self):
        # No subject list means no predefined subjects: the paper's Mode
        # B runs the engine's spot and analyze stages, and never
        # disambiguates, even when given a disambiguator.
        terms = TopicTermSet.build(on_topic=["pictures"], off_topic=["weather"])
        obs = Obs.enabled()
        miner = SentimentMiner(disambiguator=Disambiguator(terms), obs=obs)
        result = miner.mine_document("The Zorblax X100 takes excellent pictures.", "doc1")
        assert [j.as_pair() for j in result.judgments] == [("Zorblax X100", "+")]
        root, *stages = obs.tracer.spans()
        assert (root.name, root.attributes["mode"]) == ("mine.document", "B")
        assert [(s.name, s.parent_id) for s in stages] == [
            ("stage.spot", root.span_id),
            ("stage.analyze", root.span_id),
        ]

    def test_named_entities_judged(self):
        miner = SentimentMiner()
        text = "The Zorblax X100 takes excellent pictures. Flurbotek disappointed analysts."
        result = miner.mine_document(text)
        pairs = dict(j.as_pair() for j in result.judgments)
        assert pairs.get("Zorblax X100") == "+"
        assert pairs.get("Flurbotek") == "-"

    def test_non_sentiment_sentences_skipped(self):
        miner = SentimentMiner()
        text = "Flurbotek has offices in Omaha."
        result = miner.mine_document(text)
        assert result.judgments == []
        assert result.stats.spots_found >= 1
        assert result.stats.spots_on_topic == 0

    def test_open_corpus_merge(self):
        miner = SentimentMiner()
        docs = [("a", "Zorblax impressed reviewers."), ("b", "Zorblax failed badly.")]
        result = miner.mine_corpus(docs)
        assert result.stats.documents == 2
        polarities = [j.polarity for j in result.judgments if j.subject_name == "Zorblax"]
        assert Polarity.POSITIVE in polarities and Polarity.NEGATIVE in polarities


class TestContextWindowAttribution:
    TEXT = "I tested the zoom for a week. It is truly superb. The flash arrived Monday."

    def test_narrow_window_abstains_on_anaphora(self):
        miner = SentimentMiner(subjects=[Subject("zoom")])
        (j,) = miner.mine_document(self.TEXT).judgments
        assert j.polarity is Polarity.NEUTRAL

    def test_window_attributes_pronoun_sentiment(self):
        miner = SentimentMiner(
            subjects=[Subject("zoom")], context_rule=ContextWindowRule(0, 1)
        )
        (j,) = miner.mine_document(self.TEXT).judgments
        assert j.polarity is Polarity.POSITIVE

    def test_window_does_not_touch_polar_judgments(self):
        text = "The zoom is terrible. It is truly superb."
        miner = SentimentMiner(
            subjects=[Subject("zoom")], context_rule=ContextWindowRule(0, 1)
        )
        (j,) = miner.mine_document(text).judgments
        assert j.polarity is Polarity.NEGATIVE

    def test_unrelated_neighbor_does_not_leak(self):
        text = "The zoom arrived Monday. The colors are vibrant."
        miner = SentimentMiner(
            subjects=[Subject("zoom")], context_rule=ContextWindowRule(0, 1)
        )
        (j,) = miner.mine_document(text).judgments
        # Neighbor sentiment targets "the colors", not a pronoun: no leak.
        assert j.polarity is Polarity.NEUTRAL

    def test_negative_anaphora(self):
        text = "Let me say a word about the flash. It is dreadful."
        miner = SentimentMiner(
            subjects=[Subject("flash")], context_rule=ContextWindowRule(0, 1)
        )
        (j,) = miner.mine_document(text).judgments
        assert j.polarity is Polarity.NEGATIVE
