"""Unit tests for the WebFountain adapter miners."""

import pytest

from repro.core import Subject
from repro.core.disambiguation import Disambiguator, TopicTermSet
from repro.miners import (
    DisambiguatorMiner,
    FeatureTermMiner,
    NamedEntityMiner,
    OpenSentimentEntityMiner,
    PosTaggerMiner,
    SentimentEntityMiner,
    SpotterMiner,
    TokenizerMiner,
    base,
    judgments_from,
)
from repro.platform.datastore import DataStore
from repro.platform.entity import Entity
from repro.core.mining import MinerPipeline, run_corpus_miner
from repro.corpora.datasets import pharmaceutical_web

from tests.support.reference import reference_analyzer, reference_open_judgments

TEXT = "The camera takes excellent pictures. The battery life is disappointing."


def tokenized_entity(text=TEXT, entity_id="d1"):
    entity = Entity(entity_id=entity_id, content=text)
    TokenizerMiner().process(entity)
    return entity


class TestTokenizerMiner:
    def test_token_and_sentence_layers(self):
        entity = tokenized_entity()
        assert entity.has_layer(base.TOKEN_LAYER)
        assert len(entity.layer(base.SENTENCE_LAYER)) == 2

    def test_reprocessing_is_idempotent(self):
        entity = tokenized_entity()
        count = len(entity.layer(base.TOKEN_LAYER))
        TokenizerMiner().process(entity)
        assert len(entity.layer(base.TOKEN_LAYER)) == count

    def test_reconstruction_roundtrip(self):
        entity = tokenized_entity()
        sentences = base.sentences_from(entity)
        assert [s.text_of(TEXT) for s in sentences] == [
            "The camera takes excellent pictures.",
            "The battery life is disappointing.",
        ]


class TestPosTaggerMiner:
    def test_pos_layer_written(self):
        entity = tokenized_entity()
        PosTaggerMiner().process(entity)
        tags = {entity.text_of(a): a.label for a in entity.layer(base.POS_LAYER)}
        assert tags["camera"] == "NN"
        assert tags["takes"] == "VBZ"

    def test_tagged_reconstruction(self):
        entity = tokenized_entity()
        PosTaggerMiner().process(entity)
        (first, second) = base.tagged_sentences_from(entity)
        assert first.tags[0] == "DT"


class TestSpotterMiner:
    def test_spots_annotated(self):
        entity = tokenized_entity()
        SpotterMiner([Subject("camera"), Subject("battery life")]).process(entity)
        labels = [a.label for a in entity.layer(base.SPOT_LAYER)]
        assert labels == ["camera", "battery life"]

    def test_sentence_attribute(self):
        entity = tokenized_entity()
        SpotterMiner([Subject("battery life")]).process(entity)
        (a,) = entity.layer(base.SPOT_LAYER)
        assert a.attribute("sentence") == 1

    def test_requires_subjects(self):
        with pytest.raises(ValueError):
            SpotterMiner([])


class TestDisambiguatorMiner:
    def test_off_topic_spots_removed(self):
        text = "The SUN rose over the beach. The weather was sunny."
        entity = tokenized_entity(text)
        SpotterMiner([Subject("SUN")]).process(entity)
        terms = TopicTermSet.build(["server", "java"], ["beach", "weather", "sunny"])
        DisambiguatorMiner(Disambiguator(terms)).process(entity)
        assert entity.layer(base.SPOT_LAYER) == []
        assert entity.metadata["spots_found"] == 1
        assert entity.metadata["spots_on_topic"] == 0

    def test_on_topic_spots_kept(self):
        text = "SUN shipped a java server. The java tools improved."
        entity = tokenized_entity(text)
        SpotterMiner([Subject("SUN")]).process(entity)
        terms = TopicTermSet.build(["server", "java"], ["beach"])
        DisambiguatorMiner(Disambiguator(terms)).process(entity)
        assert len(entity.layer(base.SPOT_LAYER)) == 1


class TestSentimentEntityMiner:
    def test_judgments_annotated(self):
        entity = tokenized_entity()
        SpotterMiner([Subject("camera"), Subject("battery life")]).process(entity)
        SentimentEntityMiner().process(entity)
        sentiments = {
            a.attribute("subject"): a.label for a in entity.layer(base.SENTIMENT_LAYER)
        }
        assert sentiments["camera"] == "+"
        assert sentiments["battery life"] == "-"

    def test_polar_only_filter(self):
        entity = tokenized_entity("I saw the camera. The camera is excellent.")
        SpotterMiner([Subject("camera")]).process(entity)
        SentimentEntityMiner(polar_only=True).process(entity)
        labels = [a.label for a in entity.layer(base.SENTIMENT_LAYER)]
        assert labels == ["+"]

    def test_judgments_from_roundtrip(self):
        entity = tokenized_entity()
        SpotterMiner([Subject("camera")]).process(entity)
        SentimentEntityMiner().process(entity)
        judgments = judgments_from(entity)
        assert [j.subject_name for j in judgments][0] == "camera"
        assert judgments[0].spot.document_id == "d1"


class TestOpenSentimentMiner:
    def test_mode_b_pipeline(self):
        text = "Zorblax impressed reviewers. Omaha has offices."
        entity = tokenized_entity(text)
        PosTaggerMiner().process(entity)
        NamedEntityMiner().process(entity)
        OpenSentimentEntityMiner().process(entity)
        sentiments = {
            a.attribute("subject"): a.label for a in entity.layer(base.SENTIMENT_LAYER)
        }
        assert sentiments == {"Zorblax": "+"}

    def test_ne_layer_written(self):
        entity = tokenized_entity("We met Prof. Wilson of American University.")
        PosTaggerMiner().process(entity)
        NamedEntityMiner().process(entity)
        names = [a.label for a in entity.layer(base.ENTITY_LAYER)]
        assert "Prof. Wilson" in names
        assert "American University" in names


def polar_record(judgments) -> list[tuple]:
    return [
        (j.spot.start, j.spot.end, j.subject_name, j.polarity.value, j.provenance.pattern)
        for j in judgments
        if j.polarity.is_polar
    ]


class TestOpenSentimentMatchesReference:
    """The Mode B adapter judges on its entity's POS-layer tags.

    The analyzer's tagger knows the sentiment lexicon and the pattern
    predicates, the POS miner's does not, so on some pages they tag a
    sentence differently.  Those pages are where re-tagging inside the
    adapter would show.
    """

    PAGES = 30

    def test_adapter_equals_reference_loop_where_taggers_disagree(self):
        pipeline = MinerPipeline(
            [TokenizerMiner(), PosTaggerMiner(), NamedEntityMiner(), OpenSentimentEntityMiner()]
        )
        oracle = reference_analyzer()
        disagreeing = retag_sensitive = 0
        for page in pharmaceutical_web(seed=2005, scale=0.3).dplus[: self.PAGES]:
            entity = Entity(entity_id=page.doc_id, content=page.text)
            pipeline.process_entity(entity)
            layer_tagged = base.tagged_sentences_from(entity)
            retagged = [oracle.tag(sentence) for sentence in base.sentences_from(entity)]
            if [[t.tag for t in s.tokens] for s in layer_tagged] == [
                [t.tag for t in s.tokens] for s in retagged
            ]:
                continue
            disagreeing += 1
            expected = polar_record(reference_open_judgments(oracle, layer_tagged, page.doc_id))
            adapted = [
                (a.span.start, a.span.end, a.attribute("subject"), a.label, a.attribute("pattern"))
                for a in entity.layer(base.SENTIMENT_LAYER)
            ]
            assert adapted == expected, page.doc_id
            retag_sensitive += expected != polar_record(
                reference_open_judgments(oracle, retagged, page.doc_id)
            )
        assert disagreeing
        assert retag_sensitive  # re-tagging would have changed some answer


class TestFullPipelineOnCluster:
    def test_mode_a_pipeline_layers(self):
        pipeline = MinerPipeline(
            [
                TokenizerMiner(),
                PosTaggerMiner(),
                SpotterMiner([Subject("camera")]),
                SentimentEntityMiner(),
            ]
        )
        entity = Entity(entity_id="d1", content=TEXT)
        pipeline.process_entity(entity)
        assert entity.has_layer(base.SENTIMENT_LAYER)


class TestFeatureTermMiner:
    def test_map_reduce_scoring(self):
        store = DataStore(num_partitions=2)
        reviews = [
            "The battery lasts all day. The battery charges fast.",
            "The battery drains quickly. The zoom performs well.",
            "The battery holds a charge. The zoom works.",
        ]
        others = [
            "The election results came in late.",
            "The committee approved the budget.",
            "The orchestra played a symphony.",
        ]
        for i, text in enumerate(reviews):
            store.store(Entity(entity_id=f"r{i}", content=text, metadata={"domain": "camera"}))
        for i, text in enumerate(others):
            store.store(Entity(entity_id=f"o{i}", content=text, metadata={"domain": "general"}))
        miner = FeatureTermMiner("camera")
        merged = run_corpus_miner(miner, store)
        assert merged.dplus_docs == 3
        assert merged.dminus_docs == 3
        features = miner.score(merged)
        assert any(f.term == "battery" for f in features)
        battery = next(f for f in features if f.term == "battery")
        assert battery.dplus_count == 3
        assert battery.dminus_count == 0
