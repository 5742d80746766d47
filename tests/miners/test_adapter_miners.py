"""Unit tests for the WebFountain adapter miners."""

import pytest

from repro.core import Subject
from repro.core.disambiguation import Disambiguator, TopicTermSet
from repro.miners import (
    DisambiguatorMiner,
    PosTaggerMiner,
    SentimentEntityMiner,
    SpotterMiner,
    TokenizerMiner,
    base,
    judgments_from,
)
from repro.platform.entity import Entity
from repro.core.mining import MinerPipeline

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
        SentimentEntityMiner().process(entity)
        polar = [j.polarity.value for j in judgments_from(entity) if j.polarity.is_polar]
        assert polar == ["+"]

    def test_judgments_from_roundtrip(self):
        entity = tokenized_entity()
        SpotterMiner([Subject("camera")]).process(entity)
        SentimentEntityMiner().process(entity)
        judgments = judgments_from(entity)
        assert [j.subject_name for j in judgments][0] == "camera"
        assert judgments[0].spot.document_id == "d1"


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

