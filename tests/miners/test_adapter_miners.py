"""Unit tests for the sentiment miner as a platform entity miner."""

from repro.core import SentimentMiner, Subject
from repro.core.disambiguation import Disambiguator, TopicTermSet
from repro.core.mining import MinerPipeline
from repro.miners import SentimentEntityMiner, judgments_from
from repro.miners.sentiment_miner import SENTIMENT_LAYER, SPOT_LAYER
from repro.platform.entity import Entity

TEXT = "The camera takes excellent pictures. The battery life is disappointing."


def mined_entity(subjects, text=TEXT, entity_id="d1", disambiguator=None):
    entity = Entity(entity_id=entity_id, content=text)
    miner = SentimentMiner(subjects, disambiguator=disambiguator)
    SentimentEntityMiner(miner).process(entity)
    return entity


def layer_records(entity):
    return {
        layer: entity.to_record()["annotations"].get(layer)
        for layer in (SPOT_LAYER, SENTIMENT_LAYER)
    }


class TestSpotLayer:
    def test_spots_annotated(self):
        entity = mined_entity([Subject("camera"), Subject("battery life")])
        labels = [a.label for a in entity.layer(SPOT_LAYER)]
        assert labels == ["camera", "battery life"]

    def test_label_is_canonical_subject(self):
        entity = mined_entity([Subject("Canon", synonyms=("camera",))])
        (spot,) = entity.layer(SPOT_LAYER)
        assert spot.label == "Canon"
        assert entity.text_of(spot) == "camera"

    def test_sentence_attribute(self):
        entity = mined_entity([Subject("battery life")])
        (a,) = entity.layer(SPOT_LAYER)
        assert a.attribute("sentence") == 1

    def test_off_topic_spots_removed(self):
        terms = TopicTermSet.build(["server", "java"], ["beach", "weather", "sunny"])
        entity = mined_entity(
            [Subject("SUN")],
            "The SUN rose over the beach. The weather was sunny.",
            disambiguator=Disambiguator(terms),
        )
        assert entity.layer(SPOT_LAYER) == []
        assert entity.layer(SENTIMENT_LAYER) == []

    def test_on_topic_spots_kept(self):
        terms = TopicTermSet.build(["server", "java"], ["beach"])
        entity = mined_entity(
            [Subject("SUN")],
            "SUN shipped a java server. The java tools improved.",
            disambiguator=Disambiguator(terms),
        )
        assert len(entity.layer(SPOT_LAYER)) == 1


class TestSentimentEntityMiner:
    def test_judgments_annotated(self):
        entity = mined_entity([Subject("camera"), Subject("battery life")])
        sentiments = {
            a.attribute("subject"): a.label for a in entity.layer(SENTIMENT_LAYER)
        }
        assert sentiments["camera"] == "+"
        assert sentiments["battery life"] == "-"

    def test_polar_only_filter(self):
        entity = mined_entity([Subject("camera")], "I saw the camera. The camera is excellent.")
        polar = [j.polarity.value for j in judgments_from(entity) if j.polarity.is_polar]
        assert polar == ["+"]

    def test_judgments_from_roundtrip(self):
        entity = mined_entity([Subject("camera")])
        judgments = judgments_from(entity)
        assert [j.subject_name for j in judgments][0] == "camera"
        assert judgments[0].spot.document_id == "d1"
        assert [j.spot.span for j in judgments] == [a.span for a in entity.layer(SPOT_LAYER)]

    def test_reprocessing_is_idempotent(self):
        miner = SentimentEntityMiner(SentimentMiner([Subject("camera"), Subject("battery life")]))
        entity = Entity(entity_id="d1", content=TEXT)
        miner.process(entity)
        first = layer_records(entity)
        miner.process(entity)
        assert layer_records(entity) == first
        assert len(first[SPOT_LAYER]) == 2


class TestFullPipelineOnCluster:
    def test_mode_a_pipeline_layers(self):
        miner = SentimentEntityMiner(SentimentMiner([Subject("camera")]))
        pipeline = MinerPipeline([miner])
        entity = Entity(entity_id="d1", content=TEXT)
        pipeline.process_entity(entity)
        assert entity.has_layer(SENTIMENT_LAYER)
        assert entity.layers() == [SENTIMENT_LAYER, SPOT_LAYER]
