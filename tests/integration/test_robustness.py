"""Robustness fuzzing: no input text may crash any pipeline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SentimentMiner, Subject
from repro.miners import (
    NamedEntityMiner,
    PosTaggerMiner,
    SentimentEntityMiner,
    SpotterMiner,
    TokenizerMiner,
)
from repro.platform import Entity, MinerPipeline

_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=300)
_messy = st.one_of(
    _text,
    st.sampled_from(
        [
            "",
            "....!!!???",
            "ALL CAPS SHOUTING ABOUT NOTHING",
            "mixed 日本語 and English text here",
            "a" * 500,
            "The the the the the.",
            "( [ { unbalanced",
            "tabs\tand\nnewlines\r\neverywhere",
            "emoji ☃ snowman ® symbols ™",
            "'''quotes‘’“”everywhere'''",
        ]
    ),
)


class TestMinerNeverCrashes:
    @settings(max_examples=80, deadline=None)
    @given(_messy)
    def test_mode_a(self, text):
        miner = SentimentMiner(subjects=[Subject("camera"), Subject("battery life")])
        result = miner.mine_document(text, "fuzz")
        assert result.stats.documents == 1

    @settings(max_examples=80, deadline=None)
    @given(_messy)
    def test_mode_b(self, text):
        result = SentimentMiner().mine_document(text, "fuzz")
        assert result.stats.documents == 1

    @settings(max_examples=40, deadline=None)
    @given(_messy)
    def test_full_platform_pipeline(self, text):
        entity = Entity(entity_id="fuzz", content=text)
        pipeline = MinerPipeline(
            [
                TokenizerMiner(),
                PosTaggerMiner(),
                SpotterMiner([Subject("camera")]),
                NamedEntityMiner(),
                SentimentEntityMiner(),
            ]
        )
        pipeline.process_entity(entity)


class TestAnnotationFaithfulness:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                [
                    "The camera takes excellent pictures.",
                    "I hate the camera.",
                    "Nothing here.",
                    "The battery life is superb!",
                ]
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_sentiment_annotations_cover_subject_text(self, sentences):
        """Every sentiment annotation's span contains its subject term."""
        text = " ".join(sentences)
        entity = Entity(entity_id="d", content=text)
        pipeline = MinerPipeline(
            [
                TokenizerMiner(),
                PosTaggerMiner(),
                SpotterMiner([Subject("camera"), Subject("battery life")]),
                SentimentEntityMiner(),
            ]
        )
        pipeline.process_entity(entity)
        for annotation in entity.layer("sentiment"):
            covered = entity.text_of(annotation).lower()
            assert annotation.attribute("subject").lower() == covered

    @settings(max_examples=40, deadline=None)
    @given(_text)
    def test_all_annotations_within_content(self, text):
        entity = Entity(entity_id="d", content=text)
        pipeline = MinerPipeline([TokenizerMiner(), PosTaggerMiner()])
        pipeline.process_entity(entity)
        for layer in entity.layers():
            for annotation in entity.layer(layer):
                assert annotation.span.end <= len(text)
