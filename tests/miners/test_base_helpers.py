"""Unit tests for the annotation-layer reconstruction helpers."""

import pytest

from repro.core import Subject
from repro.corpora import DIGITAL_CAMERA, PETROLEUM, ReviewGenerator, WebPageGenerator
from repro.miners import TokenizerMiner, base
from repro.nlp.tokens import Sentence
from repro.platform.entity import Annotation, Entity

TEXT = "The camera works. The flash fails."


def entity_with_layers():
    entity = Entity(entity_id="d", content=TEXT)
    TokenizerMiner().process(entity)
    return entity


class TestReconstruction:
    def test_tokens_roundtrip_offsets(self):
        entity = entity_with_layers()
        for token in base.tokens_from(entity):
            assert TEXT[token.start : token.end] == token.text

    def test_sentences_preserve_indexes(self):
        entity = entity_with_layers()
        sentences = base.sentences_from(entity)
        assert [s.index for s in sentences] == [0, 1]

    def test_spots_from_uses_subject_mapping(self):
        entity = entity_with_layers()
        start = TEXT.index("camera")
        entity.annotate(
            Annotation.make(base.SPOT_LAYER, start, start + 6, label="Canon X", sentence=0)
        )
        subject = Subject("Canon X", ("camera",))
        (spot,) = base.spots_from(entity, {"Canon X": subject})
        assert spot.subject is subject
        assert spot.term == "camera"
        assert spot.document_id == "d"

    def test_spots_from_without_mapping_builds_subject(self):
        entity = entity_with_layers()
        start = TEXT.index("flash")
        entity.annotate(
            Annotation.make(base.SPOT_LAYER, start, start + 5, label="flash", sentence=1)
        )
        (spot,) = base.spots_from(entity)
        assert spot.subject.canonical == "flash"
        assert spot.sentence_index == 1

    def test_annotate_spot_roundtrip(self):
        entity = entity_with_layers()
        start = TEXT.index("camera")
        from repro.core.model import Spot
        from repro.nlp.tokens import Span

        spot = Spot(Subject("camera"), "camera", Span(start, start + 6), 0, "d")
        base.annotate_spot(entity, spot)
        (restored,) = base.spots_from(entity)
        assert restored.span == spot.span
        assert restored.sentence_index == 0


def naive_sentences(entity: Entity) -> list[Sentence]:
    """Every sentence span against every token: the grouping by definition."""
    tokens = base.tokens_from(entity)
    sentences = []
    for annotation in entity.layer(base.SENTENCE_LAYER):
        covered = [t for t in tokens if annotation.span.contains(t.span)]
        if covered:
            sentences.append(Sentence(covered, index=int(annotation.label)))
    return sentences


def _corpus_texts() -> list[str]:
    reviews = ReviewGenerator(DIGITAL_CAMERA, seed=7).generate_dplus(6)
    pages = WebPageGenerator(PETROLEUM, seed=2005).generate_pages(6)
    return [d.text for d in reviews] + [p.text for p in pages]


class TestSentenceGrouping:
    @pytest.mark.parametrize("text", _corpus_texts())
    def test_matches_naive_grouping(self, text):
        entity = Entity(entity_id="d", content=text)
        TokenizerMiner().process(entity)
        assert len(base.sentences_from(entity)) > 1
        assert base.sentences_from(entity) == naive_sentences(entity)

    def test_any_layer_order_gaps_and_empty_sentences(self):
        # Layers written out of textual order, a token outside every
        # sentence, a token straddling a sentence end, and a sentence
        # that covers no token.
        entity = Entity(entity_id="d", content="aa bb cc dd ee ff")
        for start, end in ((9, 11), (0, 2), (12, 14), (3, 5), (6, 8), (15, 17)):
            entity.annotate(Annotation.make(base.TOKEN_LAYER, start, end))
        for index, (start, end) in enumerate(((6, 10), (0, 5), (15, 17), (12, 13))):
            entity.annotate(Annotation.make(base.SENTENCE_LAYER, start, end, label=str(index)))
        grouped = base.sentences_from(entity)
        assert grouped == naive_sentences(entity)
        assert [(s.index, [t.text for t in s.tokens]) for s in grouped] == [
            (0, ["cc"]),
            (1, ["aa", "bb"]),
            (2, ["ff"]),
        ]
