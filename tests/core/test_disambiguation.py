"""Unit tests for the two-resolution disambiguator."""

import pytest

from repro.core.disambiguation import (
    DisambiguationConfig,
    Disambiguator,
    TopicTermSet,
)
from repro.core.model import Spot, Subject
from repro.nlp.sentences import split_sentences
from repro.nlp.tokens import Span

SUN_TERMS = TopicTermSet.build(
    on_topic=["server", "java", "workstation", "software", "sun microsystems"],
    off_topic=["weather", "sky", "beach", "sunday", "sunshine"],
)


def spots_for(text, term="SUN"):
    out = []
    start = 0
    while True:
        idx = text.find(term, start)
        if idx < 0:
            break
        out.append(
            Spot(Subject("SUN Microsystems"), term, Span(idx, idx + len(term)), sentence_index=0)
        )
        start = idx + 1
    return out


class TestTopicTermSet:
    def test_build_lowercases(self):
        ts = TopicTermSet.build(["Java"], ["Beach"])
        assert "java" in ts.on_topic
        assert "beach" in ts.off_topic

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            TopicTermSet.build(["java"], ["java"])


class TestConfig:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            DisambiguationConfig(local_window=0)


class TestDisambiguator:
    def test_on_topic_document_keeps_all_spots(self):
        # Paper's example: SUN the company vs. the sun/Sunday.
        text = (
            "SUN released a new server. The java workstation line grew. "
            "Their software business expanded. SUN gained share."
        )
        sentences = split_sentences(text)
        spots = spots_for(text)
        result = Disambiguator(SUN_TERMS).disambiguate(sentences, spots)
        assert len(result.on_topic) == 2
        assert result.off_topic == []

    def test_off_topic_document_drops_spots(self):
        text = (
            "The SUN rose over the beach. The weather was warm and the "
            "sky was clear. The sunshine lasted all sunday."
        )
        sentences = split_sentences(text)
        spots = spots_for(text)
        result = Disambiguator(SUN_TERMS).disambiguate(sentences, spots)
        assert result.on_topic == []
        assert len(result.off_topic) == 1

    def test_local_context_rescues_mixed_document(self):
        # Globally weak, but one spot sits next to strong evidence.
        text = (
            "The beach weather was mild. "
            "Meanwhile SUN shipped a java server to the workstation market. "
            "The sky cleared."
        )
        sentences = split_sentences(text)
        spots = spots_for(text)
        config = DisambiguationConfig(local_window=8, global_threshold=5.0, combined_threshold=1.0)
        result = Disambiguator(SUN_TERMS, config).disambiguate(sentences, spots)
        assert len(result.on_topic) == 1

    def test_global_score_exposed(self):
        text = "SUN sells java software for the server."
        result = Disambiguator(SUN_TERMS).disambiguate(split_sentences(text), spots_for(text))
        assert result.global_score > 0

    def test_lexical_affinity_counts_double(self):
        terms = TopicTermSet.build(on_topic=["sun microsystems"])
        text = "SUN Microsystems is a company."
        d = Disambiguator(terms)
        sentences = split_sentences(text)
        score = d._score([t for s in sentences for t in s.tokens])
        assert score == pytest.approx(2.0)

    def test_empty_spot_list(self):
        result = Disambiguator(SUN_TERMS).disambiguate(split_sentences("Nothing."), [])
        assert result.total == 0
