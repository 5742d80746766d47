"""Shared helpers for the WebFountain adapter miners.

Adapter miners communicate exclusively through entity annotation layers:

* ``token``    — one annotation per token (label unused);
* ``sentence`` — one annotation per sentence (label = sentence index);
* ``pos``      — one annotation per token (label = Penn tag);
* ``spot``     — subject occurrences (label = canonical subject name);
* ``sentiment``— judgments (label = polarity symbol; attributes carry
  the subject and pattern provenance).

The reconstruction helpers below rebuild NLP objects from those layers so
downstream miners never re-tokenize.
"""

from __future__ import annotations

from bisect import bisect_right

from ..core.model import Spot, Subject
from ..nlp.tokens import Sentence, Token
from ..core.entity import Annotation, Entity

TOKEN_LAYER = "token"
SENTENCE_LAYER = "sentence"
POS_LAYER = "pos"
SPOT_LAYER = "spot"
SENTIMENT_LAYER = "sentiment"


def tokens_from(entity: Entity) -> list[Token]:
    """Rebuild tokens from the ``token`` layer."""
    return [
        Token(entity.text_of(a), a.span.start, a.span.end)
        for a in entity.layer(TOKEN_LAYER)
    ]


def sentences_from(entity: Entity) -> list[Sentence]:
    """Rebuild sentences by grouping tokens under ``sentence`` spans.

    Sentence spans are disjoint, so a token belongs to at most one: the
    last sentence starting at or before it, if that one also covers its
    end.  One pass over the tokens files each under its sentence.
    """
    annotations = entity.layer(SENTENCE_LAYER)
    order = sorted(range(len(annotations)), key=lambda k: annotations[k].span.start)
    starts = [annotations[k].span.start for k in order]
    groups: list[list[Token]] = [[] for _ in annotations]
    for token in tokens_from(entity):
        position = bisect_right(starts, token.start) - 1
        if position >= 0:
            k = order[position]
            if token.end <= annotations[k].span.end:
                groups[k].append(token)
    return [
        Sentence(group, index=int(annotation.label))
        for annotation, group in zip(annotations, groups)
        if group
    ]


def spots_from(entity: Entity, subjects_by_name: dict[str, Subject] | None = None) -> list[Spot]:
    """Rebuild spots from the ``spot`` layer."""
    subjects_by_name = subjects_by_name or {}
    spots: list[Spot] = []
    for annotation in entity.layer(SPOT_LAYER):
        subject = subjects_by_name.get(annotation.label) or Subject(annotation.label)
        spots.append(
            Spot(
                subject=subject,
                term=entity.text_of(annotation),
                span=annotation.span,
                sentence_index=int(annotation.attribute("sentence", 0)),
                document_id=entity.entity_id,
            )
        )
    return spots


def annotate_spot(entity: Entity, spot: Spot, layer: str = SPOT_LAYER) -> None:
    """Write one spot into an annotation layer."""
    entity.annotate(
        Annotation.make(
            layer,
            spot.start,
            spot.end,
            label=spot.subject.canonical,
            sentence=spot.sentence_index,
        )
    )
