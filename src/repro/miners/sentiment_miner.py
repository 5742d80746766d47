"""The sentiment miner as a platform entity miner.

:class:`SentimentEntityMiner` runs a :class:`~repro.core.miner.SentimentMiner`
over one entity — the paper's Fig. 2 spotter → disambiguator → sentiment
analyzer — and "augments processed entities with the results" as two
annotation layers:

* ``spot``      — one annotation per judged subject occurrence (label =
  canonical subject name, ``sentence`` attribute = sentence index);
* ``sentiment`` — one annotation per judgment over the same span (label
  = polarity symbol; attributes carry the subject and pattern provenance).

The indexer turns both into conceptual tokens (``spot:Canon``,
``sentiment:+``), and :func:`judgments_from` rebuilds judgments from a
stored entity alone, so the :class:`~repro.platform.indexer.SentimentIndex`
can be rebuilt without re-mining.
"""

from __future__ import annotations

from ..core.entity import Annotation, Entity
from ..core.miner import SentimentMiner
from ..core.mining import EntityMiner
from ..core.model import Polarity, SentimentJudgment, Spot, Subject

SPOT_LAYER = "spot"
SENTIMENT_LAYER = "sentiment"


def _annotate_spot(entity: Entity, spot: Spot) -> None:
    entity.annotate(
        Annotation.make(
            SPOT_LAYER,
            spot.start,
            spot.end,
            label=spot.subject.canonical,
            sentence=spot.sentence_index,
        )
    )


def _annotate_judgment(entity: Entity, judgment: SentimentJudgment) -> None:
    entity.annotate(
        Annotation.make(
            SENTIMENT_LAYER,
            judgment.spot.start,
            judgment.spot.end,
            label=judgment.polarity.value,
            subject=judgment.subject_name,
            pattern=judgment.provenance.pattern,
            predicate=judgment.provenance.predicate,
            negated=judgment.provenance.negated,
        )
    )


def judgments_from(entity: Entity) -> list[SentimentJudgment]:
    """Rebuild judgments from a stored entity's ``sentiment`` layer."""
    judgments: list[SentimentJudgment] = []
    for annotation in entity.layer(SENTIMENT_LAYER):
        subject = Subject(annotation.attribute("subject", entity.text_of(annotation)))
        spot = Spot(
            subject=subject,
            term=entity.text_of(annotation),
            span=annotation.span,
            sentence_index=0,
            document_id=entity.entity_id,
        )
        judgments.append(
            SentimentJudgment(spot=spot, polarity=Polarity.from_symbol(annotation.label))
        )
    return judgments


class SentimentEntityMiner(EntityMiner):
    """Mine one entity and store its judged spots and their sentiment."""

    name = "sentiment-miner"
    requires = ()
    provides = (SPOT_LAYER, SENTIMENT_LAYER)

    def __init__(self, miner: SentimentMiner):
        self._miner = miner

    def process(self, entity: Entity) -> None:
        # Clearing first keeps a re-run (say, after a failover) idempotent.
        entity.clear_layer(SPOT_LAYER)
        entity.clear_layer(SENTIMENT_LAYER)
        judgments = self._miner.mine_document(entity.content, entity.entity_id).judgments
        for judgment in judgments:
            _annotate_spot(entity, judgment.spot)
        for judgment in judgments:
            _annotate_judgment(entity, judgment)
