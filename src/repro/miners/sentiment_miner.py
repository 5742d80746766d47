"""The sentiment miner as a platform entity miner.

:class:`SentimentEntityMiner` is mode A's adapter: it reads the ``spot``
layer and writes ``sentiment`` annotations.  Mode B (open subjects) runs
through :class:`~repro.core.miner.SentimentMiner` given no subject list.

Sentiment annotations span the *spot* and carry polarity in ``label``
plus provenance in attributes, so the indexer can turn them into
conceptual tokens and the :class:`~repro.platform.indexer.SentimentIndex`
can be rebuilt from stored entities alone.
"""

from __future__ import annotations

from ..core.analyzer import SentimentAnalyzer, audit_judgment
from ..core.model import Polarity, SentimentJudgment, Spot, Subject
from ..obs import Obs
from ..core.entity import Annotation, Entity
from ..core.mining import EntityMiner
from . import base


def _annotate_judgment(entity: Entity, judgment: SentimentJudgment) -> None:
    entity.annotate(
        Annotation.make(
            base.SENTIMENT_LAYER,
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
    for annotation in entity.layer(base.SENTIMENT_LAYER):
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
    """Mode A: judge every spotted subject occurrence."""

    name = "sentiment-miner"
    requires = (base.TOKEN_LAYER, base.SENTENCE_LAYER, base.SPOT_LAYER)
    provides = (base.SENTIMENT_LAYER,)

    def __init__(
        self,
        analyzer: SentimentAnalyzer | None = None,
        obs: Obs | None = None,
    ):
        self._obs = obs if obs is not None else Obs.default()
        self._analyzer = analyzer or SentimentAnalyzer(obs=self._obs)

    @property
    def analyzer(self) -> SentimentAnalyzer:
        return self._analyzer

    def process(self, entity: Entity) -> None:
        entity.clear_layer(base.SENTIMENT_LAYER)
        judged = self._analyzer.judge_spotted(
            base.sentences_from(entity), base.spots_from(entity)
        )
        for judgment, inherited in judged:
            audit_judgment(self._obs.audit, judgment, inherited)
            _annotate_judgment(entity, judgment)

