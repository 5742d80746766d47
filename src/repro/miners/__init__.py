"""WebFountain adapter miners: the paper's miner inventory.

Each miner adapts a :mod:`repro.core` algorithm to the platform's
annotation-layer contract so pipelines can be deployed on the simulated
cluster exactly as Figure 2 / Figure 3 describe.  Of the other miners
the paper names as platform examples, the package keeps aggregate
statistics and geographic context (the only producer of the ``geo``
layer that ``near:`` queries read).
"""

from . import base
from .disambiguator import DisambiguatorMiner
from .feature_miner import FeatureTermMiner
from .geographic import GeographicContextMiner
from .ne_spotter import NamedEntityMiner
from .sentiment_miner import (
    OpenSentimentEntityMiner,
    SentimentEntityMiner,
    judgments_from,
)
from .spotter import SpotterMiner
from .statistics import AggregateStatisticsMiner
from .tokenizer_miner import PosTaggerMiner, TokenizerMiner

__all__ = [
    "AggregateStatisticsMiner",
    "DisambiguatorMiner",
    "FeatureTermMiner",
    "GeographicContextMiner",
    "NamedEntityMiner",
    "OpenSentimentEntityMiner",
    "PosTaggerMiner",
    "SentimentEntityMiner",
    "SpotterMiner",
    "TokenizerMiner",
    "base",
    "judgments_from",
]
