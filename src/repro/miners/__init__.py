"""WebFountain adapter miners: the paper's miner inventory.

Each miner adapts a :mod:`repro.core` algorithm to the platform's
annotation-layer contract so Mode A pipelines (Figure 2) can be deployed
on the simulated cluster.  Mode B (Figure 3) runs through
:class:`~repro.core.miner.SentimentMiner` given no subject list.  Of the
other miners the paper names as platform examples, the package keeps
aggregate statistics, which the benchmarks run on the cluster.
"""

from . import base
from .disambiguator import DisambiguatorMiner
from .sentiment_miner import SentimentEntityMiner, judgments_from
from .spotter import SpotterMiner
from .statistics import AggregateStatisticsMiner
from .tokenizer_miner import PosTaggerMiner, TokenizerMiner

__all__ = [
    "AggregateStatisticsMiner",
    "DisambiguatorMiner",
    "PosTaggerMiner",
    "SentimentEntityMiner",
    "SpotterMiner",
    "TokenizerMiner",
    "base",
    "judgments_from",
]
