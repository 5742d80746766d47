"""WebFountain entity and corpus miners: the paper's miner inventory.

:class:`SentimentEntityMiner` deploys the sentiment miner (Figure 2's
spotter → disambiguator → sentiment analyzer, one
:class:`~repro.core.miner.SentimentMiner` call per entity) on the
simulated cluster and stores each entity's judged spots and their
sentiment as annotation layers.  Of the other miners the paper names as
platform examples, the package keeps aggregate statistics, which the
benchmarks run on the cluster.
"""

from .sentiment_miner import SentimentEntityMiner, judgments_from
from .statistics import AggregateStatisticsMiner

__all__ = [
    "AggregateStatisticsMiner",
    "SentimentEntityMiner",
    "judgments_from",
]
