"""repro: a reproduction of "Sentiment Mining in WebFountain" (ICDE 2005).

Subpackages
-----------
``repro.nlp``       — tokenizer, POS tagger, chunker, shallow parser
``repro.lexicons``  — sentiment word lists, negators, predicate patterns
``repro.core``      — the sentiment miner (analysis, features, spotting)
``repro.miners``    — the sentiment and statistics miners the cluster runs
``repro.platform``  — data store, indexer, cluster, Vinci bus, services
``repro.baselines`` — collocation and ReviewSeer-like comparators
``repro.corpora``   — synthetic datasets with ground truth
``repro.eval``      — metrics and the per-table/figure experiment harness
``repro.apps``      — the reputation-management application
"""

__version__ = "1.0.0"

from .core import SentimentAnalyzer, Subject

__all__ = [
    "SentimentAnalyzer",
    "Subject",
    "__version__",
]
