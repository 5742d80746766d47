"""The paper's primary contribution: the target-level sentiment miner.

Public API highlights:

* :class:`~repro.core.miner.SentimentMiner` — end-to-end mining in both
  operational modes (predefined subjects / open subjects);
* :class:`~repro.core.analyzer.SentimentAnalyzer` — sentence-level
  sentiment extraction with target association;
* :class:`~repro.core.features.FeatureExtractor` — bBNP + likelihood-ratio
  feature term extraction;
* :class:`~repro.core.lexicon.SentimentLexicon` and
  :class:`~repro.core.patterns.SentimentPatternDB` — the two linguistic
  resources of Section 4.2.
"""

from .analyzer import SentimentAnalyzer
from .context import ContextWindowRule
from .disambiguation import Disambiguator, TopicTermSet
from .features import FeatureExtractionConfig, FeatureExtractor
from .lexicon import default_lexicon
from .miner import SentimentMiner
from .model import Polarity, Subject
from .patterns import default_pattern_db
from .spotting import NamedEntitySpotter, SubjectSpotter

__all__ = [
    "ContextWindowRule",
    "Disambiguator",
    "FeatureExtractionConfig",
    "FeatureExtractor",
    "NamedEntitySpotter",
    "Polarity",
    "SentimentAnalyzer",
    "SentimentMiner",
    "Subject",
    "SubjectSpotter",
    "TopicTermSet",
    "default_lexicon",
    "default_pattern_db",
]
