"""The reputation management application (the paper's proof of concept).

"For a proof of concept, a reputation management application has been
built on the WebFountain platform that enables various analyses for
corporate customers, including analysis on their corporate and product
reputation, and tracking of market trends."

The application owns a full platform stack: it ingests documents, runs
the mode-A sentiment miner (spotter → optional disambiguator → sentiment
analyzer) on the simulated cluster as one entity miner, which stores
each entity's spots and their sentiment, rebuilds the text and sentiment
indices from the stored entities, registers the hosted services, and
renders the two GUI views of Figures 4 and 5:

* a per-product sentiment summary (Figure 4's masked product list);
* a sentiment-bearing sentence listing per subject (Figure 5).

Product names can be masked ("Product A", "Product B", ...) exactly as
the paper's screenshots mask them.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable

from ..core.analyzer import SentimentAnalyzer
from ..core.disambiguation import Disambiguator
from ..core.miner import SentimentMiner
from ..core.mining import MinerPipeline
from ..core.model import Polarity, Subject
from ..miners import SentimentEntityMiner, judgments_from
from ..platform.cluster import Cluster
from ..platform.datastore import DataStore
from ..platform.entity import Entity
from ..platform.indexer import InvertedIndex, SentimentIndex
from ..platform.services import register_services
from ..platform.vinci import VinciBus
from ..eval.reporting import ascii_bar_chart, format_percent, format_table


@dataclass
class ReputationSummary:
    """Aggregated sentiment for one subject."""

    subject: str
    positive: int
    negative: int

    @property
    def total(self) -> int:
        return self.positive + self.negative

    @property
    def satisfaction(self) -> float:
        """Fraction of polar mentions that are positive."""
        if self.total == 0:
            return 0.0
        return self.positive / self.total


class ReputationManager:
    """End-to-end reputation tracking over the simulated platform."""

    def __init__(
        self,
        subjects: list[Subject],
        analyzer: SentimentAnalyzer | None = None,
        disambiguator: Disambiguator | None = None,
        num_partitions: int = 8,
        num_nodes: int = 4,
    ):
        if not subjects:
            raise ValueError("reputation tracking needs at least one subject")
        self._subjects = list(subjects)
        self._analyzer = analyzer or SentimentAnalyzer()
        self._disambiguator = disambiguator
        self._store = DataStore(num_partitions=num_partitions)
        self._num_nodes = num_nodes
        self._bus = VinciBus()
        self._index = InvertedIndex()
        self._sentiment_index = SentimentIndex()
        self._built = False

    # -- construction ---------------------------------------------------------------

    @property
    def store(self) -> DataStore:
        return self._store

    @property
    def bus(self) -> VinciBus:
        return self._bus

    @property
    def sentiment_index(self) -> SentimentIndex:
        return self._sentiment_index

    def load_documents(self, documents: Iterable[tuple[str, str]]) -> int:
        """Store ``(doc_id, text)`` pairs."""
        count = 0
        for doc_id, text in documents:
            self._store.store(Entity(entity_id=doc_id, content=text))
            count += 1
        return count

    def discover_feature_subjects(
        self,
        background_texts: Iterable[str],
        top_n: int = 20,
    ) -> list[Subject]:
        """Auto-register feature terms as tracked subjects.

        "Feature terms of the subject terms can be given by the
        end-users or automatically identified by the feature extractor."
        Runs bBNP + likelihood-ratio extraction with the loaded documents
        as D+ and *background_texts* as D−; newly found terms become
        subjects for the next :meth:`build`.
        """
        from ..core.features import FeatureExtractionConfig, FeatureExtractor

        if self._built:
            raise RuntimeError("discover features before build()")
        dplus = [entity.content for entity in self._store.scan()]
        extractor = FeatureExtractor(FeatureExtractionConfig(top_n=top_n))
        existing = {s.canonical.lower() for s in self._subjects}
        added: list[Subject] = []
        for feature in extractor.extract(dplus, list(background_texts)):
            if feature.term.lower() in existing:
                continue
            subject = Subject(feature.term)
            self._subjects.append(subject)
            added.append(subject)
        return added

    def build(self) -> None:
        """Mine every entity on the cluster (Figure 2) and build indices."""
        miner = SentimentMiner(
            self._subjects, analyzer=self._analyzer, disambiguator=self._disambiguator
        )
        pipeline = MinerPipeline([SentimentEntityMiner(miner)])
        cluster = Cluster(self._store, num_nodes=self._num_nodes, bus=self._bus)
        cluster.run_pipeline(pipeline)
        self._index = InvertedIndex()
        self._sentiment_index = SentimentIndex()
        for entity in self._store.scan():
            self._index.add_entity(entity)
            self._sentiment_index.add_all(judgments_from(entity))
        register_services(self._bus, self._store, self._index, self._sentiment_index)
        self._built = True

    # -- queries -----------------------------------------------------------------------

    def summary(self, subject: str) -> ReputationSummary:
        self._require_built()
        counts = self._sentiment_index.counts(subject)
        return ReputationSummary(
            subject=subject,
            positive=counts[Polarity.POSITIVE],
            negative=counts[Polarity.NEGATIVE],
        )

    def summaries(self) -> list[ReputationSummary]:
        """One summary per tracked subject, most-mentioned first."""
        self._require_built()
        out = [self.summary(s.canonical) for s in self._subjects]
        out.sort(key=lambda s: -s.total)
        return out

    def sentences(self, subject: str, polarity: str | None = None, limit: int = 10) -> list[dict]:
        """The Figure-5 listing through the hosted service."""
        self._require_built()
        payload = {"subject": subject, "limit": limit}
        if polarity:
            payload["polarity"] = polarity
        return self._bus.request("sentiment.sentences", payload)["data"]["rows"]

    # -- rendering ----------------------------------------------------------------------

    def render_product_summary(self, mask_names: bool = False) -> str:
        """Figure 4: per-product sentiment counts, optionally masked."""
        summaries = self.summaries()
        rows = []
        for i, summary in enumerate(summaries):
            name = _masked_name(i) if mask_names else summary.subject
            rows.append(
                [
                    name,
                    summary.positive,
                    summary.negative,
                    format_percent(summary.satisfaction),
                ]
            )
        return format_table(
            ["product", "positive", "negative", "satisfaction"],
            rows,
            title="Reputation summary (Figure 4)",
        )

    def render_sentences(self, subject: str, limit: int = 10) -> str:
        """Figure 5: sentiment-bearing sentences for one subject."""
        rows = [
            [row["polarity"], row["sentence"]]
            for row in self.sentences(subject, limit=limit)
        ]
        return format_table(
            ["polarity", "sentence"],
            rows,
            title=f"Sentiment-bearing sentences for {subject!r} (Figure 5)",
        )

    def render_satisfaction_chart(self, subjects: list[str] | None = None) -> str:
        """Figure 2 inset: satisfaction bars per subject."""
        self._require_built()
        names = subjects or [s.canonical for s in self._subjects]
        series = [
            (name, round(100 * self.summary(name).satisfaction, 1)) for name in names
        ]
        return ascii_bar_chart(
            series, title="Customer satisfaction (% positive mentions)", max_value=100.0
        )

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("call build() after load_documents() first")


def _masked_name(index: int) -> str:
    """Mask as the paper's screenshots do: Product A, Product B, ..."""
    letters = string.ascii_uppercase
    if index < len(letters):
        return f"Product {letters[index]}"
    return f"Product {index + 1}"
