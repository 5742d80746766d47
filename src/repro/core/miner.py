"""The sentiment miner: one stage-major engine for both operational modes.

Mode A — *predefined subjects* (paper Fig. 2): spotter → disambiguator →
sentiment-context formation → sentiment analyzer.

Mode B — *no predefined subjects* (paper Fig. 3): named-entity spotter →
sentiment-bearing sentence filter → analyzer; results feed the sentiment
index for query-time lookups.

The subject list picks the mode: a miner without subjects is Mode B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..obs import Obs
from ..obs.audit import AuditEntry
from ..nlp.tokens import TaggedSentence
from .analyzer import SentimentAnalyzer, audit_judgment
from .context import ContextBuilder, ContextWindowRule
from .disambiguation import Disambiguator
from .model import Polarity, SentimentJudgment, Subject
from .spotting import NamedEntitySpotter, SubjectSpotter

#: Nominal simulated cost one pipeline stage charges per engine call, so
#: per document on the ``mine_document`` path — keeps standalone-miner
#: span durations in the same currency the cluster uses (one entity ≈
#: 1.0 units across its stages).
STAGE_COST = 0.25


@dataclass
class MiningStats:
    """Counters describing one mining run."""

    documents: int = 0
    sentences: int = 0
    spots_found: int = 0
    spots_on_topic: int = 0
    judgments_polar: int = 0
    judgments_neutral: int = 0

    def merge(self, other: "MiningStats") -> None:
        self.documents += other.documents
        self.sentences += other.sentences
        self.spots_found += other.spots_found
        self.spots_on_topic += other.spots_on_topic
        self.judgments_polar += other.judgments_polar
        self.judgments_neutral += other.judgments_neutral


@dataclass
class MiningResult:
    """Judgments plus run statistics.

    ``audit`` carries the decision audit trail for the run — one entry
    per disambiguator keep/filter and per sentiment judgment — when the
    miner was built with an auditing :class:`~repro.obs.Obs` context;
    it stays empty under the zero-cost default.
    """

    judgments: list[SentimentJudgment] = field(default_factory=list)
    stats: MiningStats = field(default_factory=MiningStats)
    audit: list[AuditEntry] = field(default_factory=list)

    def polar_judgments(self) -> list[SentimentJudgment]:
        return [j for j in self.judgments if j.polarity.is_polar]

    def by_subject(self) -> dict[str, list[SentimentJudgment]]:
        out: dict[str, list[SentimentJudgment]] = {}
        for judgment in self.judgments:
            out.setdefault(judgment.subject_name, []).append(judgment)
        return out


class SentimentMiner:
    """Entity-level sentiment miner with two operational modes.

    A miner given subjects (or a ``spotter``) runs Mode A; a miner given
    neither runs Mode B, with named entities as its subjects.
    """

    def __init__(
        self,
        subjects: list[Subject] | None = None,
        analyzer: SentimentAnalyzer | None = None,
        disambiguator: Disambiguator | None = None,
        context_rule: ContextWindowRule | None = None,
        obs: Obs | None = None,
        spotter: SubjectSpotter | None = None,
    ):
        self._obs = obs if obs is not None else Obs.default()
        self._subjects = list(subjects or [])
        self._analyzer = analyzer or SentimentAnalyzer(obs=self._obs)
        self._disambiguator = disambiguator
        self._context_builder = ContextBuilder(context_rule)
        # ``spotter`` overrides the compiled default — the differential
        # test harness injects the naive reference implementation here.
        if spotter is not None:
            self._spotter = spotter
        else:
            self._spotter = SubjectSpotter(self._subjects) if self._subjects else None
        self._ne_spotter = NamedEntitySpotter()
        self._mode = "A" if self._spotter is not None else "B"

    @property
    def analyzer(self) -> SentimentAnalyzer:
        return self._analyzer

    @property
    def subjects(self) -> list[Subject]:
        return list(self._subjects)

    def mine_document(self, text: str, document_id: str = "") -> MiningResult:
        """Run the Fig. 2 (Mode A) or Fig. 3 (Mode B) pipeline on one document."""
        return self._mine(
            [(document_id, text)], "mine.document", document_id=document_id, mode=self._mode
        )

    def mine_corpus(
        self, documents: Iterable[tuple[str, str]]
    ) -> MiningResult:
        """Mine ``(document_id, text)`` pairs; results are concatenated."""
        total = MiningResult()
        with self._obs.tracer.span("mine.corpus", mode=self._mode) as span:
            for document_id, text in documents:
                result = self.mine_document(text, document_id)
                total.judgments.extend(result.judgments)
                total.stats.merge(result.stats)
                total.audit.extend(result.audit)
            span.set_attribute("documents", total.stats.documents)
            span.set_attribute("judgments", len(total.judgments))
        return total

    def mine_batch(self, documents: Iterable[tuple[str, str]]) -> MiningResult:
        """Mine a whole document batch in one pass of the engine.

        The result is byte-identical to :meth:`mine_corpus` on the same
        documents; only the simulated cost differs, charged per stage
        per batch rather than per stage per document.
        """
        documents = list(documents)
        return self._mine(documents, "mine.batch", mode=self._mode, documents=len(documents))

    def _mine(
        self, documents: list[tuple[str, str]], span_name: str, /, **attributes: object
    ) -> MiningResult:
        """The engine of both modes: one tight loop per pipeline stage.

        Splits every document, then spots them all, then disambiguates,
        then analyzes, so each stage's tables and caches stay hot across
        the batch.  Mode B's spot stage tags each sentence and spots its
        named entities; its analyze stage judges only the spots in
        sentiment-bearing sentences, with no disambiguation and no
        context window.  Judgments come out in document order, and
        ``MiningResult.audit`` is reassembled per document even though
        the global trail records stage-major.  Each stage but the split
        charges ``STAGE_COST`` once per call, so a one-document call
        costs what one document always has.
        """
        obs = self._obs
        tracer = obs.tracer
        audit = obs.audit
        analyzer = self._analyzer
        total = MiningResult()
        with tracer.span(span_name, **attributes) as outer:
            split_text = analyzer.splitter.split_text
            sentences_by_doc = [split_text(text) for _, text in documents]
            total.stats.documents = len(documents)
            total.stats.sentences = sum(map(len, sentences_by_doc))
            tagged_by_doc: list[list[TaggedSentence]] | None = None
            with tracer.span("stage.spot", sentences=total.stats.sentences) as span:
                obs.clock.advance(STAGE_COST)
                if self._spotter is not None:
                    spots_by_doc = [
                        self._spotter.spot_document(sentences, document_id)
                        for (document_id, _), sentences in zip(documents, sentences_by_doc)
                    ]
                else:
                    tagged_by_doc = [list(map(analyzer.tag, s)) for s in sentences_by_doc]
                    spots_by_doc = [
                        self._ne_spotter.spot_document(tagged, document_id)
                        for (document_id, _), tagged in zip(documents, tagged_by_doc)
                    ]
                total.stats.spots_found = sum(map(len, spots_by_doc))
                span.set_attribute("spots", total.stats.spots_found)
            audit_by_doc: list[list[AuditEntry]] = [[] for _ in documents]
            if self._disambiguator is not None and tagged_by_doc is None:
                with tracer.span("stage.disambiguate", spots=total.stats.spots_found) as span:
                    obs.clock.advance(STAGE_COST)
                    for position, sentences in enumerate(sentences_by_doc):
                        mark = audit.mark()
                        spots_by_doc[position] = self._disambiguator.disambiguate(
                            sentences, spots_by_doc[position], audit=audit
                        ).on_topic
                        audit_by_doc[position] = audit.since(mark)
                    span.set_attribute("on_topic", sum(map(len, spots_by_doc)))
            with tracer.span(
                "stage.analyze",
                sentences_with_spots=sum(
                    len({spot.sentence_index for spot in spots}) for spots in spots_by_doc
                ),
            ):
                obs.clock.advance(STAGE_COST)
                rule = self._context_builder.rule
                for position, sentences in enumerate(sentences_by_doc):
                    mark = audit.mark()
                    spots = spots_by_doc[position]
                    if tagged_by_doc is None:
                        judged = analyzer.judge_spotted(sentences, spots, rule)
                    else:
                        judgments = analyzer.judge_bearing(tagged_by_doc[position], spots)
                        judged = [(judgment, False) for judgment in judgments]
                    self._record(total, judged)
                    audit_by_doc[position].extend(audit.since(mark))
            # One judgment per judged spot: every spot the disambiguator
            # kept (Mode A), or every spot in a sentiment-bearing
            # sentence (Mode B).
            total.stats.spots_on_topic = len(total.judgments)
            for entries in audit_by_doc:
                total.audit.extend(entries)
            outer.set_attribute("judgments", len(total.judgments))
        self._publish(total)
        return total

    def contexts(self, text: str, document_id: str = "") -> Iterator:
        """Yield the sentiment contexts mode A would analyze (for tooling)."""
        if self._spotter is None:
            raise ValueError("mode A requires a predefined subject list")
        sentences = self._analyzer.splitter.split_text(text)
        for spot in self._spotter.spot_document(sentences, document_id):
            yield self._context_builder.build(sentences, spot)

    # -- shared ------------------------------------------------------------------------

    def _record(
        self,
        result: MiningResult,
        judged: list[tuple[SentimentJudgment, bool]],
    ) -> None:
        """Accumulate judgments into *result*, auditing each decision.

        Each judgment is paired with whether it inherited its polarity
        through the context window.
        """
        audit = self._obs.audit
        for judgment, inherited in judged:
            result.judgments.append(judgment)
            if judgment.polarity is Polarity.NEUTRAL:
                result.stats.judgments_neutral += 1
            else:
                result.stats.judgments_polar += 1
            audit_judgment(audit, judgment, inherited)

    def _publish(self, result: MiningResult) -> None:
        """Mirror the run's :class:`MiningStats` into the metrics registry."""
        metrics = self._obs.metrics
        stats = result.stats
        self._analyzer.publish_memo_metrics()
        metrics.counter("miner.documents").inc(stats.documents)
        metrics.counter("miner.sentences").inc(stats.sentences)
        metrics.counter("miner.spots_found").inc(stats.spots_found)
        metrics.counter("miner.spots_on_topic").inc(stats.spots_on_topic)
        metrics.counter("miner.judgments_polar").inc(stats.judgments_polar)
        metrics.counter("miner.judgments_neutral").inc(stats.judgments_neutral)
