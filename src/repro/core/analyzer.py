"""The sentiment analyzer: pattern matching and relationship analysis.

Implements Section 4.2 of the paper.  For each parsed clause:

1. identify the predicate and look its lemma up in the sentiment pattern
   database;
2. take the *best matching* pattern — the first (highest-priority) rule
   whose target component is present in the clause and, for transfer
   rules, whose source component is present and sentiment-bearing;
3. compute the polarity: the rule's fixed polarity, or the source
   phrase's polarity (optionally inverted by ``~``);
4. reverse the polarity when the verb phrase is negated ("if an adverb
   with negative meaning appears in a verb phrase, the sentiment miner
   reverses the sentiment of the sentence assigned by the corresponding
   sentiment pattern");
5. assign the polarity to the target phrase, and through it to any
   subject spot that overlaps the target.

Spots that receive no assignment are judged NEUTRAL — the paper includes
neutral cases in its accuracy computation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..lexicons.negation import NEGATION_VERBS
from ..obs import Obs
from ..obs.audit import CONTEXT_WINDOW, NO_MATCH, PATTERN_MATCH, AuditTrail, NullAuditTrail
from ..obs.metrics import Counter
from ..nlp import penn
from ..nlp.lemmatizer import Lemmatizer, lemmatize
from ..nlp.parse_cache import ParseMemo
from ..nlp.parser import Clause, SentenceParse, ShallowParser
from ..nlp.postagger import PosTagger
from ..nlp.sentences import SentenceSplitter
from ..nlp.tokenizer import Tokenizer
from ..nlp.tokens import Chunk, Sentence, Span, TaggedSentence
from .context import ContextWindowRule
from .lexicon import SentimentLexicon, default_lexicon
from .model import Polarity, Provenance, SentimentJudgment, Spot, Subject
from .patterns import ComponentRef, SentimentPattern, SentimentPatternDB, default_pattern_db
from .phrase import PhraseScorer
from .spotting import SubjectSpotter


@dataclass(frozen=True)
class ClauseAssignment:
    """A polarity assigned to a set of character spans in one clause."""

    spans: tuple[Span, ...]
    polarity: Polarity
    provenance: Provenance

    def covers(self, span: Span) -> bool:
        """True when *span* overlaps any of the assignment's spans."""
        return any(s.overlaps(span) for s in self.spans)


def audit_judgment(
    audit: AuditTrail | NullAuditTrail,
    judgment: SentimentJudgment,
    inherited: bool = False,
) -> None:
    """Record why *judgment* resolved the way it did.

    *inherited* marks a polarity taken from the context window
    (:meth:`SentimentAnalyzer.judge_spotted`); otherwise the reason is a
    pattern match or no match.
    """
    if not audit.enabled:
        return
    provenance = judgment.provenance
    if inherited:
        reason = CONTEXT_WINDOW
    elif provenance is not None and provenance.pattern:
        reason = PATTERN_MATCH
    else:
        reason = NO_MATCH
    audit.record_sentiment(
        judgment.subject_name,
        judgment.polarity.value,
        reason,
        document_id=judgment.spot.document_id,
        sentence_index=judgment.spot.sentence_index,
        pattern=provenance.pattern if provenance else "",
        predicate=provenance.predicate if provenance else "",
        lexicon_entries=tuple(provenance.sentiment_words) if provenance else (),
        negated=bool(provenance.negated) if provenance else False,
    )


class SentimentAnalyzer:
    """Sentence-level sentiment extraction with target association."""

    def __init__(
        self,
        lexicon: SentimentLexicon | None = None,
        pattern_db: SentimentPatternDB | None = None,
        weighted_phrases: bool = False,
        use_patterns: bool = True,
        handle_negation: bool = True,
        obs: Obs | None = None,
        parse_memo_size: int = 128,
        tag_memo_size: int = 256,
        split_memo_size: int = 64,
    ):
        self._obs = obs if obs is not None else Obs.default()
        self._lexicon = lexicon if lexicon is not None else default_lexicon()
        self._patterns = pattern_db if pattern_db is not None else default_pattern_db()
        # The tagger and lemmatizer must know every pattern predicate as a
        # verb, or inflected forms like "fixes" fall through to noun tags.
        # Predicates override lexicon POS entries: many sentiment nouns
        # ("mistrust", "crash", "praise") double as pattern predicates, and
        # the contextual tagging rules can still flip a VB prior back to NN
        # in noun positions, while a NN prior would kill the pattern match.
        predicates = set(self._patterns.predicates)
        tagger_lexicon = self._lexicon.tagger_entries()
        for predicate in predicates:
            tagger_lexicon[predicate] = "VB"
        self._tagger = PosTagger(extra_lexicon=tagger_lexicon, memo_size=tag_memo_size)
        self._parser = ShallowParser(lemmatizer=Lemmatizer(extra_verb_bases=predicates))
        # Hot-path tables, precompiled once per analyzer (DESIGN.md §5g):
        # the predicate lemma set (bears_sentiment probes it per token),
        # the bounded parse memo, and a small cache of compiled subject
        # spotters so repeated analyze_text calls with the same subject
        # list reuse one automaton instead of rebuilding it per document.
        self._predicate_lemmas = frozenset(predicates)
        self._parse_memo = ParseMemo(self._parser, maxsize=parse_memo_size)
        self._spotter_cache: OrderedDict[tuple[Subject, ...], SubjectSpotter] = OrderedDict()
        self._scorer = PhraseScorer(self._lexicon, weighted=weighted_phrases)
        self._tokenizer = Tokenizer()
        self._splitter = SentenceSplitter(self._tokenizer, memo_size=split_memo_size)
        # Ablation switches (DESIGN.md "ablations"): pattern DB off falls
        # back to pure phrase polarity around the spot; negation off skips
        # step 4.
        self._use_patterns = use_patterns
        self._handle_negation = handle_negation
        # Per-sentence, per-clause and per-match counters, each bound on
        # its first increment (see _count).
        self._counters: dict[str | tuple[str, str], Counter] = {}

    # -- pipeline entry points -------------------------------------------------

    @property
    def lexicon(self) -> SentimentLexicon:
        return self._lexicon

    @property
    def tagger(self) -> PosTagger:
        return self._tagger

    @property
    def parse_memo(self) -> ParseMemo:
        return self._parse_memo

    @property
    def splitter(self) -> SentenceSplitter:
        return self._splitter

    def tag(self, sentence: Sentence) -> TaggedSentence:
        """POS-tag with the lexicon-extended tagger."""
        return self._tagger.tag(sentence)

    def _count(self, name: str, amount: int = 1, pattern: str | None = None) -> None:
        """Increment the registry counter *name*, labelled by *pattern* if given.

        The handle is resolved once and kept, sparing the registry's
        label-key lookup on every sentence, clause and match.  It is
        resolved on the first increment, as before, so the registry
        holds the same series it would without the handle table.
        """
        key = name if pattern is None else (name, pattern)
        handle = self._counters.get(key)
        if handle is None:
            labels = {} if pattern is None else {"pattern": pattern}
            handle = self._counters[key] = self._obs.metrics.counter(name, **labels)
        handle.inc(amount)

    def _parse(self, tagged: TaggedSentence) -> SentenceParse:
        """Parse through the bounded memo, mirroring hit/miss metrics."""
        parse, from_cache = self._parse_memo.parse_with_status(tagged)
        self._count(
            "analyzer.parse_memo_hits" if from_cache else "analyzer.parse_memo_misses"
        )
        return parse

    def publish_memo_metrics(self) -> None:
        """Mirror the nlp-layer memo counters into the metrics registry.

        The nlp package sits below obs in the import order (ARCH001), so
        the memo classes keep plain integer counters; the analyzer owns
        the registry handle and republishes them as ``nlp.memo_*``
        series labelled by memo.
        """
        metrics = self._obs.metrics
        stats_by_memo = {
            "split": self._splitter.memo_stats(),
            "tag": self._tagger.memo_stats(),
            "parse": self._parse_memo.memo_stats(),
        }
        for memo, stats in stats_by_memo.items():
            metrics.counter("nlp.memo_hits", memo=memo).set(stats["hits"])
            metrics.counter("nlp.memo_misses", memo=memo).set(stats["misses"])
            metrics.counter("nlp.memo_evictions", memo=memo).set(stats["evictions"])

    def _spotter_for(self, subjects: list[Subject]) -> SubjectSpotter:
        """A compiled spotter for *subjects*, cached per subject tuple."""
        key = tuple(subjects)
        spotter = self._spotter_cache.get(key)
        if spotter is None:
            spotter = SubjectSpotter(subjects)
            self._spotter_cache[key] = spotter
            if len(self._spotter_cache) > 8:
                self._spotter_cache.popitem(last=False)
        else:
            self._spotter_cache.move_to_end(key)
        return spotter

    def analyze_sentence(self, tagged: TaggedSentence) -> list[ClauseAssignment]:
        """All polarity assignments the sentence's clauses yield."""
        count = self._count
        count("analyzer.sentences")
        if tagged.tokens[-1].text == "?":
            # Questions ask about sentiment; they do not assert it.
            count("analyzer.questions_skipped")
            return []
        parse = self._parse(tagged)
        assignments: list[ClauseAssignment] = []
        for clause in parse.clauses:
            count("analyzer.clauses")
            if clause.hypothetical:
                # "If the zoom were better ..." asserts nothing.
                count("analyzer.hypothetical_skipped")
                continue
            assignment = self._analyze_clause(clause)
            if assignment is not None:
                assignments.append(assignment)
                contrast = self._contrast_assignment(clause, assignment)
                if contrast is not None:
                    assignments.append(contrast)
        if not self._use_patterns:
            assignments = self._lexicon_only_assignments(tagged)
        count("analyzer.assignments", len(assignments))
        return assignments

    def judge_spots(self, tagged: TaggedSentence, spots: list[Spot]) -> list[SentimentJudgment]:
        """One judgment per spot; NEUTRAL when nothing matched it."""
        assignments = self.analyze_sentence(tagged)
        sentence_span = tagged.span
        judgments: list[SentimentJudgment] = []
        for spot in spots:
            matched = None
            for assignment in assignments:
                if assignment.covers(spot.span):
                    matched = assignment
                    break
            if matched is None:
                judgments.append(
                    SentimentJudgment(spot=spot, polarity=Polarity.NEUTRAL, sentence_span=sentence_span)
                )
            else:
                judgments.append(
                    SentimentJudgment(
                        spot=spot,
                        polarity=matched.polarity,
                        provenance=matched.provenance,
                        sentence_span=sentence_span,
                    )
                )
        return judgments

    def analyze_text(self, text: str, subjects: list[Subject], document_id: str = "") -> list[SentimentJudgment]:
        """Full pipeline on raw text: tokenize, spot, tag, judge."""
        with self._obs.tracer.span(
            "analyze.text", document_id=document_id, subjects=len(subjects)
        ) as span:
            sentences = self._splitter.split_text(text)
            spots = self._spotter_for(subjects).spot_document(sentences, document_id)
            judgments = [judgment for judgment, _ in self.judge_spotted(sentences, spots)]
            span.set_attribute("sentences", len(sentences))
            span.set_attribute("judgments", len(judgments))
            for judgment in judgments:
                audit_judgment(self._obs.audit, judgment)
            self.publish_memo_metrics()
            return judgments

    def judge_spotted(
        self,
        sentences: list[Sentence],
        spots: list[Spot],
        rule: ContextWindowRule = ContextWindowRule(),
    ) -> list[tuple[SentimentJudgment, bool]]:
        """Judge every spot against its own sentence, in sentence order.

        Sentences are looked up by :attr:`Sentence.index`, so *sentences*
        may be a splitter's full list or the sentences an entity's
        annotation layers rebuild; spots whose sentence is absent are
        skipped.  Each judgment is paired with whether it inherited its
        polarity through the context *rule*'s window.
        """
        by_index = {sentence.index: sentence for sentence in sentences}
        spots_by_sentence: dict[int, list[Spot]] = {}
        for spot in spots:
            spots_by_sentence.setdefault(spot.sentence_index, []).append(spot)
        judged: list[tuple[SentimentJudgment, bool]] = []
        for index, sentence_spots in sorted(spots_by_sentence.items()):
            sentence = by_index.get(index)
            if sentence is None:
                continue
            judgments = self.judge_spots(self.tag(sentence), sentence_spots)
            judged.extend(self._widen_with_context(by_index, index, judgments, rule))
        return judged

    def _widen_with_context(
        self,
        by_index: dict[int, Sentence],
        index: int,
        judgments: list[SentimentJudgment],
        rule: ContextWindowRule,
    ) -> list[tuple[SentimentJudgment, bool]]:
        """Context-window attribution for anaphora.

        When the window rule includes neighbouring sentences, a spot left
        NEUTRAL by its own sentence inherits a polarity assigned to a bare
        pronoun subject in a window sentence ("I tested the zoom.  It is
        superb.") — the paper's "possibly some surrounding text of the
        sentence determined by the sentiment context window formation
        rule".  Inherited judgments are flagged so the audit trail can
        label them ``context-window`` rather than ``pattern-match``.
        """
        if (rule.sentences_before == 0 and rule.sentences_after == 0) or all(
            j.polarity.is_polar for j in judgments
        ):
            return [(judgment, False) for judgment in judgments]
        for i in range(index - rule.sentences_before, index + rule.sentences_after + 1):
            neighbor = by_index.get(i)
            if i == index or neighbor is None:
                continue
            assignment = self.pronoun_assignment(self.tag(neighbor))
            if assignment is not None:
                break
        else:
            return [(judgment, False) for judgment in judgments]
        return [
            (judgment, False)
            if judgment.polarity.is_polar
            else (
                SentimentJudgment(
                    spot=judgment.spot,
                    polarity=assignment.polarity,
                    provenance=assignment.provenance,
                    sentence_span=judgment.sentence_span,
                ),
                True,
            )
            for judgment in judgments
        ]

    # -- clause analysis ---------------------------------------------------------

    def _analyze_clause(self, clause: Clause) -> ClauseAssignment | None:
        # Try the head predicate first, then earlier verbs in the group:
        # "fails to meet our expectations" has no pattern for "meet" but
        # "fail" carries the sentiment itself.
        for lemma, verb_index in self._candidate_predicates(clause):
            assignment = self._match_patterns(clause, lemma, verb_index)
            if assignment is not None:
                return assignment
        return None

    def _candidate_predicates(self, clause: Clause) -> list[tuple[str, int]]:
        verbs = [t for t in clause.predicate.tokens if t.tag in penn.VERB_TAGS]
        candidates: list[tuple[str, int]] = [(clause.predicate_lemma, len(verbs) - 1)]
        for index in range(len(verbs) - 2, -1, -1):
            lemma = lemmatize(verbs[index].text, verbs[index].tag)
            if lemma not in {c for c, _ in candidates}:
                candidates.append((lemma, index))
        return candidates

    def _match_patterns(
        self, clause: Clause, lemma: str, verb_index: int
    ) -> ClauseAssignment | None:
        negated = clause.negated or self._negation_verb_before(clause, verb_index)
        for pattern in self._patterns.for_predicate(lemma):
            target_chunk = self._resolve(clause, pattern.target)
            if target_chunk is None:
                continue
            polarity, words, source_role, phrase_negated = self._pattern_polarity(
                clause, pattern
            )
            if polarity is None or not polarity.is_polar:
                continue
            # A negative determiner inside the source phrase ("has no
            # flaws") has already flipped the phrase score; flipping
            # again at clause level would double-count the same "no".
            flip = negated and not phrase_negated and self._handle_negation
            if flip:
                polarity = polarity.invert()
                self._count("analyzer.negations_applied")
            pattern_text = pattern.format()
            self._count("analyzer.pattern_matches", pattern=pattern_text)
            provenance = Provenance(
                predicate=lemma,
                pattern=pattern_text,
                source_role=source_role,
                target_role=pattern.target.role,
                sentiment_words=words,
                negated=flip,
                holder=self._opinion_holder(clause, pattern),
            )
            spans = self._target_spans(clause, pattern.target, target_chunk)
            return ClauseAssignment(spans=spans, polarity=polarity, provenance=provenance)
        return None

    @staticmethod
    def _opinion_holder(clause: Clause, pattern: SentimentPattern) -> str:
        """The opinion source: the writer, or a named third party.

        When the sentiment lands on the object ("Analysts criticized X"),
        the grammatical subject holds the opinion — unless it is a
        first-person pronoun, which still means the writer.
        """
        if pattern.target.role != "OP" or clause.subject is None:
            return "writer"
        subject_text = clause.subject.text
        if subject_text.lower() in {"i", "we", "me", "us"}:
            return "writer"
        return subject_text

    def _pattern_polarity(
        self, clause: Clause, pattern: SentimentPattern
    ) -> tuple[Polarity | None, tuple[str, ...], str, bool]:
        if pattern.polarity is not None:
            return pattern.polarity, (clause.predicate_lemma,), "", False
        source_chunk = self._resolve(clause, pattern.source)
        if source_chunk is None:
            return None, (), pattern.source.role, False
        sentiment = self._scorer.score_chunk(source_chunk)
        if not sentiment.is_polar:
            return None, (), pattern.source.role, False
        polarity = sentiment.polarity
        if pattern.source.invert:
            polarity = polarity.invert()
        return polarity, sentiment.sentiment_words, pattern.source.role, sentiment.negated

    @staticmethod
    def _resolve(clause: Clause, ref: ComponentRef) -> Chunk | None:
        """The clause chunk a component reference points at, if present."""
        if ref.role == "SP":
            return clause.subject
        if ref.role == "OP":
            return clause.object
        if ref.role == "CP":
            return clause.complement
        pp = clause.prep_phrase(*ref.prepositions)
        return pp.noun_phrase if pp is not None else None

    def _target_spans(
        self, clause: Clause, ref: ComponentRef, target_chunk: Chunk
    ) -> tuple[Span, ...]:
        """Character spans the assignment covers.

        A subject target also covers its pre-verbal PP attachments, so a
        spot inside "the support *in the NR70 series*" receives the
        sentiment assigned to the subject.
        """
        spans = [target_chunk.span]
        if ref.role == "SP":
            for pp in clause.prep_phrases:
                if (
                    pp.noun_phrase.span.start >= target_chunk.span.end
                    and pp.noun_phrase.span.end <= clause.predicate.span.start
                ):
                    spans.append(pp.noun_phrase.span)
        return tuple(spans)

    @staticmethod
    def _negation_verb_before(clause: Clause, verb_index: int) -> bool:
        """Negation verb earlier in the group than the matched verb.

        "fails to impress" flips the polarity that "impress" assigns, but
        when "fail" itself is the matched predicate there is nothing to
        flip.
        """
        verbs = [t for t in clause.predicate.tokens if t.tag in penn.VERB_TAGS]
        if verb_index <= 0:
            return False
        return any(
            lemmatize(v.text, v.tag) in NEGATION_VERBS for v in verbs[:verb_index]
        )

    def _contrast_assignment(
        self, clause: Clause, assignment: ClauseAssignment
    ) -> ClauseAssignment | None:
        """Contrastive phrases receive the opposite polarity.

        "Unlike X, Y is great" and comparatives "Y is better than X" both
        imply X sits on the other side of the judgment.
        """
        pp = clause.prep_phrase("unlike", "than")
        if pp is None:
            return None
        provenance = Provenance(
            predicate=clause.predicate_lemma,
            pattern=f"contrast({pp.preposition})",
            target_role="PP",
            sentiment_words=assignment.provenance.sentiment_words,
            negated=assignment.provenance.negated,
        )
        return ClauseAssignment(
            spans=(pp.noun_phrase.span,),
            polarity=assignment.polarity.invert(),
            provenance=provenance,
        )

    def pronoun_assignment(self, tagged: TaggedSentence) -> ClauseAssignment | None:
        """An assignment whose target is a bare subject pronoun, if any.

        Supports the context-window rule: "It is superb." carries
        sentiment that belongs to whatever the previous sentence named.
        """
        pronouns = {"it", "this", "they", "these"}
        by_start = {t.start: t for t in tagged.tokens}
        for assignment in self.analyze_sentence(tagged):
            for span in assignment.spans:
                token = by_start.get(span.start)
                if (
                    token is not None
                    and token.end == span.end
                    and token.lower in pronouns
                ):
                    return assignment
        return None

    # -- ablation fallback ---------------------------------------------------------

    def _lexicon_only_assignments(self, tagged: TaggedSentence) -> list[ClauseAssignment]:
        """Pattern-free mode: whole-sentence phrase polarity (ablation)."""
        sentiment = self._scorer.score_tokens(tagged.tokens)
        if not sentiment.is_polar:
            return []
        provenance = Provenance(
            pattern="lexicon-only",
            sentiment_words=sentiment.sentiment_words,
            negated=sentiment.negated,
        )
        return [
            ClauseAssignment(
                spans=(tagged.span,), polarity=sentiment.polarity, provenance=provenance
            )
        ]

    # -- sentiment-bearing filter (mode B) --------------------------------------

    def judge_bearing(
        self, tagged_sentences: list[TaggedSentence], spots: list[Spot]
    ) -> list[SentimentJudgment]:
        """Judge the spots of sentiment-bearing sentences, in sentence order.

        Mode B's filter and analyzer: a sentence with no spot, or with
        no sentiment term, is skipped wholesale.  Spots are matched to
        sentences by :attr:`TaggedSentence.index`, and judged on the
        tags they come with, so the platform adapter keeps its entity's
        POS-layer tags.
        """
        spots_by_sentence: dict[int, list[Spot]] = {}
        for spot in spots:
            spots_by_sentence.setdefault(spot.sentence_index, []).append(spot)
        judgments: list[SentimentJudgment] = []
        for tagged in tagged_sentences:
            sentence_spots = spots_by_sentence.get(tagged.index)
            if sentence_spots and self.bears_sentiment(tagged):
                judgments.extend(self.judge_spots(tagged, sentence_spots))
        return judgments

    def bears_sentiment(self, tagged: TaggedSentence) -> bool:
        """Quick test: does the sentence contain any sentiment term?

        Mode B "spots sentiment terms and analyzes each sentiment-bearing
        sentence"; sentences that fail this test are skipped wholesale.
        """
        polarity = self._lexicon.polarity
        for token in tagged.tokens:
            if polarity(token.text, token.tag).is_polar:
                return True
            # Predicate presence alone (token.lower in the precompiled
            # self._predicate_lemmas) does not bear sentiment.
        return False
