"""Shallow clause parser: predicate identification and phrase roles.

The paper parses each sentiment context with the Talent shallow parser and
then runs "semantic relationship analysis" over the parse.  The sentiment
pattern database refers to exactly four sentence components:

* ``SP`` — subject phrase,
* ``OP`` — object phrase,
* ``CP`` — complement (predicate adjective or predicate nominal),
* ``PP`` — prepositional phrase, addressed by its preposition.

This parser reproduces that contract.  It chunks the tagged sentence into
noun phrases and verb groups, segments it into clauses at coordination and
subordination boundaries, and assigns the roles positionally:

* the subject is the last NP before the clause's verb group;
* post-verbal NPs become the object — or the complement when the verb is
  copular ("be", "seem", "look", ...);
* a post-verbal adjective (with optional adverb premodifiers) is the
  complement;
* ``IN`` + NP forms a prepositional phrase attached to the clause.

Verb-group negation ("does not work", "never fails") is detected here and
surfaced on the clause, because the analyzer reverses pattern-assigned
sentiment "if an adverb with negative meaning appears in a verb phrase"
(Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import penn
from .chunker import Chunker
from .lemmatizer import Lemmatizer
from .tokens import Chunk, TaggedSentence, TaggedToken

#: Copular verbs whose post-verbal material is a complement, not an object.
COPULAR_VERBS = frozenset(
    "be seem look appear remain stay sound feel smell taste prove become get turn".split()
)

#: Adverbs with negative meaning (paper Section 4.2 lists not, no, never,
#: hardly, seldom, little); "no" and "little" act at determiner positions.
NEGATIVE_ADVERBS = frozenset("not n't never hardly seldom rarely scarcely barely".split())
NEGATIVE_DETERMINERS = frozenset({"no"})

#: Tokens that open a new clause.
CLAUSE_BREAK_WORDS = frozenset(
    "because although though while whereas unless if since when after before "
    "which who whom that whether".split()
)


def is_negator(tok: TaggedToken) -> bool:
    """A negative adverb, or a negative determiner at a determiner position."""
    return tok.lower in NEGATIVE_ADVERBS or (tok.lower in NEGATIVE_DETERMINERS and tok.tag == "DT")


@dataclass(frozen=True)
class PrepPhrase:
    """A prepositional phrase: the preposition token plus its NP."""

    preposition: str
    noun_phrase: Chunk

    @property
    def text(self) -> str:
        return f"{self.preposition} {self.noun_phrase.text}"


@dataclass
class Clause:
    """One clause: a predicate verb group with its role-labelled phrases."""

    predicate: Chunk
    predicate_lemma: str
    subject: Chunk | None = None
    objects: list[Chunk] = field(default_factory=list)
    complement: Chunk | None = None
    prep_phrases: list[PrepPhrase] = field(default_factory=list)
    negated: bool = False
    #: True for clauses opened by "if"/"unless"/"whether": hypothetical
    #: content asserts no sentiment ("If the zoom were better ...").
    hypothetical: bool = False

    @property
    def object(self) -> Chunk | None:
        """The first (direct) object, if any."""
        return self.objects[0] if self.objects else None

    def prep_phrase(self, *prepositions: str) -> PrepPhrase | None:
        """First PP whose preposition is one of *prepositions*."""
        wanted = {p.lower() for p in prepositions}
        for pp in self.prep_phrases:
            if pp.preposition.lower() in wanted:
                return pp
        return None

    @property
    def is_copular(self) -> bool:
        return self.predicate_lemma in COPULAR_VERBS


@dataclass
class SentenceParse:
    """Parse of one sentence: its clauses in textual order."""

    sentence: TaggedSentence
    clauses: list[Clause]

    @property
    def main_clause(self) -> Clause | None:
        """The first clause — the main predicate in almost all our inputs."""
        return self.clauses[0] if self.clauses else None

    def clause_covering(self, start: int, end: int) -> Clause | None:
        """The clause whose phrases overlap the character range, if any."""
        for clause in self.clauses:
            chunks: list[Chunk] = [clause.predicate]
            chunks.extend(c for c in (clause.subject, clause.complement) if c)
            chunks.extend(clause.objects)
            chunks.extend(pp.noun_phrase for pp in clause.prep_phrases)
            for chunk in chunks:
                if chunk.span.start < end and start < chunk.span.end:
                    return clause
        return None


class ShallowParser:
    """Chunk-and-assign shallow parser (Talent substitute)."""

    def __init__(self, chunker: Chunker | None = None, lemmatizer: Lemmatizer | None = None):
        self._chunker = chunker or Chunker()
        self._lemmatizer = lemmatizer or Lemmatizer()

    def parse(self, sentence: TaggedSentence) -> SentenceParse:
        """Parse *sentence* into clauses with phrase roles."""
        return SentenceParse(sentence, [clause for clause, _ in self.parse_clauses(sentence)])

    def parse_clauses(self, sentence: TaggedSentence) -> list[tuple[Clause, tuple[int, int]]]:
        """The clauses of *sentence*, each with its segment's token range.

        The range is the ``[start, end)`` token-index slice of the clause
        segment the clause was parsed from: the scope
        :meth:`is_negated` scans for negators.
        """
        tokens = sentence.tokens
        clauses: list[tuple[Clause, tuple[int, int]]] = []
        pending_pps: list[PrepPhrase] = []
        for bounds in self._segment(sentence):
            segment = tokens[bounds[0] : bounds[1]]
            clause = self._parse_segment(segment)
            if clause is None:
                # Verbless segment ("Unlike the T series CLIEs, ..."):
                # its PPs attach to the clause that follows.
                pending_pps.extend(self._orphan_pps(segment))
                continue
            if pending_pps:
                clause.prep_phrases = pending_pps + clause.prep_phrases
                pending_pps = []
            clauses.append((clause, bounds))
        # A coordinated clause with no subject of its own inherits the
        # previous clause's subject ("The zoom is fast and works well").
        for (prev, _), (cur, _) in zip(clauses, clauses[1:]):
            if cur.subject is None:
                cur.subject = prev.subject
        return clauses

    # -- clause segmentation ---------------------------------------------------

    def _segment(self, sentence: TaggedSentence) -> list[tuple[int, int]]:
        """Split the token stream into clause segments.

        A boundary opens before a subordinator/relativizer, and at a
        coordinating conjunction or comma/semicolon *only if* the remainder
        contains its own verb group (otherwise "fast and light" would be
        split apart).  Each segment is returned as its ``[start, end)``
        token-index range; a conjunction or comma that opens a boundary
        belongs to no segment.
        """
        tokens = sentence.tokens
        segments: list[tuple[int, int]] = []
        start = 0
        for i, tok in enumerate(tokens):
            is_break = dropped = False
            if tok.lower in CLAUSE_BREAK_WORDS and (
                tok.tag in {"IN", "DT"} or tok.tag in penn.WH_TAGS
            ):
                is_break = self._has_verb_ahead(tokens, i + 1)
            elif tok.tag == "CC" or tok.text in {",", ";", ":"}:
                is_break = dropped = self._starts_new_clause(tokens, i + 1)
            if is_break and i > start:
                segments.append((start, i))
                # The conjunction/punctuation itself is dropped; a
                # subordinator opens the next segment.
                start = i + 1 if dropped else i
        if len(tokens) > start:
            segments.append((start, len(tokens)))
        return segments

    @staticmethod
    def _has_verb_ahead(tokens: list[TaggedToken], start: int) -> bool:
        return any(t.tag in penn.VERB_TAGS or t.tag == "MD" for t in tokens[start:])

    def _starts_new_clause(self, tokens: list[TaggedToken], start: int) -> bool:
        """After a CC/comma, does a new clause start?

        Either a fresh subject followed by a verb ("..., but the flash is
        weak") or an immediate coordinated verb phrase ("... and works
        well", subject inherited).  "fast and sharp" has neither and stays
        in the current clause.
        """
        i = start
        n = len(tokens)
        if i < n and tokens[i].tag == "CC":
            i += 1
        saw_nominal = False
        saw_adjective = False
        while i < n:
            tag = tokens[i].tag
            if tag in penn.NOUN_TAGS or tag in {"PRP", "DT", "PRP$", "EX"}:
                saw_nominal = True
            elif tag in penn.VERB_TAGS or tag == "MD":
                # Finite verb right after the conjunction = VP coordination.
                return saw_nominal or not saw_adjective
            elif penn.is_adverb(tag) or tag == "CD":
                pass  # premodifiers
            elif tag in penn.ADJECTIVE_TAGS:
                saw_adjective = True
            else:
                return False
            i += 1
        return False

    # -- per-segment role assignment --------------------------------------------

    def _parse_segment(self, tokens: list[TaggedToken]) -> Clause | None:
        sub = TaggedSentence(tokens) if tokens else None
        if sub is None:
            return None
        verb_groups = self._chunker.verb_groups(sub)
        if not verb_groups:
            return None
        predicate = verb_groups[0]
        lemma = self.predicate_lemma(predicate)
        clause = Clause(predicate=predicate, predicate_lemma=lemma)
        clause.negated = self.is_negated(tokens, predicate)
        clause.hypothetical = tokens[0].lower in {"if", "unless", "whether"}

        noun_phrases = self._chunker.noun_phrases(sub)
        pre = [np for np in noun_phrases if np.span.end <= predicate.span.start]
        post = [np for np in noun_phrases if np.span.start >= predicate.span.end]

        if pre:
            clause.subject = self._subject_from(tokens, pre)
            # Pre-verbal PPs ("The support in the NR70 series is ...")
            # still matter for target association: record them.
            for np in pre:
                if np is clause.subject:
                    continue
                prep = self._preceding_preposition(tokens, np)
                if prep is not None:
                    clause.prep_phrases.append(PrepPhrase(prep, np))

        # Walk post-verbal material in order: adjectival complement,
        # object/complement NPs, and PPs.
        self._assign_postverbal(sub, clause, predicate, post)
        return clause

    def _orphan_pps(self, tokens: list[TaggedToken]) -> list[PrepPhrase]:
        """Prepositional phrases in a verbless segment."""
        if not tokens:
            return []
        sub = TaggedSentence(tokens)
        nps = self._chunker.noun_phrases(sub)
        out: list[PrepPhrase] = []
        for np in nps:
            prep = self._preceding_preposition(tokens, np)
            if prep is not None:
                out.append(PrepPhrase(prep, np))
        return out

    def _subject_from(self, tokens: list[TaggedToken], pre: list[Chunk]) -> Chunk:
        """Pick the subject among pre-verbal NPs.

        The last NP not attached to a preposition is the subject; this keeps
        "Prof. Wilson of American University" headed at "Prof. Wilson".
        """
        for np in reversed(pre):
            if self._preceding_preposition(tokens, np) is None:
                return np
        return pre[-1]

    @staticmethod
    def _preceding_preposition(tokens: list[TaggedToken], np: Chunk) -> str | None:
        """The preposition immediately before *np*, if any."""
        prev = None
        for tok in tokens:
            if tok.start >= np.span.start:
                break
            prev = tok
        if prev is not None and prev.tag in {"IN", "TO"}:
            return prev.lower
        return None

    def predicate_lemma(self, predicate: Chunk) -> str:
        """Lemma of the semantic head verb of the group.

        For auxiliary chains the head is the last verb ("has been
        improved" → improve); a bare copula chain keeps "be".  A passive
        participle after a copula is the semantic predicate ("am
        impressed" → impress).
        """
        verbs = [t for t in predicate.tokens if t.tag in penn.VERB_TAGS]
        # A modal-only group ("can") is headed by its last token.
        return self.head_lemma(verbs[-1] if verbs else predicate.tokens[-1])

    def head_lemma(self, head: TaggedToken) -> str:
        """Predicate lemma of a verb group headed by *head* (a verb or modal)."""
        if head.tag in penn.VERB_TAGS:
            return self._lemmatizer.lemmatize(head.text, head.tag)
        return head.lower

    @staticmethod
    def is_negated(tokens: list[TaggedToken], predicate: Chunk) -> bool:
        """Negative adverb in/around the verb group, or a negative
        determiner at a determiner position beside it.

        Paper Section 4.2 lists "no" and "little" among the negatives
        but notes they act at determiner positions — "has no flaws"
        negates the predicate through its object, which the
        adverb-only scan used to miss.
        """
        for tok in predicate.tokens:
            if tok.lower in NEGATIVE_ADVERBS:
                return True
        for tok in tokens:
            if is_negator(tok) and (
                predicate.span.start - 24 <= tok.start < predicate.span.start
                or predicate.span.end <= tok.start <= predicate.span.end + 1
            ):
                # "never once failed", "not" split from the group by the
                # chunker, "has no flaws"
                return True
        return False

    def _assign_postverbal(
        self,
        sub: TaggedSentence,
        clause: Clause,
        predicate: Chunk,
        post_nps: list[Chunk],
    ) -> None:
        tokens = sub.tokens
        np_by_start = {np.span.start: np for np in post_nps}
        consumed_np_spans: set[int] = set()
        adverb_run: Chunk | None = None
        i = 0
        # Advance to just past the predicate.
        while i < len(tokens) and tokens[i].start < predicate.span.end:
            i += 1
        n = len(tokens)
        while i < n:
            tok = tokens[i]
            if tok.tag == "IN" or (tok.tag == "TO" and clause.predicate_lemma not in COPULAR_VERBS):
                pp_np, consumed = self._pp_at(tokens, i, np_by_start)
                if pp_np is not None:
                    clause.prep_phrases.append(PrepPhrase(tok.lower, pp_np))
                    consumed_np_spans.add(pp_np.span.start)
                    i = consumed
                    continue
            if tok.start in np_by_start and tok.start not in consumed_np_spans:
                np = np_by_start[tok.start]
                if clause.is_copular and clause.complement is None:
                    clause.complement = np
                else:
                    clause.objects.append(np)
                consumed_np_spans.add(tok.start)
                # skip past the NP
                while i < n and tokens[i].start < np.span.end:
                    i += 1
                continue
            if tok.tag in penn.ADJECTIVE_TAGS and clause.complement is None:
                # Adjectival complement, absorbing adverb premodifiers and
                # coordinated adjectives: "is well implemented and functional".
                j = i
                phrase = [tokens[j]]
                k = j + 1
                while k < n and (
                    tokens[k].tag in penn.ADJECTIVE_TAGS
                    or penn.is_adverb(tokens[k].tag)
                    or (tokens[k].tag == "CC" and k + 1 < n and tokens[k + 1].tag in penn.ADJECTIVE_TAGS)
                ):
                    phrase.append(tokens[k])
                    k += 1
                clause.complement = Chunk("ADJP", tuple(phrase))
                i = k
                continue
            if penn.is_adverb(tok.tag) and tok.lower not in NEGATIVE_ADVERBS:
                # Candidate adverbial complement ("performs poorly",
                # "works really well") — only adopted after the loop if
                # no adjective/NP complement claims the slot, so copular
                # premodifiers ("is certainly a welcome change") are safe.
                j = i
                phrase = []
                while j < n and penn.is_adverb(tokens[j].tag) and tokens[j].lower not in NEGATIVE_ADVERBS:
                    phrase.append(tokens[j])
                    j += 1
                if adverb_run is None:
                    adverb_run = Chunk("ADVP", tuple(phrase))
                i = j
                continue
            i += 1
        if clause.complement is None and adverb_run is not None:
            clause.complement = adverb_run

    @staticmethod
    def _pp_at(
        tokens: list[TaggedToken],
        i: int,
        np_by_start: dict[int, Chunk],
    ) -> tuple[Chunk | None, int]:
        """NP object of the preposition at index *i*, plus resume index."""
        n = len(tokens)
        j = i + 1
        while j < n:
            if tokens[j].start in np_by_start:
                np = np_by_start[tokens[j].start]
                k = j
                while k < n and tokens[k].start < np.span.end:
                    k += 1
                return np, k
            if tokens[j].tag in {"DT", "PRP$", "CD"} or tokens[j].tag in penn.ADJECTIVE_TAGS:
                j += 1  # determiner/premodifier before the NP start token
                continue
            return None, i + 1
        return None, i + 1


_DEFAULT = ShallowParser()


def parse(sentence: TaggedSentence) -> SentenceParse:
    """Parse with the shared default :class:`ShallowParser`."""
    return _DEFAULT.parse(sentence)
