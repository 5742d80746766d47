"""Gold annotations for the synthetic corpora.

Every generated sentence that mentions a subject carries a gold
(subject, polarity) label plus a *kind* tag recording which template
class produced it.  The kinds encode the paper's difficulty taxonomy:

==========  ======================================================
kind        meaning
==========  ======================================================
direct      pattern-friendly sentiment about the subject
mixed       sentiment about the subject amid opposite-polarity words
slang       sentiment expressed without a usable predicate (verbless /
            exclamative) — the NLP miner's recall losses
trap        surface polarity differs from the writer's intent — any
            classifier errs here
neutral     factual mention, no sentiment words at all
stray       factual mention, but sentiment words nearby aim elsewhere —
            collocation/statistical false positives ("I class" cases)
==========  ======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..core.model import Polarity

#: Template classes, in the order documented above, plus "anaphora":
#: the subject is named in one sentence and the sentiment lands on a
#: pronoun in the next ("I tested the zoom. It is superb.") — the
#: paper's "ambiguous when taken out of context" case, recoverable only
#: through the sentiment context window.
KINDS = ("direct", "mixed", "slang", "trap", "neutral", "stray", "anaphora")

#: Kinds the paper calls the "I class" (ambiguous / not about the
#: product / no sentiment) — the difficult majority on general web pages.
I_CLASS_KINDS = frozenset({"slang", "trap", "neutral", "stray", "anaphora"})


@dataclass(frozen=True)
class GoldMention:
    """Ground truth for one subject mention in one sentence."""

    subject: str
    polarity: Polarity
    kind: str
    sentence_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown gold kind {self.kind!r}")

    @property
    def is_i_class(self) -> bool:
        return self.kind in I_CLASS_KINDS


@dataclass(frozen=True)
class LabeledSentence:
    """One generated sentence plus its gold mentions (pre-placement)."""

    text: str
    mentions: tuple[GoldMention, ...] = ()

    def shifted(self, sentence_index: int) -> "LabeledSentence":
        """Re-home the mentions at a document sentence index."""
        return LabeledSentence(
            text=self.text,
            mentions=tuple(
                GoldMention(m.subject, m.polarity, m.kind, sentence_index)
                for m in self.mentions
            ),
        )


@dataclass
class LabeledDocument:
    """A generated document with its full gold annotation."""

    doc_id: str
    text: str
    mentions: list[GoldMention] = field(default_factory=list)
    domain: str = ""
    on_topic: bool = True
    doc_polarity: Polarity = Polarity.NEUTRAL

    def polar_mentions(self) -> list[GoldMention]:
        return [m for m in self.mentions if m.polarity.is_polar]

    def subjects(self) -> set[str]:
        return {m.subject for m in self.mentions}

    def gold_by_key(self) -> dict[tuple[str, int], GoldMention]:
        """Index mentions by (subject, sentence_index) for evaluation."""
        return {(m.subject.lower(), m.sentence_index): m for m in self.mentions}


@dataclass
class Dataset:
    """A D+/D− split with convenience accessors."""

    name: str
    dplus: list[LabeledDocument]
    dminus: list[LabeledDocument]

    def dplus_texts(self) -> list[str]:
        return [d.text for d in self.dplus]

    def dminus_texts(self) -> list[str]:
        return [d.text for d in self.dminus]

    def iter_mentions(self) -> Iterator[tuple[LabeledDocument, GoldMention]]:
        for document in self.dplus:
            for mention in document.mentions:
                yield document, mention

    def mention_counts_by_kind(self) -> dict[str, int]:
        counts = {kind: 0 for kind in KINDS}
        for _, mention in self.iter_mentions():
            counts[mention.kind] += 1
        return counts
