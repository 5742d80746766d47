"""Phrase chunking: base noun phrases and verb groups.

Two consumers drive the design:

* the **feature extractor** (paper Section 4.1) needs *base noun phrases*
  (bNP) and, specifically, *definite* bNPs — the patterns ``NN``, ``NN NN``,
  ``JJ NN``, ``NN NN NN``, ``JJ NN NN``, ``JJ JJ NN`` preceded by the
  definite article ``the``;
* the **shallow parser** needs NP chunks and verb groups to assign the
  SP/OP/CP/PP roles the sentiment patterns refer to.
"""

from __future__ import annotations

from . import penn
from .tokens import Chunk, TaggedSentence, TaggedToken

#: The six definite-bNP tag patterns from the paper, longest first so the
#: greedy matcher prefers maximal phrases.
DEFINITE_BNP_PATTERNS: tuple[tuple[str, ...], ...] = (
    ("NN", "NN", "NN"),
    ("JJ", "NN", "NN"),
    ("JJ", "JJ", "NN"),
    ("NN", "NN"),
    ("JJ", "NN"),
    ("NN",),
)

_NP_START_TAGS = frozenset({"DT", "PRP$", "PDT", "CD"}) | penn.ADJECTIVE_TAGS | penn.NOUN_TAGS
_NP_MID_TAGS = frozenset({"CD", "POS"}) | penn.ADJECTIVE_TAGS | penn.NOUN_TAGS | {"VBG", "VBN"}
_VG_TAGS = penn.VERB_TAGS | {"MD", "TO"}


class Chunker:
    """Greedy longest-match chunker over tagged sentences."""

    # -- noun phrases --------------------------------------------------------

    def noun_phrases(self, sentence: TaggedSentence) -> list[Chunk]:
        """All maximal base noun phrases, left to right.

        A base NP is an optional determiner/possessive, premodifiers
        (adjectives, nouns, cardinals, participles), and a noun head.  It
        contains no embedded clauses or postmodifiers — "base" in the
        CoNLL-2000 sense.
        """
        chunks: list[Chunk] = []
        tokens = sentence.tokens
        i = 0
        n = len(tokens)
        while i < n:
            if tokens[i].tag in {"PRP", "EX"}:
                chunks.append(Chunk("NP", (tokens[i],)))
                i += 1
                continue
            if tokens[i].tag in _NP_START_TAGS:
                j = self._np_end(tokens, i)
                if j is not None:
                    chunks.append(Chunk("NP", tuple(tokens[i:j])))
                    i = j
                    continue
            i += 1
        return chunks

    def _np_end(self, tokens: list[TaggedToken], start: int) -> int | None:
        """End index (exclusive) of an NP starting at *start*, or None."""
        i = start
        n = len(tokens)
        if tokens[i].tag in {"DT", "PRP$", "PDT"}:
            i += 1
        last_noun = None
        while i < n and tokens[i].tag in _NP_MID_TAGS:
            if penn.is_noun(tokens[i].tag):
                last_noun = i
            i += 1
        if last_noun is None:
            return None
        return last_noun + 1

    def base_noun_phrases(self, sentence: TaggedSentence) -> list[Chunk]:
        """NPs stripped of their leading determiner/possessive."""
        stripped = []
        for chunk in self.noun_phrases(sentence):
            tokens = chunk.tokens
            while tokens and tokens[0].tag in {"DT", "PRP$", "PDT"}:
                tokens = tokens[1:]
            if tokens:
                stripped.append(Chunk("NP", tokens))
        return stripped

    # -- definite bNPs for the feature extractor ------------------------------

    def definite_bnps(self, sentence: TaggedSentence) -> list[Chunk]:
        """Definite base noun phrases: ``the`` + one of the six patterns.

        Returns the pattern part only (without ``the``), matching the
        paper's presentation where the extracted feature term is the bare
        phrase ("battery life", not "the battery life").
        """
        out: list[Chunk] = []
        tokens = sentence.tokens
        n = len(tokens)
        for i, tok in enumerate(tokens):
            if tok.lower != "the" or tok.tag != "DT":
                continue
            match = self._match_bnp_pattern(tokens, i + 1)
            if match is not None:
                out.append(Chunk("BNP", tuple(tokens[i + 1 : i + 1 + match])))
        return out

    @staticmethod
    def _match_bnp_pattern(tokens: list[TaggedToken], start: int) -> int | None:
        """Length of the longest definite-bNP pattern at *start*, or None.

        A match must be maximal: if the token after the pattern is itself a
        noun or adjective, a longer phrase is present and the shorter
        pattern match would truncate it.
        """
        n = len(tokens)
        for pattern in DEFINITE_BNP_PATTERNS:
            end = start + len(pattern)
            if end > n:
                continue
            # Plural common nouns fold into NN for pattern purposes
            # ("The batteries drain" is still a definite bNP).
            window = tuple(
                "NN" if tokens[k].tag == "NNS" else tokens[k].tag
                for k in range(start, end)
            )
            if window != pattern:
                continue
            if end < n and tokens[end].tag in penn.NOUN_TAGS | penn.ADJECTIVE_TAGS:
                continue  # not maximal; try nothing shorter either
            return len(pattern)
        return None

    def beginning_definite_bnps(self, sentence: TaggedSentence) -> list[Chunk]:
        """The paper's **bBNP heuristic**: definite bNPs at the *beginning*
        of a sentence, followed by a verb phrase.

        "When the focus shifts from one feature to another, the new feature
        is often expressed using a definite noun phrase at the beginning of
        the next sentence." (Section 4.1)
        """
        tokens = sentence.tokens
        if not tokens or tokens[0].lower != "the" or tokens[0].tag != "DT":
            return []
        match = self._match_bnp_pattern(tokens, 1)
        if match is None:
            return []
        after = 1 + match
        # Skip interleaving adverbs ("The battery really lasts ...").
        while after < len(tokens) and penn.is_adverb(tokens[after].tag):
            after += 1
        if after >= len(tokens) or tokens[after].tag not in _VG_TAGS:
            return []
        return [Chunk("BNP", tuple(tokens[1 : 1 + match]))]

    # -- verb groups ----------------------------------------------------------

    def verb_groups(self, sentence: TaggedSentence) -> list[Chunk]:
        """Maximal verb groups: modal/auxiliary chains plus adverbs.

        ``will not be``, ``has been improved``, ``does n't work`` each form
        one group.  Interleaved adverbs (including negators) are kept inside
        the group so the analyzer can detect verb-phrase negation.
        """
        chunks: list[Chunk] = []
        tokens = sentence.tokens
        i = 0
        n = len(tokens)
        while i < n:
            if tokens[i].tag in _VG_TAGS and tokens[i].tag != "TO":
                j = i + 1
                last_verb = i
                while j < n:
                    tag = tokens[j].tag
                    if tag in _VG_TAGS:
                        if tag != "TO":
                            last_verb = j
                        j += 1
                    elif penn.is_adverb(tag) and j + 1 < n and tokens[j + 1].tag in _VG_TAGS:
                        j += 1  # adverb inside the group: "has really improved"
                    else:
                        break
                chunks.append(Chunk("VG", tuple(tokens[i : last_verb + 1])))
                i = last_verb + 1
            else:
                i += 1
        return chunks
