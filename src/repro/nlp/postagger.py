"""Part-of-speech tagger: lexicon + morphology + contextual repair rules.

The paper used the Ratnaparkhi maximum-entropy tagger; we substitute a
deterministic three-stage tagger that is exact on the controlled vocabulary
of our corpora and degrades gracefully on unknown words:

1. **Lexical stage** — closed-class lookup, then the user-extensible
   open-class lexicon (domain vocabularies and the sentiment lexicon
   register their words here), then regular-inflection analysis against
   known verb bases.
2. **Morphological stage** — suffix rules for words the lexicon has never
   seen (``-ly`` → RB, ``-ness`` → NN, capitalised → NNP, ...).
3. **Contextual stage** — Brill-style repair rules that fix the classic
   ambiguities (noun/verb after a determiner, base verb after ``to`` or a
   modal, VBD/VBN after auxiliaries, possessive ``her``).

The tagger is a pure function of its lexicons: no training, no global
state, fully deterministic.
"""

from __future__ import annotations

from collections import OrderedDict

from . import lexicon_pos, penn
from .tokens import Sentence, TaggedSentence, TaggedToken, Token

_PUNCT_TAGS = {
    ".": ".",
    "!": ".",
    "?": ".",
    ",": ",",
    ";": ":",
    ":": ":",
    "-": "HYPH",
    "--": ":",
    "(": "-LRB-",
    ")": "-RRB-",
    "[": "-LRB-",
    "]": "-RRB-",
    '"': "``",
    "'": "''",
    "`": "``",
    "``": "``",
    "''": "''",
    "$": "$",
    "#": "#",
    "%": "NN",
    "&": "CC",
    "/": "SYM",
}

#: JJ-forming suffixes, checked longest-first.
_ADJ_SUFFIXES = (
    "able",
    "ible",
    "ful",
    "ous",
    "ive",
    "ish",
    "less",
    "ical",
    "ary",
    "al",
    "ic",
)

#: NN-forming suffixes, checked longest-first.
_NOUN_SUFFIXES = (
    "ness",
    "ment",
    "tion",
    "sion",
    "ance",
    "ence",
    "ship",
    "ity",
    "ism",
    "ist",
    "ure",
    "age",
    "dom",
)

_AUXILIARIES = frozenset({"have", "has", "had", "having", "be", "been", "being", "is", "are", "was", "were", "am", "'ve", "'s"})

#: Tag sets the contextual rules test per token.
_FINITE_OR_MODAL = penn.FINITE_VERB_TAGS | {"MD"}
_NOMINAL_OR_ADJECTIVE = penn.NOUN_TAGS | penn.ADJECTIVE_TAGS
_NOMINAL_OR_PRONOUN = penn.NOUN_TAGS | {"PRP"}
_DO_FORMS = frozenset({"do", "does", "did", "n't", "not"})


class PosTagger:
    """Deterministic POS tagger over the Penn Treebank tagset.

    The lexical tag of a word depends only on its text and on whether it
    opens the sentence, so each instance keeps a table from
    ``(text, position == 0)`` to that tag.  The table is per instance
    because ``extra_lexicon`` differs between analyzers.

    Parameters
    ----------
    extra_lexicon:
        Additional lowercase word -> tag entries.  Entries here take
        precedence over the built-in open-class lexicon but not over the
        closed class.  Multi-word keys are ignored (the tagger works one
        token at a time).
    memo_size:
        Bound of the sentence-level tag memo.  Tags are a pure function
        of the sentence's token texts (offsets never influence a tag),
        so repeated sentences — template spam, syndicated reviews — are
        tagged once and materialised per call.  ``0`` disables the memo;
        the differential harness runs the reference configuration that
        way.
    """

    #: Lexical-tag table bound; the table is cleared wholesale when it fills.
    _LEXICAL_TABLE_MAX = 16384

    def __init__(self, extra_lexicon: dict[str, str] | None = None, memo_size: int = 256):
        self._closed = lexicon_pos.closed_class_lexicon()
        self._open = lexicon_pos.open_class_lexicon()
        if extra_lexicon:
            for word, tag in extra_lexicon.items():
                if " " in word:
                    continue
                if not penn.is_valid_tag(tag):
                    raise ValueError(f"unknown POS tag {tag!r} for word {word!r}")
                key = word.lower()
                if key in self._closed:
                    continue
                # Extra entries may override base-class readings ("support"
                # VB → NN for a sentiment noun) but never the inflected or
                # graded forms the built-in lexicon knows ("better" JJR).
                existing = self._open.get(key)
                if existing is None or existing in {"NN", "NNS", "JJ", "VB", "RB"}:
                    self._open[key] = tag
        # Words with a known verb reading, used by contextual rules.
        self._verbal = {w for w, t in self._open.items() if t in penn.VERB_TAGS}
        self._verbal |= set(lexicon_pos.VERB_FORMS)
        # Base forms usable as stems by the inflection analyzer: the
        # built-in regular verbs plus every VB entry (including ones the
        # caller registered through extra_lexicon).
        self._verb_bases = set(lexicon_pos.REGULAR_VERB_BASES)
        self._verb_bases.update(w for w, t in self._open.items() if t == "VB")
        self._memo_size = memo_size
        self._tag_memo: OrderedDict[tuple[str, ...], tuple[str, ...]] = OrderedDict()
        self._lexical_tags: dict[tuple[str, bool], str] = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0

    # -- public API ---------------------------------------------------------

    def memo_stats(self) -> dict[str, int]:
        """Plain counters for registry mirroring (nlp stays obs-free)."""
        return {
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "evictions": self.memo_evictions,
            "size": len(self._tag_memo),
            "maxsize": self._memo_size,
        }

    def tag(self, sentence: Sentence) -> TaggedSentence:
        """Tag one sentence."""
        tags = self._sentence_tags(sentence.tokens)
        tagged = [TaggedToken(tok, tag) for tok, tag in zip(sentence.tokens, tags)]
        return TaggedSentence(tagged, index=sentence.index)

    def _sentence_tags(self, tokens: list[Token]) -> tuple[str, ...]:
        """The sentence's tag sequence, served from the bounded memo.

        The memo key is the token-text tuple: tags depend on the words
        and their order, never on character offsets, sentence index, or
        document identity, so one cache slot serves every recurrence of
        a sentence.  Only the immutable tag strings are cached — the
        :class:`TaggedToken` wrappers are rebuilt around the caller's
        own tokens on every call.
        """
        if self._memo_size <= 0:
            return self._compute_tags(tokens)
        key = tuple([t.text for t in tokens])
        tags = self._tag_memo.get(key)
        if tags is not None:
            self.memo_hits += 1
            self._tag_memo.move_to_end(key)
            return tags
        self.memo_misses += 1
        tags = self._compute_tags(tokens)
        self._tag_memo[key] = tags
        if len(self._tag_memo) > self._memo_size:
            self._tag_memo.popitem(last=False)
            self.memo_evictions += 1
        return tags

    def _compute_tags(self, tokens: list[Token]) -> tuple[str, ...]:
        table = self._lexical_tags
        tags: list[str] = []
        for i, tok in enumerate(tokens):
            key = (tok.text, i == 0)
            tag = table.get(key)
            if tag is None:
                tag = self._lexical_tag(tok, i)
                if len(table) >= self._LEXICAL_TABLE_MAX:
                    table.clear()
                table[key] = tag
            tags.append(tag)
        return tuple(self._apply_context_rules(tokens, tags))

    def tag_tokens(self, tokens: list[Token]) -> list[TaggedToken]:
        """Tag a raw token list (treated as one sentence)."""
        if not tokens:
            return []
        return self.tag(Sentence(tokens)).tokens

    def has_verb_reading(self, word: str) -> bool:
        """True when *word* can be a verb according to the lexicons."""
        return word.lower() in self._verbal or self._verb_inflection(word.lower()) is not None

    # -- stage 1: lexical ---------------------------------------------------

    def _lexical_tag(self, token: Token, position: int) -> str:
        text = token.text
        lower = token.lower

        if text in _PUNCT_TAGS:
            return _PUNCT_TAGS[text]
        if not any(ch.isalnum() for ch in text):
            return "SYM"
        if text[0].isdigit():
            return "CD"

        if lower in self._closed:
            return self._closed[lower]

        if lower in self._open:
            tag = self._open[lower]
            # Mid-sentence capitalisation promotes nouns to proper nouns;
            # this is what the named-entity spotter keys on.
            if position > 0 and token.is_capitalized and tag in penn.COMMON_NOUN_TAGS:
                return "NNP" if tag == "NN" else "NNPS"
            return tag

        inflected = self._verb_inflection(lower)
        if inflected is not None:
            return inflected

        if token.is_capitalized and position > 0:
            return "NNPS" if lower.endswith("s") and not lower.endswith("ss") else "NNP"

        return self._suffix_tag(token, position)

    def _verb_inflection(self, lower: str) -> str | None:
        """Resolve regular inflections of known verb bases."""
        bases = self._verb_bases
        for suffix, tag in (("ing", "VBG"), ("ed", "VBD"), ("es", "VBZ"), ("s", "VBZ")):
            if not lower.endswith(suffix) or len(lower) <= len(suffix) + 1:
                continue
            stem = lower[: -len(suffix)]
            candidates = [stem, stem + "e"]
            if len(stem) >= 2 and stem[-1] == stem[-2]:
                candidates.append(stem[:-1])  # stopped -> stop
            if stem.endswith("i"):
                candidates.append(stem[:-1] + "y")  # tried -> try
            if any(c in bases for c in candidates):
                return tag
        return None

    def _suffix_tag(self, token: Token, position: int) -> str:
        lower = token.lower
        graded = self._graded_tag(lower)
        if graded is not None:
            return graded
        if lower.endswith("ly") and len(lower) > 4:
            return "RB"
        if lower.endswith("ing") and len(lower) > 5:
            return "VBG"
        if lower.endswith("ed") and len(lower) > 4:
            return "VBD"
        for suffix in _ADJ_SUFFIXES:
            if lower.endswith(suffix) and len(lower) > len(suffix) + 2:
                return "JJ"
        for suffix in _NOUN_SUFFIXES:
            if lower.endswith(suffix) and len(lower) > len(suffix) + 1:
                return "NN"
        if lower.endswith("s") and not lower.endswith("ss") and len(lower) > 3:
            return "NNS"
        if token.is_capitalized and position == 0:
            # Unknown sentence-initial capitalised word: most likely a name.
            return "NNP"
        return "NN"

    def _graded_tag(self, lower: str) -> str | None:
        """Comparative/superlative of a known adjective: "sharper" → JJR."""
        for suffix, tag in (("est", "JJS"), ("er", "JJR")):
            if not lower.endswith(suffix) or len(lower) <= len(suffix) + 2:
                continue
            stem = lower[: -len(suffix)]
            candidates = [stem, stem + "e"]
            if len(stem) >= 2 and stem[-1] == stem[-2]:
                candidates.append(stem[:-1])  # bigger -> big
            if stem.endswith("i"):
                candidates.append(stem[:-1] + "y")  # happier -> happy
            for candidate in candidates:
                if self._open.get(candidate) == "JJ":
                    return tag
        return None

    # -- stage 3: contextual repair -----------------------------------------

    def _apply_context_rules(self, tokens: list[Token], tags: list[str]) -> list[str]:
        tags = list(tags)
        n = len(tags)
        for i in range(n):
            lower = tokens[i].lower
            prev_tag = tags[i - 1] if i > 0 else None
            prev_lower = tokens[i - 1].lower if i > 0 else None
            next_tag = tags[i + 1] if i + 1 < n else None

            # DT/PRP$/JJ + verb-tagged word -> nominal reading.  Includes
            # the irregular-past reading right after a determiner ("the
            # beat", "the cut").
            if (
                tags[i] in {"VB", "VBP"}
                and prev_tag in {"DT", "PRP$", "JJ", "PDT", "CD", "POS"}
            ) or (
                # Irregular-past form right after an *article* is a noun
                # ("the beat"); other determiners ("that sold ...") keep
                # the verb reading.
                tags[i] == "VBD"
                and (prev_lower in {"the", "a", "an"} or prev_tag in {"PRP$", "POS"})
            ):
                tags[i] = "NN"
            # DT + VBZ ("the takes") -> plural noun is unlikely here, but a
            # VBZ directly after a determiner is always wrong.
            elif tags[i] == "VBZ" and prev_tag == "DT":
                tags[i] = "NNS"

            # Noun-noun compound head mistaken for a base verb: "the
            # expansion plan disappointed" — a bare VB after a noun and
            # before the real (finite or "-ed") predicate is the head noun.
            if (
                tags[i] == "VB"
                and prev_tag in penn.COMMON_NOUN_TAGS
                and i + 1 < n
                and (
                    tags[i + 1] in _FINITE_OR_MODAL
                    or (
                        tokens[i + 1].lower.endswith("ed")
                        and self._verb_inflection(tokens[i + 1].lower) is not None
                    )
                )
            ):
                tags[i] = "NN"

            # TO/MD + noun-or-past word with a verb reading -> base verb.
            if prev_tag in {"TO", "MD"} and tags[i] in {"NN", "VBD", "VBZ", "VBP", "JJ"}:
                if lower in self._verbal or self._verb_inflection(lower):
                    tags[i] = "VB"

            # VBD after an auxiliary is a past participle.
            if tags[i] == "VBD" and prev_lower in _AUXILIARIES:
                tags[i] = "VBN"

            # Passive: an "-ed" word after a be-form is a participle when
            # followed by an agent PP ("impressed by X") or nothing at all
            # ("The camera was praised."), even when the lexicon lists it
            # as an adjective.
            if (
                tags[i] == "JJ"
                and lower.endswith("ed")
                and prev_lower in _AUXILIARIES
                and (
                    i + 1 >= n
                    or tokens[i + 1].lower in {"by", "with"}
                    or tokens[i + 1].text in {".", "!", "?", ",", ";"}
                )
                and self.has_verb_reading(lower)
            ):
                tags[i] = "VBN"

            # "her" before a nominal is possessive.
            if lower == "her" and next_tag in _NOMINAL_OR_ADJECTIVE:
                tags[i] = "PRP$"

            # A lexicon adjective that is also an "-ed" verb inflection is
            # the predicate when it directly follows a nominal: "Reviewers
            # praised the camera.", "Zorblax failed badly."  (Predicative
            # adjectives need a copula, so a bare noun + -ed word is a verb.)
            if (
                tags[i] == "JJ"
                and lower.endswith("ed")
                and self._verb_inflection(lower) is not None
            ):
                if prev_tag in _NOMINAL_OR_PRONOUN:
                    tags[i] = "VBD"
                elif (
                    prev_tag == "JJ"
                    and i >= 2
                    and tags[i - 2] in {"DT", "PRP$"}
                ):
                    # "the manual impressed everyone": the adjective after
                    # the determiner is really the NP head noun.
                    tags[i - 1] = "NN"
                    tags[i] = "VBD"

            # Determiner + adjective directly before a finite verb: the
            # adjective is the NP head ("the manual is flimsy").
            if (
                tags[i] == "JJ"
                and prev_tag in {"DT", "PRP$"}
                and next_tag in _FINITE_OR_MODAL
            ):
                tags[i] = "NN"

            # "like" is IN by the closed-class table, but after a pronoun,
            # negator, modal, "to" or a do-form it is the verb ("I like it",
            # "does n't like", "would like", "to like").
            if tags[i] == "IN" and lower == "like":
                if prev_tag in {"PRP", "NNP", "NNPS", "MD", "TO", "RB", "NNS"} or prev_lower in _DO_FORMS:
                    tags[i] = "VB" if prev_tag in {"MD", "TO", "RB"} or prev_lower in _DO_FORMS else "VBP"

            # "that" introducing a clause after a verb is IN, not DT.
            if lower == "that" and prev_tag in penn.VERB_TAGS and next_tag in {"DT", "PRP", "NNP", "EX"}:
                tags[i] = "IN"

            # Predeterminer "all"/"such" directly before a noun acts as DT.
            if tags[i] == "PDT" and next_tag in penn.NOUN_TAGS:
                tags[i] = "DT"

            # Gerund after a determiner is nominal ("the pricing").
            if tags[i] == "VBG" and prev_tag == "DT":
                tags[i] = "NN"

            # Comparative / superlative adjectives.
            if tags[i] == "JJ":
                if lower.endswith("est") and len(lower) > 5:
                    tags[i] = "JJS"
                elif lower.endswith("er") and len(lower) > 4 and prev_tag in {"DT", "RB", None}:
                    # keep JJ: too noisy to promote blindly ("other", "proper")
                    pass
        return tags


_DEFAULT: PosTagger | None = None


def default_tagger() -> PosTagger:
    """A shared tagger instance with only the built-in lexicons."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PosTagger()
    return _DEFAULT
