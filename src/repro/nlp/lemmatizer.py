"""Rule-based English lemmatizer.

The sentiment pattern database keys predicates by verb lemma ("impress",
"offer", "be"), so the analyzer must map any inflected verb form back to
its base.  Nouns are lemmatized for lexicon lookups ("pictures" →
"picture").  Irregular forms come from an explicit table; regular forms go
through suffix-stripping rules with standard orthographic repairs
(doubling, ``-ies`` → ``-y``, silent ``e``).
"""

from __future__ import annotations

from . import lexicon_pos, penn

# Irregular verb form -> lemma, derived from the inflection tables.
_IRREGULAR_VERBS: dict[str, str] = {
    "am": "be",
    "are": "be",
    "is": "be",
    "was": "be",
    "were": "be",
    "been": "be",
    "being": "be",
}


def _invert_verb_table() -> None:
    forms: dict[str, list[str]] = {}
    # lexicon_pos.VERB_FORMS maps form -> tag; regroup by shared stem via
    # the _verb() calls is not recoverable, so hard-code the mapping here.
    table = {
        "have": ["has", "having", "had"],
        "do": ["does", "doing", "did", "done"],
        "go": ["goes", "going", "went", "gone"],
        "get": ["gets", "getting", "got", "gotten"],
        "make": ["makes", "making", "made"],
        "take": ["takes", "taking", "took", "taken"],
        "come": ["comes", "coming", "came"],
        "give": ["gives", "giving", "gave", "given"],
        "find": ["finds", "finding", "found"],
        "think": ["thinks", "thinking", "thought"],
        "know": ["knows", "knowing", "knew", "known"],
        "feel": ["feels", "feeling", "felt"],
        "keep": ["keeps", "keeping", "kept"],
        "hold": ["holds", "holding", "held"],
        "buy": ["buys", "buying", "bought"],
        "sell": ["sells", "selling", "sold"],
        "say": ["says", "saying", "said"],
        "tell": ["tells", "telling", "told"],
        "see": ["sees", "seeing", "saw", "seen"],
        "run": ["runs", "running", "ran"],
        "put": ["puts", "putting"],
        "let": ["lets", "letting"],
        "set": ["sets", "setting"],
        "cost": ["costs", "costing"],
        "break": ["breaks", "breaking", "broke", "broken"],
        "lose": ["loses", "losing", "lost"],
        "win": ["wins", "winning", "won"],
        "meet": ["meets", "meeting", "met"],
        "leave": ["leaves", "leaving", "left"],
        "write": ["writes", "writing", "wrote", "written"],
        "read": ["reads", "reading"],
        "send": ["sends", "sending", "sent"],
        "spend": ["spends", "spending", "spent"],
        "build": ["builds", "building", "built"],
        "bring": ["brings", "bringing", "brought"],
        "fall": ["falls", "falling", "fell", "fallen"],
        "rise": ["rises", "rising", "rose", "risen"],
        "grow": ["grows", "growing", "grew", "grown"],
        "become": ["becomes", "becoming", "became"],
        "beat": ["beats", "beating", "beaten"],
        "shoot": ["shoots", "shooting", "shot"],
        "pay": ["pays", "paying", "paid"],
        "mean": ["means", "meaning", "meant"],
        "deal": ["deals", "dealing", "dealt"],
        "hear": ["hears", "hearing", "heard"],
        "wear": ["wears", "wearing", "wore", "worn"],
        "stand": ["stands", "standing", "stood"],
        "understand": ["understands", "understanding", "understood"],
        "seem": ["seems", "seeming", "seemed"],
        "appear": ["appears", "appearing", "appeared"],
        "remain": ["remains", "remaining", "remained"],
        "stay": ["stays", "staying", "stayed"],
        "look": ["looks", "looking", "looked"],
        "sound": ["sounds", "sounding", "sounded"],
        "prove": ["proves", "proving", "proved", "proven"],
    }
    for lemma, form_list in table.items():
        for form in form_list:
            forms.setdefault(form, []).append(lemma)
    for form, lemmas in forms.items():
        _IRREGULAR_VERBS.setdefault(form, lemmas[0])


_invert_verb_table()

#: Irregular noun plural -> singular.
_IRREGULAR_NOUNS = {
    "children": "child",
    "men": "man",
    "women": "woman",
    "people": "person",
    "feet": "foot",
    "teeth": "tooth",
    "mice": "mouse",
    "geese": "goose",
    "lenses": "lens",
    "media": "medium",
    "criteria": "criterion",
    "phenomena": "phenomenon",
    "analyses": "analysis",
    "series": "series",
    "species": "species",
}

#: Irregular comparative/superlative -> positive form.
_IRREGULAR_GRADED = {
    "better": "good",
    "best": "good",
    "worse": "bad",
    "worst": "bad",
    "more": "much",
    "most": "much",
    "less": "little",
    "least": "little",
}

#: Words ending in "s" that are singular, not plurals.
_S_FINAL_SINGULARS = frozenset(
    "always perhaps lens gas bus plus news analysis basis os is this "
    "thus its his hers ours yours theirs".split()
)


class Lemmatizer:
    """Map inflected word forms to lemmas, guided by POS tags.

    Parameters
    ----------
    extra_verb_bases:
        Additional verb base forms the suffix-stripping rules may target
        (e.g. the sentiment pattern database's predicates).
    """

    def __init__(self, extra_verb_bases: set[str] | frozenset[str] | None = None):
        self._extra_bases = frozenset(extra_verb_bases or ())
        # Stems the suffix-stripping repair may land on.
        self._repair_bases = (
            lexicon_pos.REGULAR_VERB_BASES | set(lexicon_pos.VERB_FORMS) | self._extra_bases
        )

    def lemmatize(self, word: str, tag: str) -> str:
        """Return the lemma of *word* under Penn tag *tag* (lowercased)."""
        lower = word.lower()
        if penn.is_verb(tag):
            return self._verb_lemma(lower)
        if tag in {"NNS", "NNPS"}:
            return self._noun_lemma(lower)
        if tag in {"JJR", "JJS", "RBR", "RBS"}:
            return self._graded_lemma(lower)
        return lower

    # -- verbs --------------------------------------------------------------

    def _verb_lemma(self, lower: str) -> str:
        if lower in _IRREGULAR_VERBS:
            return _IRREGULAR_VERBS[lower]
        if (
            lower in lexicon_pos.REGULAR_VERB_BASES
            or lower in self._extra_bases
            or lower.endswith("ss")
        ):
            return lower  # already a base form ("impress", "miss")
        for suffix in ("ing", "ed", "es", "s"):
            if lower.endswith(suffix) and len(lower) > len(suffix) + 1:
                stem = lower[: -len(suffix)]
                repaired = self._repair_stem(stem, suffix)
                if repaired is not None:
                    return repaired
        return lower

    def _repair_stem(self, stem: str, suffix: str) -> str | None:
        bases = self._repair_bases
        candidates = [stem]
        if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in "aeiouls":
            candidates.append(stem[:-1])  # stopped -> stop
        if suffix in {"ed", "es", "s"} and stem.endswith("i"):
            candidates.append(stem[:-1] + "y")  # tried -> try
        candidates.append(stem + "e")  # impressed? no: loved -> love
        for cand in candidates:
            if cand in bases:
                return cand
        # Unknown verb: apply the most common orthography.
        if suffix == "ing" or suffix == "ed":
            if stem.endswith("i"):
                return stem[:-1] + "y"
            if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in "aeiouls":
                return stem[:-1]
            return stem
        if suffix == "es" and stem.endswith(("sh", "ch", "ss", "x", "z", "o")):
            return stem
        return stem if suffix == "s" else None

    # -- nouns --------------------------------------------------------------

    def _noun_lemma(self, lower: str) -> str:
        if lower in _IRREGULAR_NOUNS:
            return _IRREGULAR_NOUNS[lower]
        if lower in _S_FINAL_SINGULARS or not lower.endswith("s"):
            return lower
        if lower.endswith("ies") and len(lower) > 4:
            return lower[:-3] + "y"
        if lower.endswith(("shes", "ches", "sses", "xes", "zes")):
            return lower[:-2]
        if lower.endswith("ss"):
            return lower
        if len(lower) == 1:
            return lower  # a bare "s" has nothing left to strip
        return lower[:-1]

    # -- gradable adjectives / adverbs ---------------------------------------

    def _graded_lemma(self, lower: str) -> str:
        if lower in _IRREGULAR_GRADED:
            return _IRREGULAR_GRADED[lower]
        for suffix in ("est", "er"):
            if lower.endswith(suffix) and len(lower) > len(suffix) + 2:
                stem = lower[: -len(suffix)]
                if stem.endswith("i"):
                    return stem[:-1] + "y"  # happier -> happy
                if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in "aeiou":
                    return stem[:-1]  # bigger -> big
                return stem
        return lower


_DEFAULT = Lemmatizer()


def lemmatize(word: str, tag: str) -> str:
    """Lemmatize with the shared default :class:`Lemmatizer`."""
    return _DEFAULT.lemmatize(word, tag)
