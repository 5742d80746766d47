"""Negation vocabulary.

"For a sentiment phrase with an adverb with negative meaning, such as not,
no, never, hardly, seldom, or little the sentiment polarity of the phrase
is reversed." (paper Section 4.2)

Negators are partitioned by syntactic position: adverbs appear in verb
groups and before adjectives; determiners appear at NP starts ("no
problems"); "little"/"few" negate as quantifiers ("little support").
"""

from __future__ import annotations

#: Negative adverbs: reverse the polarity of the phrase/clause they scope.
NEGATION_ADVERBS: frozenset[str] = frozenset(
    "not n't never hardly seldom rarely scarcely barely neither nor".split()
)

#: Negative determiners at noun-phrase starts.
NEGATION_DETERMINERS: frozenset[str] = frozenset({"no", "none", "nothing", "nobody"})

#: Negative quantifiers ("little support", "few merits").
NEGATION_QUANTIFIERS: frozenset[str] = frozenset({"little", "few"})

#: Verbs acting as negators of their complement ("fails to impress",
#: "lacks a viewfinder", "stopped working").
NEGATION_VERBS: frozenset[str] = frozenset({"fail", "lack", "stop", "cease", "refuse"})

#: Everything that reverses polarity, for quick membership checks.
ALL_NEGATORS: frozenset[str] = (
    NEGATION_ADVERBS | NEGATION_DETERMINERS | NEGATION_QUANTIFIERS
)
