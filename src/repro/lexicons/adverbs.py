"""Sentiment adverbs.

Sentiment adverbs carry polarity themselves ("beautifully", "poorly").
The paper's polarity model is binary and unweighted, so the phrase
scorer gives an intensified word ("extremely good") the same single vote
as a bare one.
"""

from __future__ import annotations

POSITIVE_ADVERBS: tuple[str, ...] = tuple(
    sorted(
        set(
            (
                "admirably amazingly beautifully brilliantly capably "
                "cleanly cleverly comfortably commendably conveniently "
                "correctly dependably effectively efficiently effortlessly "
                "elegantly excellently exceptionally expertly faithfully "
                "famously fantastically fast favorably flawlessly fluidly "
                "gracefully handsomely happily harmoniously ideally "
                "immaculately impeccably impressively intelligently "
                "intuitively magnificently marvelously masterfully neatly "
                "nicely perfectly pleasantly precisely professionally "
                "promptly properly quickly quietly reliably remarkably "
                "responsively richly robustly seamlessly securely sharply "
                "smartly smoothly solidly splendidly successfully superbly "
                "swiftly vividly warmly wonderfully well"
            ).split()
        )
    )
)

NEGATIVE_ADVERBS: tuple[str, ...] = tuple(
    sorted(
        set(
            (
                "abysmally annoyingly awfully awkwardly badly carelessly "
                "cheaply clumsily crudely disappointingly dishonestly "
                "dismally dreadfully erratically excessively expensively "
                "frustratingly horribly improperly inaccurately "
                "inadequately incompetently inconsistently inconveniently "
                "incorrectly ineffectively inefficiently infuriatingly "
                "insufferably intolerably lamentably loudly miserably "
                "noisily painfully pathetically poorly recklessly "
                "regrettably roughly shabbily shamefully shoddily sloppily "
                "sluggishly terribly unacceptably unbearably unevenly "
                "unfairly unfortunately unpredictably unreliably weakly "
                "woefully wretchedly wrongly"
            ).split()
        )
    )
)


def entries() -> list[tuple[str, str, str]]:
    """All adverb lexicon entries as ``(term, POS, polarity)`` tuples."""
    out = [(word, "RB", "+") for word in POSITIVE_ADVERBS]
    out.extend((word, "RB", "-") for word in NEGATIVE_ADVERBS)
    return out
