"""Rule-based word tokenizer with exact character offsets.

WebFountain's tokenizer miner "produces a stream of tokens from the input
text".  This implementation follows Penn-Treebank-style conventions:

* punctuation is split from words (``great!`` → ``great``, ``!``);
* contractions are split at the clitic boundary (``don't`` → ``do``,
  ``n't``; ``it's`` → ``it``, ``'s``);
* common abbreviations keep their trailing period (``Prof.``, ``Mr.``);
* hyphenated compounds stay together (``add-on``, ``72-GB``);
* numbers, including decimals and comma groups, stay together.

Offsets always index into the original text, so ``text[tok.start:tok.end]
== tok.text`` for every token — a property the test suite checks with
Hypothesis.
"""

from __future__ import annotations

import re

from .tokens import Token

#: Abbreviations that end with a period which does NOT end a sentence.
ABBREVIATIONS = frozenset(
    {
        "mr.",
        "mrs.",
        "ms.",
        "dr.",
        "prof.",
        "sr.",
        "jr.",
        "st.",
        "co.",
        "corp.",
        "inc.",
        "ltd.",
        "vs.",
        "etc.",
        "e.g.",
        "i.e.",
        "u.s.",
        "u.k.",
        "no.",
        "vol.",
        "fig.",
        "approx.",
        "dept.",
        "est.",
        "jan.",
        "feb.",
        "mar.",
        "apr.",
        "jun.",
        "jul.",
        "aug.",
        "sep.",
        "sept.",
        "oct.",
        "nov.",
        "dec.",
    }
)

#: Contraction suffixes split off as their own token, longest first.
_CLITICS = ("n't", "'ll", "'re", "'ve", "'d", "'m", "'s", "'")

# A "word-ish" run: letters/digits plus internal hyphens, apostrophes,
# periods (for abbreviations and decimals), commas inside numbers.
_WORD_RE = re.compile(
    r"""
    \d[\d,]*(?:\.\d+)?[A-Za-z]*   # numbers: 1,000  3.5  72GB
    |[A-Za-z][A-Za-z\d]*(?:[.'&-][A-Za-z\d]+)*\.?   # words, model names (NR70), compounds
    |\S                           # any other single non-space char
    """,
    re.VERBOSE,
)


class Tokenizer:
    """Deterministic rule-based tokenizer.

    How a regex match splits into tokens depends only on the matched
    string and the abbreviation set, so each instance keeps a table from
    match to its ``(piece, offset)`` split, relative to the match start,
    and to the lowercased pieces :meth:`terms` reads.  Prose repeats a
    small vocabulary, so almost every match is split once.

    Parameters
    ----------
    extra_abbreviations:
        Additional lowercase abbreviation forms (ending in ``.``) that
        should keep their trailing period.
    """

    #: Split-table bound; the table is cleared wholesale when it fills.
    _SPLIT_TABLE_MAX = 16384

    def __init__(self, extra_abbreviations: frozenset[str] | set[str] | None = None):
        self._abbreviations = ABBREVIATIONS | frozenset(extra_abbreviations or ())
        self._splits: dict[str, tuple[tuple[tuple[str, int], ...], tuple[str, ...]]] = {}

    # -- public API ---------------------------------------------------------

    def tokenize(self, text: str) -> list[Token]:
        """Tokenize *text*, returning offset-faithful tokens in order."""
        tokens: list[Token] = []
        append = tokens.append
        splits = self._splits
        for match in _WORD_RE.finditer(text):
            raw = match.group()
            entry = splits.get(raw)
            if entry is None:
                entry = self._split_entry(raw)
            start = match.start()
            for piece, offset in entry[0]:
                begin = start + offset
                append(Token(piece, begin, begin + len(piece)))
        return tokens

    def terms(self, text: str) -> list[str]:
        """The lowercased token texts of *text*, in order.

        Equal to ``[t.lower for t in self.tokenize(text)]``, but no
        :class:`Token` is built: the indexer needs only the terms and
        their ordinal positions.
        """
        terms: list[str] = []
        extend = terms.extend
        splits = self._splits
        for raw in _WORD_RE.findall(text):
            extend((splits.get(raw) or self._split_entry(raw))[1])
        return terms

    # -- internals ----------------------------------------------------------

    def _split_entry(
        self, raw: str
    ) -> tuple[tuple[tuple[str, int], ...], tuple[str, ...]]:
        """Split *raw* and record it in the bounded split table."""
        pieces = tuple((t.text, t.start) for t in self._split_raw(raw, 0))
        entry = (pieces, tuple(piece.lower() for piece, _ in pieces))
        splits = self._splits
        if len(splits) >= self._SPLIT_TABLE_MAX:
            splits.clear()
        splits[raw] = entry
        return entry

    def _split_raw(self, raw: str, start: int) -> list[Token]:
        """Split one regex match into final tokens."""
        # Trailing period: keep for abbreviations / single initials,
        # otherwise split it off as punctuation.
        if raw.endswith(".") and not self._keeps_period(raw):
            body = raw[:-1]
            out = self._split_clitics(body, start) if body else []
            out.append(Token(".", start + len(raw) - 1, start + len(raw)))
            return out
        return self._split_clitics(raw, start)

    def _keeps_period(self, raw: str) -> bool:
        lower = raw.lower()
        if lower in self._abbreviations:
            return True
        # Single capital initial, e.g. "J." in "J. Yi".
        if len(raw) == 2 and raw[0].isupper():
            return True
        # Internal periods indicate an acronym like "U.S." or "e.g.".
        if "." in raw[:-1]:
            return True
        return False

    @staticmethod
    def _split_clitics(raw: str, start: int) -> list[Token]:
        """Split trailing contraction clitics off *raw*."""
        lower = raw.lower()
        for clitic in _CLITICS:
            if lower.endswith(clitic) and len(raw) > len(clitic):
                head = raw[: -len(clitic)]
                # "n't" requires the head to end in a consonant word like
                # "do"/"did"/"is"; a bare apostrophe split needs the head to
                # be alphabetic so "rock'n'roll" stays whole.
                if clitic == "'" and not head[-1].isalpha():
                    continue
                if "'" in head:  # only ever split the final clitic
                    continue
                split_at = start + len(head)
                return [
                    Token(head, start, split_at),
                    Token(raw[len(head) :], split_at, start + len(raw)),
                ]
        return [Token(raw, start, start + len(raw))]


_DEFAULT = Tokenizer()


def tokenize(text: str) -> list[Token]:
    """Tokenize with the default :class:`Tokenizer`."""
    return _DEFAULT.tokenize(text)
