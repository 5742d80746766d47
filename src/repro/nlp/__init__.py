"""NLP substrate: tokenizer, sentence splitter, POS tagger, chunker, parser.

Built from scratch for this reproduction — the paper relied on the
Ratnaparkhi tagger and the Talent shallow parser, neither of which is
available.  See DESIGN.md Section 2 for the substitution rationale.
"""

from .tokenizer import tokenize
from .sentences import split_sentences
from .postagger import default_tagger

__all__ = [
    "default_tagger",
    "split_sentences",
    "tokenize",
]
