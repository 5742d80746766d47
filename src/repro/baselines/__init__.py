"""Comparator algorithms the paper evaluates against (Tables 4–5)."""

from .collocation import CollocationBaseline
from .reviewseer import ReviewSeerClassifier, extract_features

__all__ = [
    "CollocationBaseline",
    "ReviewSeerClassifier",
    "extract_features",
]
