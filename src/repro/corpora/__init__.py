"""Synthetic corpora with ground truth (DESIGN.md Section 2 substitution).

Deterministic generators replace the paper's proprietary datasets while
preserving the statistical properties the evaluation depends on: review
pages are sentiment-dense and single-product; general web pages are
sparse, multi-subject, and I-class dominated.
"""

from .datasets import (
    camera_reviews,
    music_reviews,
    petroleum_news,
    petroleum_web,
    pharmaceutical_web,
    review_dataset_for,
)
from .reviews import ReviewGenerator
from .vocab import DIGITAL_CAMERA, DOMAINS, MUSIC, PETROLEUM, PHARMACEUTICAL
from .webpages import WebPageGenerator

__all__ = [
    "DIGITAL_CAMERA",
    "DOMAINS",
    "MUSIC",
    "PETROLEUM",
    "PHARMACEUTICAL",
    "ReviewGenerator",
    "WebPageGenerator",
    "camera_reviews",
    "music_reviews",
    "petroleum_news",
    "petroleum_web",
    "pharmaceutical_web",
    "review_dataset_for",
]
