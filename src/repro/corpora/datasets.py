"""Paper-sized dataset assembly.

One builder per evaluation corpus, with the paper's document counts as
defaults (Section 4.1: digital camera D+=485 / D−=1838, music D+=250 /
D−=2389; Table 5 domains get 300 pages each).  ``scale`` shrinks
everything proportionally for tests and quick benchmark rounds.
"""

from __future__ import annotations

from .gold import Dataset
from .reviews import ReviewGenerator
from .vocab import DIGITAL_CAMERA, MUSIC, PETROLEUM, PHARMACEUTICAL
from .webpages import WebPageGenerator

#: Paper dataset sizes (Section 4.1).
CAMERA_DPLUS, CAMERA_DMINUS = 485, 1838
MUSIC_DPLUS, MUSIC_DMINUS = 250, 2389
WEB_PAGES_DEFAULT = 300


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def camera_reviews(seed: int = 2005, scale: float = 1.0) -> Dataset:
    """The digital-camera review dataset (D+=485, D−=1838 at scale 1)."""
    generator = ReviewGenerator(DIGITAL_CAMERA, seed=seed)
    return Dataset(
        name="digital_camera_reviews",
        dplus=generator.generate_dplus(_scaled(CAMERA_DPLUS, scale)),
        dminus=generator.generate_dminus(_scaled(CAMERA_DMINUS, scale)),
    )


def music_reviews(seed: int = 2005, scale: float = 1.0) -> Dataset:
    """The music-album review dataset (D+=250, D−=2389 at scale 1)."""
    generator = ReviewGenerator(MUSIC, seed=seed)
    return Dataset(
        name="music_reviews",
        dplus=generator.generate_dplus(_scaled(MUSIC_DPLUS, scale)),
        dminus=generator.generate_dminus(_scaled(MUSIC_DMINUS, scale)),
    )


def petroleum_web(seed: int = 2005, scale: float = 1.0) -> Dataset:
    """General web pages, petroleum domain (Table 5 row 1)."""
    generator = WebPageGenerator(PETROLEUM, seed=seed)
    return Dataset(
        name="petroleum_web",
        dplus=generator.generate_pages(_scaled(WEB_PAGES_DEFAULT, scale)),
        dminus=[],
    )


def pharmaceutical_web(seed: int = 2005, scale: float = 1.0) -> Dataset:
    """General web pages, pharmaceutical domain (Table 5 row 2)."""
    generator = WebPageGenerator(PHARMACEUTICAL, seed=seed)
    return Dataset(
        name="pharmaceutical_web",
        dplus=generator.generate_pages(_scaled(WEB_PAGES_DEFAULT, scale)),
        dminus=[],
    )


def petroleum_news(seed: int = 2005, scale: float = 1.0) -> Dataset:
    """News articles, petroleum domain (Table 5 row 3)."""
    generator = WebPageGenerator(PETROLEUM, seed=seed, news_style=True)
    return Dataset(
        name="petroleum_news",
        dplus=generator.generate_pages(_scaled(WEB_PAGES_DEFAULT, scale)),
        dminus=[],
    )


def review_dataset_for(domain_name: str, seed: int = 2005, scale: float = 1.0) -> Dataset:
    """Review dataset lookup by domain name."""
    if domain_name == DIGITAL_CAMERA.name:
        return camera_reviews(seed, scale)
    if domain_name == MUSIC.name:
        return music_reviews(seed, scale)
    raise ValueError(f"no review dataset for domain {domain_name!r}")
