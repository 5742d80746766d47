"""Golden-corpus serialization for the hot-path differential harness.

Three seeded corpora have their *entire* mining output — every spot,
polarity, provenance field, and audit decision — frozen as JSON under
``tests/fixtures/golden/``.  The tier-1 regression test re-mines the
same corpora (on both the batched optimized path and the unbatched
path) and diffs the reports byte-for-byte, so any hot-path change that
shifts semantics fails loudly rather than silently skewing results.

Regenerate fixtures (only after an *intentional* semantics change)::

    PYTHONPATH=src python -m tests.support.golden
"""

from __future__ import annotations

import json
import os

from repro.core import Subject
from repro.core.disambiguation import Disambiguator, TopicTermSet
from repro.core.miner import MiningResult, SentimentMiner
from repro.core.model import SentimentJudgment
from repro.corpora import (
    DIGITAL_CAMERA,
    MUSIC,
    PETROLEUM,
    PHARMACEUTICAL,
    ReviewGenerator,
    WebPageGenerator,
)
from repro.obs import Obs

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures", "golden")

#: Golden corpus sizes — small enough for tier-1, large enough to cover
#: every sentence-template class the generators emit.
CAMERA_DOCS = 6
MUSIC_DOCS = 12
WEB_PAGES = 6
CAMERA_SEED = 7
MUSIC_SEED = 11
WEB_SEED = 13


def judgment_record(judgment: SentimentJudgment) -> dict:
    """One judgment as a canonical JSON-able record (every field)."""
    spot = judgment.spot
    provenance = judgment.provenance
    return {
        "subject": spot.subject.canonical,
        "synonyms": list(spot.subject.synonyms),
        "term": spot.term,
        "start": spot.start,
        "end": spot.end,
        "sentence_index": spot.sentence_index,
        "document_id": spot.document_id,
        "polarity": judgment.polarity.value,
        "sentence_span": (
            [judgment.sentence_span.start, judgment.sentence_span.end]
            if judgment.sentence_span is not None
            else None
        ),
        "provenance": {
            "predicate": provenance.predicate,
            "pattern": provenance.pattern,
            "source_role": provenance.source_role,
            "target_role": provenance.target_role,
            "sentiment_words": list(provenance.sentiment_words),
            "negated": provenance.negated,
            "holder": provenance.holder,
        },
    }


def mining_report(result: MiningResult) -> dict:
    """The full mining output as one canonical JSON-able report."""
    return {
        "judgments": [judgment_record(j) for j in result.judgments],
        "stats": {
            "documents": result.stats.documents,
            "sentences": result.stats.sentences,
            "spots_found": result.stats.spots_found,
            "spots_on_topic": result.stats.spots_on_topic,
            "judgments_polar": result.stats.judgments_polar,
            "judgments_neutral": result.stats.judgments_neutral,
        },
        "audit": [entry.to_record() for entry in result.audit],
    }


# -- the golden corpora ---------------------------------------------------------


def camera_documents() -> list[tuple[str, str]]:
    docs = ReviewGenerator(DIGITAL_CAMERA, seed=CAMERA_SEED).generate_dplus(CAMERA_DOCS)
    return [(d.doc_id, d.text) for d in docs]


def camera_subjects() -> list[Subject]:
    return [Subject(p) for p in DIGITAL_CAMERA.products] + [
        Subject(f) for f in DIGITAL_CAMERA.features
    ]


def camera_miner(obs: Obs) -> SentimentMiner:
    """Mode A with disambiguation, so audit carries keep/filter decisions."""
    terms = TopicTermSet.build(
        on_topic=list(DIGITAL_CAMERA.features) + ["camera", "photo", "picture"]
    )
    return SentimentMiner(
        subjects=camera_subjects(),
        disambiguator=Disambiguator(terms),
        obs=obs,
    )


def music_documents() -> list[tuple[str, str]]:
    docs = ReviewGenerator(MUSIC, seed=MUSIC_SEED).generate_dplus(MUSIC_DOCS)
    return [(d.doc_id, d.text) for d in docs]


def mine_camera(batched: bool) -> MiningResult:
    miner = camera_miner(Obs.enabled())
    documents = camera_documents()
    return miner.mine_batch(documents) if batched else miner.mine_corpus(documents)


def mine_music_open(batched: bool = False) -> MiningResult:
    """Mode B (open subjects) over the music corpus."""
    miner = SentimentMiner(obs=Obs.enabled())
    documents = music_documents()
    return miner.mine_batch(documents) if batched else miner.mine_corpus(documents)


#: Hand-written wire copy for the web corpus.  The page generator never
#: emits abbreviations, clitics or typographic punctuation; these
#: sentences put ``Inc.``/``U.S.``/``Dr.``, ``n't``/``'s``/``rock'n'roll``,
#: curly quotes, dashes and capitalised unknown words (sentence-initial
#: and mid-sentence) next to the corpus's own subjects.
WIRE_TEMPLATES = (
    "{a} Inc. said the U.S. {f} didn't impress analysts. "
    "Dr. Okafor of {b} Ltd. praised the {g} \u2014 a rare win.",
    "\u201cThe {f} is excellent,\u201d said Mr. Quill, who doesn't trust {b}. "
    "Zentrix analysts criticized {a}'s {g}; the rock'n'roll era is over.",
    "Investors haven't forgiven {a} Corp. for the {f}\u2026 "
    "The {g} at {b} isn't reliable, e.g. in the U.K. plants. "
    "Quorvane Holdings loved the {f}!",
    # The same unknown word opens one sentence and sits mid-sentence in
    # the next: the tagger reads it as a verb there and a name here.
    "Zorbled analysts praised the {g}. Investors at Zorbled criticized {b}.",
)


def web_documents() -> list[tuple[str, str]]:
    """Petroleum and pharmaceutical web pages plus a few wire stories."""
    documents: list[tuple[str, str]] = []
    for vocab, offset in ((PETROLEUM, 0), (PHARMACEUTICAL, 1)):
        generator = WebPageGenerator(vocab, seed=WEB_SEED + offset)
        documents.extend((p.doc_id, p.text) for p in generator.generate_pages(WEB_PAGES))
        for i, template in enumerate(WIRE_TEMPLATES):
            text = template.format(
                a=vocab.products[i],
                b=vocab.products[i + 3],
                f=vocab.features[i],
                g=vocab.features[i + 5],
            )
            documents.append((f"{vocab.name}:wire:{i:05d}", text))
    return documents


def web_subjects() -> list[Subject]:
    names: list[str] = []
    for vocab in (PETROLEUM, PHARMACEUTICAL):
        for name in (*vocab.products, *vocab.features):
            if name not in names:
                names.append(name)
    return [Subject(name) for name in names]


def web_topic_terms() -> TopicTermSet:
    return TopicTermSet.build(
        on_topic=list(PETROLEUM.features) + list(PHARMACEUTICAL.features)
    )


def mine_web(batched: bool = False) -> MiningResult:
    """Mode A with disambiguation over many subjects per page."""
    miner = SentimentMiner(
        subjects=web_subjects(),
        disambiguator=Disambiguator(web_topic_terms()),
        obs=Obs.enabled(),
    )
    documents = web_documents()
    return miner.mine_batch(documents) if batched else miner.mine_corpus(documents)


GOLDEN_RUNS = {
    "camera_modeA.json": lambda: mine_camera(batched=False),
    "music_modeB.json": lambda: mine_music_open(),
    "web_modeA.json": lambda: mine_web(batched=False),
}


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


def load_fixture(name: str) -> dict:
    with open(fixture_path(name), "r", encoding="utf-8") as stream:
        return json.load(stream)


def regenerate() -> list[str]:
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    written = []
    for name, run in GOLDEN_RUNS.items():
        report = mining_report(run())
        with open(fixture_path(name), "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=1, sort_keys=True)
            stream.write("\n")
        written.append(fixture_path(name))
    return written


if __name__ == "__main__":
    for path in regenerate():
        print(f"wrote {path}")
