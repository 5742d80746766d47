#!/usr/bin/env python3
"""Reputation management over the full simulated WebFountain platform.

Run:  python examples/reputation_dashboard.py

Reproduces the paper's proof-of-concept application end to end:
synthetic camera reviews are ingested into the partitioned data store,
the Figure-2 sentiment miner (spotter → sentiment analyzer, one
``SentimentMiner`` call per entity) runs on the simulated cluster and
stores each entity's spots and their sentiment, indices are built, and
the Figure-4/Figure-5 views render — including the masked product names
the paper's screenshots show.
"""

from repro.apps import ReputationManager
from repro.core import Subject
from repro.corpora import DIGITAL_CAMERA, camera_reviews


def main() -> None:
    dataset = camera_reviews(scale=0.06)
    print(f"generated {len(dataset.dplus)} synthetic camera reviews\n")

    subjects = [Subject(name) for name in DIGITAL_CAMERA.products]
    manager = ReputationManager(subjects, num_partitions=8, num_nodes=4)
    manager.load_documents((d.doc_id, d.text) for d in dataset.dplus)
    manager.build()

    print(manager.render_product_summary(mask_names=True))
    print()

    # Pick the most-discussed product and list its evidence (Figure 5).
    top = manager.summaries()[0]
    print(manager.render_sentences(top.subject, limit=5))
    print()

    print(manager.render_satisfaction_chart([s.canonical for s in subjects[:5]]))
    print()

    # Hosted services remain queryable over the Vinci bus.
    hits = manager.bus.request("search.query", {"q": '"battery life" AND disappointing'})
    print(f'pages matching \'"battery life" AND disappointing\': {hits["data"]["total"]}')


if __name__ == "__main__":
    main()
