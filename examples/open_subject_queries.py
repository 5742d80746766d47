#!/usr/bin/env python3
"""Mode B: sentiment about subjects nobody pre-registered.

Run:  python examples/open_subject_queries.py

Figure 3's pipeline: named entities are discovered by the capitalized-
noun-phrase spotter, sentiment-bearing sentences are analyzed offline,
and the results land in a sentiment index that answers arbitrary subject
queries at interactive speed.
"""

from repro.core import Polarity, SentimentMiner
from repro.corpora import PHARMACEUTICAL, pharmaceutical_web
from repro.eval import format_table
from repro.platform import SentimentIndex


def main() -> None:
    dataset = pharmaceutical_web(scale=0.12)
    print(f"mining {len(dataset.dplus)} general web pages (pharma domain)...")

    miner = SentimentMiner()  # no subjects: open mode
    result = miner.mine_corpus((d.doc_id, d.text) for d in dataset.dplus)
    index = SentimentIndex()
    index.add_all(result.judgments)
    print(f"sentiment index: {len(index)} polar judgments, "
          f"{len(index.subjects())} subjects discovered\n")

    rows = []
    for subject in index.subjects()[:10]:
        counts = index.counts(subject)
        rows.append([subject, counts[Polarity.POSITIVE], counts[Polarity.NEGATIVE]])
    print(format_table(["discovered subject", "positive", "negative"], rows))
    print()

    # Query-time lookups for subjects the user names ad hoc.
    for company in PHARMACEUTICAL.products[:3]:
        entries = index.query(company)
        print(f"{company}: {len(entries)} indexed sentiments")
        for entry in entries[:2]:
            print(f"  [{entry.polarity.value}] in {entry.entity_id}")


if __name__ == "__main__":
    main()
