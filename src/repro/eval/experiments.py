"""Experiment harness: one entry point per paper table/figure.

Every function is deterministic given (seed, scale) and returns a result
object with a ``render()`` method that prints the same rows/series the
paper reports.  ``scale`` shrinks dataset sizes proportionally (1.0 =
the paper's document counts); the benchmark suite uses moderate scales
so a full run stays in seconds.

Index (see DESIGN.md Section 4):

* :func:`feature_precision`  — Section 4.1 text (97% / 100%)
* :func:`table2`             — top-20 feature terms per domain
* :func:`table3`             — product vs feature reference counts
* :func:`table4`             — SM vs collocation vs ReviewSeer on reviews
* :func:`table5`             — general web/news performance
* :func:`figure1_scaling`    — platform node-scaling series
* :func:`figure2_satisfaction` — per-product × per-feature % positive
* :func:`figure3_open_subjects` — mode-B pipeline + sentiment index
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..baselines.collocation import CollocationBaseline
from ..baselines.reviewseer import ReviewSeerClassifier
from ..core.analyzer import SentimentAnalyzer
from ..core.features import FeatureExtractionConfig, FeatureExtractor
from ..core.miner import SentimentMiner
from ..core.model import Polarity, Subject
from ..corpora import datasets as corpus_datasets
from ..corpora.gold import Dataset, I_CLASS_KINDS, LabeledDocument
from ..corpora.vocab import DIGITAL_CAMERA, DOMAINS, MUSIC, PETROLEUM, PHARMACEUTICAL
from ..nlp.sentences import split_sentences
from .agreement import FeatureJudgePanel
from .metrics import CaseKey, EvaluationCounts, document_accuracy, evaluate_cases
from .reporting import ascii_bar_chart, format_percent, format_table

# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------


def subjects_for(dataset: Dataset) -> list[Subject]:
    """All gold subjects in a dataset, as miner subjects."""
    names = sorted({m.subject for doc in dataset.dplus for m in doc.mentions})
    return [Subject(n) for n in names]


def _predictions_sm(
    miner: SentimentMiner, document: LabeledDocument
) -> dict[CaseKey, Polarity]:
    result = miner.mine_document(document.text, document.doc_id)
    return {
        (j.subject_name.lower(), j.spot.sentence_index): j.polarity
        for j in result.judgments
    }


def _predictions_collocation(
    baseline: CollocationBaseline, subjects: list[Subject], document: LabeledDocument
) -> dict[CaseKey, Polarity]:
    judgments = baseline.analyze_text(document.text, subjects, document.doc_id)
    return {
        (j.subject_name.lower(), j.spot.sentence_index): j.polarity for j in judgments
    }


def evaluate_system(
    dataset: Dataset,
    system: str,
    analyzer: SentimentAnalyzer | None = None,
    context_rule=None,
) -> EvaluationCounts:
    """Run ``sm`` or ``collocation`` over a dataset's D+ documents."""
    subjects = subjects_for(dataset)
    counts = EvaluationCounts()
    if system == "sm":
        miner = SentimentMiner(
            subjects=subjects,
            analyzer=analyzer or SentimentAnalyzer(),
            context_rule=context_rule,
        )
        for document in dataset.dplus:
            predictions = _predictions_sm(miner, document)
            counts.merge(evaluate_cases(document.mentions, predictions))
    elif system == "collocation":
        baseline = CollocationBaseline()
        for document in dataset.dplus:
            predictions = _predictions_collocation(baseline, subjects, document)
            counts.merge(evaluate_cases(document.mentions, predictions))
    else:
        raise ValueError(f"unknown system {system!r}")
    return counts


def _train_reviewseer(
    documents: list[LabeledDocument], neutral_margin: float = 1.0
) -> ReviewSeerClassifier:
    positive = [d.text for d in documents if d.doc_polarity is Polarity.POSITIVE]
    negative = [d.text for d in documents if d.doc_polarity is Polarity.NEGATIVE]
    classifier = ReviewSeerClassifier(neutral_margin=neutral_margin)
    classifier.train(positive, negative)
    return classifier


def _reviewseer_sentence_counts(
    classifier: ReviewSeerClassifier,
    dataset: Dataset,
    exclude_kinds: frozenset[str] = frozenset(),
) -> EvaluationCounts:
    """Sentence-level ReviewSeer evaluation over gold mention cases."""
    counts = EvaluationCounts()
    for document in dataset.dplus:
        sentences = split_sentences(document.text)
        sentence_label: dict[int, Polarity] = {}
        for mention in document.mentions:
            if mention.kind in exclude_kinds:
                continue
            index = mention.sentence_index
            if index not in sentence_label:
                if index < len(sentences):
                    text = sentences[index].text_of(document.text)
                    sentence_label[index] = classifier.classify_sentence(text)
                else:
                    sentence_label[index] = Polarity.NEUTRAL
            counts.record(mention.polarity, sentence_label[index])
    return counts


# ---------------------------------------------------------------------------
# Section 4.1: feature extraction precision (97% / 100%)
# ---------------------------------------------------------------------------


@dataclass
class FeaturePrecisionResult:
    domain: str
    precision: float
    extracted: list[str]
    dplus_docs: int
    dminus_docs: int

    def render(self) -> str:
        return format_table(
            ["domain", "extracted terms", "precision"],
            [[self.domain, len(self.extracted), format_percent(self.precision)]],
            title="Feature extraction precision (paper: 97% camera / 100% music)",
        )


def feature_precision(
    domain: str = "digital_camera", seed: int = 2005, scale: float = 0.2
) -> FeaturePrecisionResult:
    """bBNP + likelihood-ratio extraction judged by the two-judge panel."""
    dataset = corpus_datasets.review_dataset_for(domain, seed=seed, scale=scale)
    vocab = DOMAINS[domain]
    extractor = FeatureExtractor(FeatureExtractionConfig(min_support=3))
    features = extractor.extract(dataset.dplus_texts(), dataset.dminus_texts())
    terms = [f.term for f in features]
    panel = FeatureJudgePanel(vocab, seed=seed)
    return FeaturePrecisionResult(
        domain=domain,
        precision=panel.precision(terms),
        extracted=terms,
        dplus_docs=len(dataset.dplus),
        dminus_docs=len(dataset.dminus),
    )


# ---------------------------------------------------------------------------
# Table 2: top-20 feature terms per domain
# ---------------------------------------------------------------------------


@dataclass
class Table2Result:
    camera_terms: list[str]
    music_terms: list[str]
    camera_overlap: float
    music_overlap: float

    def render(self) -> str:
        rows = []
        for i in range(20):
            rows.append(
                [
                    i + 1,
                    self.camera_terms[i] if i < len(self.camera_terms) else "",
                    self.music_terms[i] if i < len(self.music_terms) else "",
                ]
            )
        table = format_table(
            ["rank", "Digital Camera", "Music Albums"],
            rows,
            title="Table 2: top 20 feature terms extracted by bBNP-L",
        )
        overlap = (
            f"overlap with the paper's published lists: camera "
            f"{format_percent(self.camera_overlap)}, music {format_percent(self.music_overlap)}"
        )
        return table + "\n" + overlap


def table2(seed: int = 2005, scale: float = 0.2) -> Table2Result:
    """Top-20 bBNP-L feature terms for both review domains."""
    config = FeatureExtractionConfig(min_support=2, top_n=20)
    out: dict[str, list[str]] = {}
    for domain in (DIGITAL_CAMERA.name, MUSIC.name):
        dataset = corpus_datasets.review_dataset_for(domain, seed=seed, scale=scale)
        extractor = FeatureExtractor(config)
        features = extractor.extract(dataset.dplus_texts(), dataset.dminus_texts())
        out[domain] = [f.term for f in features]
    from ..corpora.vocab import PAPER_CAMERA_FEATURES, PAPER_MUSIC_FEATURES

    camera_overlap = _overlap(out[DIGITAL_CAMERA.name], PAPER_CAMERA_FEATURES)
    music_overlap = _overlap(out[MUSIC.name], PAPER_MUSIC_FEATURES)
    return Table2Result(
        camera_terms=out[DIGITAL_CAMERA.name],
        music_terms=out[MUSIC.name],
        camera_overlap=camera_overlap,
        music_overlap=music_overlap,
    )


def _overlap(extracted: list[str], published: tuple[str, ...]) -> float:
    if not extracted:
        return 0.0
    published_set = {p.lower() for p in published}
    return sum(1 for t in extracted if t.lower() in published_set) / len(extracted)


# ---------------------------------------------------------------------------
# Table 3: product vs feature term references
# ---------------------------------------------------------------------------


@dataclass
class Table3Result:
    product_counts: list[tuple[str, int]]
    feature_counts: list[tuple[str, int]]
    total_products: int
    total_product_refs: int
    total_features: int
    total_feature_refs: int

    @property
    def ratio(self) -> float:
        if self.total_product_refs == 0:
            return 0.0
        return self.total_feature_refs / self.total_product_refs

    def render(self) -> str:
        left = format_table(
            ["Product Names", "# of references"],
            [[n, c] for n, c in self.product_counts[:7]]
            + [[f"{self.total_products} Products", self.total_product_refs]],
        )
        right = format_table(
            ["Feature Terms", "# of references"],
            [[n, c] for n, c in self.feature_counts[:7]]
            + [[f"{self.total_features} Features", self.total_feature_refs]],
        )
        summary = (
            f"feature/product reference ratio: {self.ratio:.1f}x "
            "(paper: ~12.4x)"
        )
        return (
            "Table 3: product name vs feature term references (camera D+)\n"
            + left
            + "\n\n"
            + right
            + "\n"
            + summary
        )


def table3(seed: int = 2005, scale: float = 0.2) -> Table3Result:
    """Reference counts via the spotter over the camera D+ collection."""
    from ..core.spotting import SubjectSpotter

    dataset = corpus_datasets.camera_reviews(seed=seed, scale=scale)
    vocab = DIGITAL_CAMERA
    product_spotter = SubjectSpotter([Subject(p) for p in vocab.products])
    feature_spotter = SubjectSpotter([Subject(f) for f in vocab.features])
    product_refs: dict[str, int] = {}
    feature_refs: dict[str, int] = {}
    for document in dataset.dplus:
        sentences = split_sentences(document.text)
        for spot in product_spotter.spot_document(sentences):
            product_refs[spot.subject.canonical] = product_refs.get(spot.subject.canonical, 0) + 1
        for spot in feature_spotter.spot_document(sentences):
            feature_refs[spot.subject.canonical] = feature_refs.get(spot.subject.canonical, 0) + 1
    product_counts = sorted(product_refs.items(), key=lambda kv: -kv[1])
    feature_counts = sorted(feature_refs.items(), key=lambda kv: -kv[1])
    return Table3Result(
        product_counts=product_counts,
        feature_counts=feature_counts,
        total_products=len(product_counts),
        total_product_refs=sum(product_refs.values()),
        total_features=len(feature_counts),
        total_feature_refs=sum(feature_refs.values()),
    )


# ---------------------------------------------------------------------------
# Table 4: review-dataset comparison
# ---------------------------------------------------------------------------


@dataclass
class Table4Result:
    sm: EvaluationCounts
    collocation: EvaluationCounts
    reviewseer_accuracy: float

    def render(self) -> str:
        rows = [
            [
                "SM",
                format_percent(self.sm.precision),
                format_percent(self.sm.recall),
                format_percent(self.sm.accuracy),
            ],
            [
                "Collocation",
                format_percent(self.collocation.precision),
                format_percent(self.collocation.recall),
                "N/A",
            ],
            ["ReviewSeer", "N/A", "N/A", format_percent(self.reviewseer_accuracy)],
        ]
        table = format_table(
            ["", "Precision", "Recall", "Accuracy"],
            rows,
            title="Table 4: sentiment extraction on the product review datasets",
        )
        return table + "\n(paper: SM 87/56/85.6, Collocation 18/70, ReviewSeer 88.4)"


def table4(seed: int = 2005, scale: float = 0.2) -> Table4Result:
    """SM vs collocation vs ReviewSeer on camera + music reviews."""
    camera = corpus_datasets.camera_reviews(seed=seed, scale=scale)
    music = corpus_datasets.music_reviews(seed=seed, scale=scale)

    sm = evaluate_system(camera, "sm")
    sm.merge(evaluate_system(music, "sm"))
    collocation = evaluate_system(camera, "collocation")
    collocation.merge(evaluate_system(music, "collocation"))

    # ReviewSeer: document-level accuracy on held-out reviews (its native
    # task, matching the paper's 88.4%).
    rng = random.Random(seed)
    doc_labels: list[Polarity] = []
    doc_predictions: list[Polarity] = []
    for dataset in (camera, music):
        # Stratified 70/30 split so tiny test scales keep both classes.
        positive = [d for d in dataset.dplus if d.doc_polarity is Polarity.POSITIVE]
        negative = [d for d in dataset.dplus if d.doc_polarity is Polarity.NEGATIVE]
        rng.shuffle(positive)
        rng.shuffle(negative)
        train_docs: list[LabeledDocument] = []
        test_docs: list[LabeledDocument] = []
        for group in (positive, negative):
            split = max(1, int(0.7 * len(group))) if group else 0
            train_docs.extend(group[:split])
            test_docs.extend(group[split:])
        if not test_docs or not any(
            d.doc_polarity is Polarity.POSITIVE for d in train_docs
        ) or not any(d.doc_polarity is Polarity.NEGATIVE for d in train_docs):
            train_docs, test_docs = list(dataset.dplus), list(dataset.dplus)
        classifier = _train_reviewseer(train_docs)
        for document in test_docs:
            doc_labels.append(document.doc_polarity)
            doc_predictions.append(classifier.classify_document(document.text))
    return Table4Result(
        sm=sm,
        collocation=collocation,
        reviewseer_accuracy=document_accuracy(doc_labels, doc_predictions),
    )


# ---------------------------------------------------------------------------
# Table 5: general web documents and news
# ---------------------------------------------------------------------------


@dataclass
class Table5Row:
    label: str
    sm_precision: float
    sm_accuracy: float


@dataclass
class Table5Result:
    rows: list[Table5Row]
    reviewseer_accuracy: float
    reviewseer_accuracy_no_i: float
    i_class_fraction: float

    def render(self) -> str:
        body = [
            [r.label, format_percent(r.sm_precision), format_percent(r.sm_accuracy), "N/A"]
            for r in self.rows
        ]
        body.append(
            [
                "ReviewSeer (Web)",
                "N/A",
                format_percent(self.reviewseer_accuracy),
                format_percent(self.reviewseer_accuracy_no_i),
            ]
        )
        table = format_table(
            ["", "Precision", "Accuracy", "Acc. w/o I class"],
            body,
            title="Table 5: performance on general web documents and news",
        )
        note = (
            f"I-class fraction of subject mentions: {format_percent(self.i_class_fraction)} "
            "(paper: 60%-90%) | paper: SM P 86-91 / Acc 90-93, ReviewSeer 38 (68 w/o I)"
        )
        return table + "\n" + note


def table5(seed: int = 2005, scale: float = 0.2) -> Table5Result:
    """SM and ReviewSeer on petroleum/pharma web pages and news."""
    corpora = [
        ("SM (Petroleum, Web)", corpus_datasets.petroleum_web(seed=seed, scale=scale)),
        ("SM (Pharmaceutical, Web)", corpus_datasets.pharmaceutical_web(seed=seed, scale=scale)),
        ("SM (Petroleum, News)", corpus_datasets.petroleum_news(seed=seed, scale=scale)),
    ]
    rows = []
    mention_total = 0
    mention_i_class = 0
    for label, dataset in corpora:
        counts = evaluate_system(dataset, "sm")
        rows.append(
            Table5Row(
                label=label,
                sm_precision=counts.precision,
                sm_accuracy=counts.accuracy,
            )
        )
        for document in dataset.dplus:
            for mention in document.mentions:
                mention_total += 1
                if mention.is_i_class:
                    mention_i_class += 1

    # ReviewSeer, sentence-level, on the petroleum web corpus; trained on
    # same-domain pseudo-reviews (its best case).
    from ..corpora.reviews import ReviewGenerator

    train_docs = ReviewGenerator(PETROLEUM, seed=seed + 17).generate_dplus(
        max(20, int(100 * scale))
    )
    classifier = _train_reviewseer(train_docs)
    web = corpora[0][1]
    rs = _reviewseer_sentence_counts(classifier, web)
    rs_no_i = _reviewseer_sentence_counts(classifier, web, exclude_kinds=frozenset(I_CLASS_KINDS))
    return Table5Result(
        rows=rows,
        reviewseer_accuracy=rs.accuracy,
        reviewseer_accuracy_no_i=rs_no_i.accuracy,
        i_class_fraction=mention_i_class / mention_total if mention_total else 0.0,
    )


# ---------------------------------------------------------------------------
# Extension: per-template-kind error analysis (not in the paper)
# ---------------------------------------------------------------------------


@dataclass
class ErrorAnalysisResult:
    """SM outcome distribution per gold template kind.

    Not a paper table — an extension that verifies the corpus design:
    each template kind should fail (or succeed) for its designed reason.
    """

    #: kind -> {"correct": n, "wrong_polar": n, "missed": n, "neutral_ok": n}
    by_kind: dict[str, dict[str, int]]

    def rate(self, kind: str, outcome: str) -> float:
        bucket = self.by_kind.get(kind, {})
        total = sum(bucket.values())
        return bucket.get(outcome, 0) / total if total else 0.0

    def render(self) -> str:
        rows = []
        for kind in sorted(self.by_kind):
            bucket = self.by_kind[kind]
            total = sum(bucket.values())
            rows.append(
                [
                    kind,
                    total,
                    format_percent(self.rate(kind, "correct")),
                    format_percent(self.rate(kind, "wrong_polar")),
                    format_percent(self.rate(kind, "missed")),
                    format_percent(self.rate(kind, "neutral_ok")),
                ]
            )
        return format_table(
            ["gold kind", "cases", "correct polar", "wrong polar", "missed", "correct neutral"],
            rows,
            title="Error analysis: miner outcome by template kind (extension)",
        )


def error_analysis(seed: int = 2005, scale: float = 0.2) -> ErrorAnalysisResult:
    """SM outcomes broken down by the gold template kind."""
    dataset = corpus_datasets.camera_reviews(seed=seed, scale=scale)
    miner = SentimentMiner(subjects=subjects_for(dataset))
    by_kind: dict[str, dict[str, int]] = {}
    for document in dataset.dplus:
        predictions = _predictions_sm(miner, document)
        for mention in document.mentions:
            key = (mention.subject.lower(), mention.sentence_index)
            predicted = predictions.get(key, Polarity.NEUTRAL)
            bucket = by_kind.setdefault(
                mention.kind,
                {"correct": 0, "wrong_polar": 0, "missed": 0, "neutral_ok": 0},
            )
            if mention.polarity.is_polar:
                if predicted is mention.polarity:
                    bucket["correct"] += 1
                elif predicted.is_polar:
                    bucket["wrong_polar"] += 1
                else:
                    bucket["missed"] += 1
            else:
                if predicted.is_polar:
                    bucket["wrong_polar"] += 1
                else:
                    bucket["neutral_ok"] += 1
    return ErrorAnalysisResult(by_kind=by_kind)


# ---------------------------------------------------------------------------
# Figure 1: platform architecture / node scaling
# ---------------------------------------------------------------------------


@dataclass
class Figure1Result:
    ingestion_per_source: dict[str, int]
    scaling: list[tuple[int, float, float]]  # (nodes, makespan, speedup)

    def render(self) -> str:
        source_table = format_table(
            ["source", "documents"],
            sorted(self.ingestion_per_source.items()),
            title="Figure 1: multi-source ingestion into the data store",
        )
        chart = ascii_bar_chart(
            [(f"{n} nodes", speedup) for n, _, speedup in self.scaling],
            title="cluster speedup vs nodes (simulated work units)",
        )
        return source_table + "\n\n" + chart


def figure1_scaling(seed: int = 2005, scale: float = 0.2) -> Figure1Result:
    """Ingest a mixed corpus, mine it on the cluster at 1/2/4/8 nodes.

    The cluster runs the Mode A sentiment miner as its one entity miner
    (:class:`~repro.miners.SentimentEntityMiner`); makespan and speedup
    are in the cluster's simulated work units.
    """
    from ..corpora.reviews import ReviewGenerator
    from ..miners import SentimentEntityMiner
    from ..platform import (
        BulletinBoardIngestor,
        Cluster,
        CustomerDataIngestor,
        DataStore,
        IngestionManager,
        MinerPipeline,
        NewsFeedIngestor,
    )

    generator = ReviewGenerator(DIGITAL_CAMERA, seed=seed)
    reviews = generator.generate_dplus(max(8, int(80 * scale)))
    news = [(d.doc_id, d.text, "2004-06-01") for d in reviews[: len(reviews) // 4]]
    threads = [("cameras", [d.text]) for d in reviews[len(reviews) // 4 : len(reviews) // 2]]
    customers = [{"account": i, "comment": d.text} for i, d in enumerate(reviews[len(reviews) // 2 :])]

    ingestion_counts: dict[str, int] = {}
    scaling: list[tuple[int, float, float]] = []
    for nodes in (1, 2, 4, 8):
        store = DataStore(num_partitions=8)
        manager = IngestionManager(store)
        manager.add_source(NewsFeedIngestor(news))
        manager.add_source(BulletinBoardIngestor(threads))
        manager.add_source(CustomerDataIngestor(customers))
        report = manager.ingest()
        ingestion_counts = dict(report.per_source)
        miner = SentimentMiner([Subject(p) for p in DIGITAL_CAMERA.products])
        pipeline = MinerPipeline([SentimentEntityMiner(miner)])
        cluster = Cluster(store, num_nodes=nodes)
        run = cluster.run_pipeline(pipeline)
        scaling.append((nodes, run.makespan, run.speedup))
    return Figure1Result(ingestion_per_source=ingestion_counts, scaling=scaling)


# ---------------------------------------------------------------------------
# Figure 2 inset: digital camera customer satisfaction chart
# ---------------------------------------------------------------------------


@dataclass
class Figure2Result:
    #: product -> feature -> % of polar judgments that are positive
    satisfaction: dict[str, dict[str, float]]
    features: list[str]

    def render(self) -> str:
        headers = ["product"] + self.features
        rows = []
        for product, by_feature in self.satisfaction.items():
            rows.append(
                [product]
                + [
                    format_percent(by_feature[f]) if f in by_feature else "-"
                    for f in self.features
                ]
            )
        return format_table(
            headers,
            rows,
            title="Figure 2 (inset): Digital Camera Customer Satisfaction — % positive",
        )


#: The features and the number of products the Figure 2 chart shows.
FIGURE2_FEATURES = ("picture quality", "battery", "flash")
FIGURE2_MAX_PRODUCTS = 7


def figure2_satisfaction(seed: int = 2005, scale: float = 0.2) -> Figure2Result:
    """Mode-A mining aggregated per product × feature (the paper's inset
    bar chart: % of pages with positive sentiment per product/feature)."""
    dataset = corpus_datasets.camera_reviews(seed=seed, scale=scale)
    vocab = DIGITAL_CAMERA
    subjects = [Subject(p) for p in vocab.products] + [Subject(f) for f in FIGURE2_FEATURES]
    miner = SentimentMiner(subjects=subjects)
    per_product: dict[str, dict[str, list[int]]] = {}
    for document in dataset.dplus:
        result = miner.mine_document(document.text, document.doc_id)
        # The document's product is its most-mentioned product subject.
        product_names = {p for p in vocab.products}
        product_mentions = [j for j in result.judgments if j.subject_name in product_names]
        if not product_mentions:
            continue
        product = product_mentions[0].subject_name
        bucket = per_product.setdefault(product, {f: [0, 0] for f in FIGURE2_FEATURES})
        for judgment in result.judgments:
            name = judgment.subject_name
            if name in bucket and judgment.polarity.is_polar:
                bucket[name][1] += 1
                if judgment.polarity is Polarity.POSITIVE:
                    bucket[name][0] += 1
    satisfaction: dict[str, dict[str, float]] = {}
    ranked = sorted(per_product, key=lambda p: -sum(v[1] for v in per_product[p].values()))
    for product in ranked[:FIGURE2_MAX_PRODUCTS]:
        satisfaction[product] = {
            feature: (positive / total if total else 0.0)
            for feature, (positive, total) in per_product[product].items()
        }
    return Figure2Result(satisfaction=satisfaction, features=list(FIGURE2_FEATURES))


# ---------------------------------------------------------------------------
# Figure 3: open-subject pipeline + sentiment index
# ---------------------------------------------------------------------------


@dataclass
class Figure3Result:
    indexed_judgments: int
    subjects_discovered: int
    top_subjects: list[tuple[str, int, int]]  # (subject, positive, negative)
    query_results: dict[str, dict[str, int]]

    def render(self) -> str:
        rows = [[s, p, n] for s, p, n in self.top_subjects]
        return format_table(
            ["subject", "positive", "negative"],
            rows,
            title="Figure 3: open-subject mining — sentiment index contents",
        )


def figure3_open_subjects(seed: int = 2005, scale: float = 0.2) -> Figure3Result:
    """Mode B over the pharma web corpus, indexed for query-time use."""
    from ..platform.indexer import SentimentIndex

    dataset = corpus_datasets.pharmaceutical_web(seed=seed, scale=scale)
    result = SentimentMiner().mine_corpus((d.doc_id, d.text) for d in dataset.dplus)
    index = SentimentIndex()
    index.add_all(result.judgments)
    top = []
    for subject in index.subjects()[:10]:
        counts = index.counts(subject)
        top.append((subject, counts[Polarity.POSITIVE], counts[Polarity.NEGATIVE]))
    queries = {}
    for company in PHARMACEUTICAL.products[:3]:
        counts = index.counts(company)
        queries[company] = {
            "positive": counts[Polarity.POSITIVE],
            "negative": counts[Polarity.NEGATIVE],
        }
    return Figure3Result(
        indexed_judgments=len(index),
        subjects_discovered=len(index.subjects()),
        top_subjects=top,
        query_results=queries,
    )
