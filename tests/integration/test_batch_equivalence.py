"""Batched stage loops must be invisible: same bytes out, fewer passes.

Every batched entry point on the hot path — the miner's ``mine_batch``
and the platform pipeline's ``process_batch`` — is asserted
byte-identical to its unbatched counterpart, document by document and
annotation by annotation, whatever the batch boundaries.  The entity
miner the cluster runs must store exactly the judgments ``mine_document``
gives, even under a seeded node death.  The chaos-marked test goes
further: a replicated cluster running the *batched* pipeline under a
seeded node death must leave exactly the same per-entity sentiment
annotations as a fault-free, entity-at-a-time baseline.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Polarity, Subject
from repro.core.context import ContextWindowRule
from repro.core.disambiguation import Disambiguator, TopicTermSet
from repro.core.miner import MiningResult, SentimentMiner
from repro.corpora import DIGITAL_CAMERA, PETROLEUM, ReviewGenerator, WebPageGenerator
from repro.miners import SentimentEntityMiner, judgments_from
from repro.miners.sentiment_miner import SENTIMENT_LAYER, SPOT_LAYER
from repro.obs import Obs
from repro.obs.audit import CONTEXT_WINDOW, SENTIMENT
from repro.platform import Cluster, DataStore, Entity, FaultPlan, MinerPipeline

NODES = 4
PARTITIONS = 8
DOCS = 20


def camera_documents(count: int = DOCS, seed: int = 2026) -> list[tuple[str, str]]:
    docs = ReviewGenerator(DIGITAL_CAMERA, seed=seed).generate_dplus(count)
    return [(d.doc_id, d.text) for d in docs]


def camera_subjects() -> list[Subject]:
    return [Subject(p) for p in DIGITAL_CAMERA.products] + [
        Subject(f) for f in DIGITAL_CAMERA.features
    ]


def camera_miner(
    obs: Obs | None = None, context_rule: ContextWindowRule | None = None
) -> SentimentMiner:
    terms = TopicTermSet.build(
        on_topic=list(DIGITAL_CAMERA.features) + ["camera", "photo", "picture"]
    )
    return SentimentMiner(
        subjects=camera_subjects(),
        disambiguator=Disambiguator(terms),
        context_rule=context_rule,
        obs=obs if obs is not None else Obs.default(),
    )


def mining_record(result: MiningResult) -> tuple:
    return (
        result.judgments,
        result.stats,
        [entry.to_record() for entry in result.audit],
    )


class TestMineBatch:
    def test_matches_mine_corpus(self):
        documents = camera_documents()
        batched = camera_miner(Obs.enabled()).mine_batch(documents)
        unbatched = camera_miner(Obs.enabled()).mine_corpus(documents)

        assert batched.judgments == unbatched.judgments
        assert batched.stats == unbatched.stats
        assert [e.to_record() for e in batched.audit] == [
            e.to_record() for e in unbatched.audit
        ]

    def test_batch_charges_one_stage_cost_per_stage(self):
        # Batching's simulated win: stage cost is paid per *batch*, not
        # per document, so the sim clock advances far less.
        documents = camera_documents(10)
        batched_obs, unbatched_obs = Obs.enabled(), Obs.enabled()
        camera_miner(batched_obs).mine_batch(documents)
        camera_miner(unbatched_obs).mine_corpus(documents)
        assert batched_obs.clock.now < unbatched_obs.clock.now

    def test_empty_batch(self):
        result = camera_miner().mine_batch([])
        assert result.judgments == []
        assert result.stats.documents == 0


#: The context window reaches one sentence ahead, so a spot left neutral
#: can inherit a pronoun's polarity from the next sentence.
WINDOW = ContextWindowRule(0, 1)
SPLIT_DOCS = 8


@functools.lru_cache(maxsize=None)
def windowed_corpus_record() -> tuple:
    result = camera_miner(Obs.enabled(), WINDOW).mine_corpus(camera_documents(SPLIT_DOCS))
    return mining_record(result)


@functools.lru_cache(maxsize=None)
def open_corpus_record() -> tuple:
    """Mode B: a miner without subjects judges the pages' named entities."""
    result = SentimentMiner(obs=Obs.enabled()).mine_corpus(petroleum_documents(SPLIT_DOCS))
    return mining_record(result)


def mine_in_batches(
    miner: SentimentMiner, documents: list[tuple[str, str]], cuts: list[int]
) -> MiningResult:
    """``mine_batch`` over the consecutive slices *cuts* mark, concatenated."""
    bounds = [0, *sorted(cuts), len(documents)]
    total = MiningResult()
    for lo, hi in zip(bounds, bounds[1:]):
        result = miner.mine_batch(documents[lo:hi])
        total.judgments.extend(result.judgments)
        total.stats.merge(result.stats)
        total.audit.extend(result.audit)
    return total


#: Cut positions; repeated cuts make empty batches, adjacent cuts make
#: batches of one.
CUTS = st.lists(st.integers(min_value=0, max_value=SPLIT_DOCS), max_size=SPLIT_DOCS + 2)


class TestBatchSplits:
    def test_corpus_exercises_context_window(self):
        _, _, audit = windowed_corpus_record()
        assert any(record["reason"] == CONTEXT_WINDOW for record in audit)

    @settings(max_examples=25, deadline=None)
    @given(cuts=CUTS)
    def test_any_consecutive_split_matches_mine_corpus(self, cuts):
        total = mine_in_batches(
            camera_miner(Obs.enabled(), WINDOW), camera_documents(SPLIT_DOCS), cuts
        )
        assert mining_record(total) == windowed_corpus_record()

    def test_open_corpus_judges_polar_entities(self):
        judgments, stats, audit = open_corpus_record()
        assert stats.judgments_polar and len(audit) == len(judgments)

    @settings(max_examples=25, deadline=None)
    @given(cuts=CUTS)
    def test_any_consecutive_split_matches_mine_corpus_in_mode_b(self, cuts):
        total = mine_in_batches(
            SentimentMiner(obs=Obs.enabled()), petroleum_documents(SPLIT_DOCS), cuts
        )
        assert mining_record(total) == open_corpus_record()


def petroleum_documents(count: int = 8, seed: int = 2005) -> list[tuple[str, str]]:
    pages = WebPageGenerator(PETROLEUM, seed=seed).generate_pages(count)
    return [(page.doc_id, page.text) for page in pages]


def polar_tuples(judgments) -> list[tuple]:
    return [
        (j.spot.document_id, j.subject_name, j.spot.start, j.spot.end, j.polarity.value)
        for j in judgments
        if j.polarity.is_polar
    ]


def polar_audit(audit) -> list[dict]:
    return [
        entry.to_record()
        for entry in audit
        if entry.kind == SENTIMENT and entry.decision != "0"
    ]


@pytest.mark.chaos
class TestAdapterPipelineMatchesMiner:
    """Under a node death, the cluster's entity miner stores what the miner judges."""

    @pytest.mark.parametrize(
        "documents, subjects, on_topic",
        [
            (
                camera_documents(12),
                camera_subjects(),
                list(DIGITAL_CAMERA.features) + ["camera", "photo", "picture"],
            ),
            (
                petroleum_documents(),
                [Subject(name) for name in (*PETROLEUM.products, *PETROLEUM.features)],
                list(PETROLEUM.features),
            ),
        ],
        ids=["camera", "petroleum"],
    )
    def test_polar_output_and_audit_match_mine_corpus(self, documents, subjects, on_topic):
        terms = TopicTermSet.build(on_topic=on_topic)
        miner_obs, cluster_obs = Obs.enabled(), Obs.enabled()
        mined = SentimentMiner(
            subjects=subjects, disambiguator=Disambiguator(terms), obs=miner_obs
        ).mine_corpus(documents)
        judged: dict[str, list] = {doc_id: [] for doc_id, _ in documents}
        for judgment in mined.judgments:
            judged[judgment.spot.document_id].append(judgment)

        store = DataStore(num_partitions=PARTITIONS)
        store.store_all(Entity(entity_id=doc_id, content=text) for doc_id, text in documents)
        miner = SentimentMiner(
            subjects=subjects, disambiguator=Disambiguator(terms), obs=cluster_obs
        )
        plan = FaultPlan(seed=17).kill_node(2, after_partitions=1)
        report = Cluster(
            store, num_nodes=NODES, replication=2, fault_plan=plan
        ).run_pipeline(MinerPipeline([SentimentEntityMiner(miner)]))
        assert report.coverage == 1.0 and report.failovers > 0

        for doc_id, judgments in judged.items():
            entity = store.get(doc_id)
            assert [
                (a.span, a.label, a.attribute("sentence")) for a in entity.layer(SPOT_LAYER)
            ] == [(j.spot.span, j.subject_name, j.spot.sentence_index) for j in judgments]
            assert [
                (
                    a.span,
                    a.label,
                    a.attribute("subject"),
                    a.attribute("pattern"),
                    a.attribute("predicate"),
                    a.attribute("negated"),
                )
                for a in entity.layer(SENTIMENT_LAYER)
            ] == [
                (
                    j.spot.span,
                    j.polarity.value,
                    j.subject_name,
                    j.provenance.pattern,
                    j.provenance.predicate,
                    j.provenance.negated,
                )
                for j in judgments
            ]
            assert polar_tuples(judgments_from(entity)) == polar_tuples(judgments)

        assert polar_tuples(mined.judgments)
        # The cluster visits partitions, not documents, in order; each
        # entity is judged once, so the audits hold the same records.
        assert sorted_records(polar_audit(cluster_obs.audit)) == sorted_records(
            polar_audit(mined.audit)
        )


def sorted_records(records: list[dict]) -> list[str]:
    return sorted(map(repr, records))


def sentiment_pipeline() -> MinerPipeline:
    terms = TopicTermSet.build(
        on_topic=list(DIGITAL_CAMERA.features) + ["camera", "photo", "picture"]
    )
    miner = SentimentMiner(camera_subjects(), disambiguator=Disambiguator(terms))
    return MinerPipeline([SentimentEntityMiner(miner)])


def make_store() -> DataStore:
    store = DataStore(num_partitions=PARTITIONS)
    store.store_all(
        Entity(entity_id=doc_id, content=text) for doc_id, text in camera_documents()
    )
    return store


def annotations_by_entity(store: DataStore) -> dict[str, list]:
    return {
        entity.entity_id: entity.layer(SENTIMENT_LAYER) for entity in store.scan()
    }


class TestProcessBatch:
    def test_matches_process_entity(self):
        batched_store, unbatched_store = make_store(), make_store()

        sentiment_pipeline().process_batch(list(batched_store.scan()))
        pipeline = sentiment_pipeline()
        for entity in unbatched_store.scan():
            pipeline.process_entity(entity)

        batched = annotations_by_entity(batched_store)
        unbatched = annotations_by_entity(unbatched_store)
        assert batched == unbatched
        assert any(batched.values())  # the corpus must actually yield sentiment

    def test_report_counts_whole_batch(self):
        store = make_store()
        pipeline = sentiment_pipeline()
        report = pipeline.process_batch(list(store.scan()))
        assert report.entities_processed == len(store)


@pytest.mark.chaos
class TestBatchedClusterUnderChaos:
    def test_failover_batches_byte_identical_to_unbatched_baseline(self):
        # Fault-free, entity-at-a-time baseline.
        baseline_store = make_store()
        pipeline = sentiment_pipeline()
        for entity in baseline_store.scan():
            pipeline.process_entity(entity)
        expected = annotations_by_entity(baseline_store)
        assert any(expected.values())

        # Replicated cluster on the batched path, one seeded node death:
        # orphaned partitions fail over and are re-batched on replicas.
        plan = FaultPlan(seed=17).kill_node(2, after_partitions=1)
        chaotic_store = make_store()
        report = Cluster(
            chaotic_store,
            num_nodes=NODES,
            replication=2,
            fault_plan=plan,
        ).run_pipeline(sentiment_pipeline())

        assert report.coverage == 1.0
        assert not report.degraded
        assert report.failovers > 0  # the death actually rerouted work
        assert annotations_by_entity(chaotic_store) == expected

    @pytest.mark.parametrize("dead_node", range(NODES))
    def test_every_single_death_preserves_annotations(self, dead_node):
        baseline_store = make_store()
        pipeline = sentiment_pipeline()
        for entity in baseline_store.scan():
            pipeline.process_entity(entity)
        expected = annotations_by_entity(baseline_store)

        plan = FaultPlan(seed=dead_node).kill_node(dead_node, after_partitions=0)
        store = make_store()
        report = Cluster(
            store, num_nodes=NODES, replication=2, fault_plan=plan
        ).run_pipeline(sentiment_pipeline())
        assert report.coverage == 1.0
        assert annotations_by_entity(store) == expected
