"""Chaos integration tests: full sentiment pipelines under injected faults.

The acceptance contract for the failure model (ISSUE 2):

* replication 2 + any single seeded node death → ``run_corpus_miner``
  reports ``coverage == 1.0`` and a reduce result byte-identical to the
  fault-free run;
* replication 1 + node death → ``degraded=True`` with the correct
  surviving-partition coverage fraction, and *no exception*.

Everything here is seeded and deterministic; total runtime is kept well
under the 30-second chaos budget.
"""

import json

import pytest

from repro.core import SentimentMiner, Subject
from repro.core.disambiguation import Disambiguator, TopicTermSet
from repro.corpora import DIGITAL_CAMERA, ReviewGenerator
from repro.miners import AggregateStatisticsMiner, SentimentEntityMiner
from repro.miners.sentiment_miner import SENTIMENT_LAYER
from repro.platform import (
    Cluster,
    DataStore,
    Entity,
    FaultPlan,
    MinerPipeline,
    RetryPolicy,
)

from tests.support import chaos

pytestmark = pytest.mark.chaos

NODES = 4
PARTITIONS = 8
DOCS = 24


def make_store() -> DataStore:
    docs = ReviewGenerator(DIGITAL_CAMERA, seed=2005).generate_dplus(DOCS)
    store = DataStore(num_partitions=PARTITIONS)
    store.store_all(Entity(entity_id=d.doc_id, content=d.text) for d in docs)
    return store


def sentiment_pipeline() -> MinerPipeline:
    """The paper's flow: spot → disambiguate → sentiment."""
    subjects = [Subject(p) for p in DIGITAL_CAMERA.products] + [
        Subject(f) for f in DIGITAL_CAMERA.features
    ]
    terms = TopicTermSet.build(
        on_topic=list(DIGITAL_CAMERA.features) + ["camera", "photo", "picture"]
    )
    miner = SentimentMiner(subjects, disambiguator=Disambiguator(terms))
    return MinerPipeline([SentimentEntityMiner(miner)])


def sentiment_totals(store: DataStore) -> dict[str, dict[str, int]]:
    """Aggregate per-subject polarity counts from stored annotations."""
    totals: dict[str, dict[str, int]] = {}
    for entity in store.scan():
        for annotation in entity.layer(SENTIMENT_LAYER):
            subject = annotation.attribute("subject", "")
            bucket = totals.setdefault(subject, {"+": 0, "-": 0, "0": 0})
            bucket[annotation.label] += 1
    return totals


def stats_fingerprint(stats) -> str:
    """A byte-comparable rendering of an AggregateStatisticsMiner result."""
    return json.dumps(
        {
            "documents": stats.documents,
            "tokens": stats.tokens,
            "per_source": sorted(stats.per_source.items()),
            "term_frequency": sorted(stats.term_frequency.items()),
        },
        sort_keys=True,
    )


class TestCorpusMinerAcceptance:
    """The ISSUE acceptance criteria, asserted literally."""

    @pytest.mark.parametrize("dead_node", range(NODES))
    @pytest.mark.parametrize("death_point", [0, 1])
    def test_replication_two_single_death_exact(self, dead_node, death_point):
        baseline, base_report = Cluster(
            make_store(), num_nodes=NODES, replication=2
        ).run_corpus_miner(AggregateStatisticsMiner())
        assert base_report.coverage == 1.0

        plan = FaultPlan(seed=dead_node).kill_node(dead_node, after_partitions=death_point)
        cluster = Cluster(
            make_store(), num_nodes=NODES, replication=2, fault_plan=plan
        )
        result, report = cluster.run_corpus_miner(AggregateStatisticsMiner())

        assert report.coverage == 1.0
        assert not report.degraded
        assert report.dead_nodes == (dead_node,)
        assert report.lost_partitions == ()
        # Byte-identical reduce result, per the acceptance criterion.
        assert stats_fingerprint(result) == stats_fingerprint(baseline)
        # Each orphaned partition was re-run on a replica owner.
        expected_orphans = 2 - death_point  # each node owns 2 partitions
        assert report.failovers == expected_orphans

    @pytest.mark.parametrize("dead_node", range(NODES))
    def test_replication_one_death_degrades_with_exact_fraction(self, dead_node):
        store = make_store()
        surviving = sum(
            len(store.partition(pid))
            for pid in range(PARTITIONS)
            if pid % NODES != dead_node
        )
        total = len(store)

        plan = FaultPlan(seed=0).kill_node(dead_node, after_partitions=0)
        cluster = Cluster(store, num_nodes=NODES, replication=1, fault_plan=plan)
        result, report = cluster.run_corpus_miner(AggregateStatisticsMiner())

        assert report.degraded
        assert report.coverage == pytest.approx(surviving / total)
        assert set(report.lost_partitions) == {
            pid for pid in range(PARTITIONS) if pid % NODES == dead_node
        }
        # reduce() ran over the surviving partials — no exception, and
        # the partial totals match the surviving entity count.
        assert result.documents == surviving


class TestSentimentPipelineUnderChaos:
    def test_replicated_pipeline_matches_fault_free_aggregates(self):
        clean_store = make_store()
        Cluster(clean_store, num_nodes=NODES, replication=2).run_pipeline(
            sentiment_pipeline()
        )
        expected = sentiment_totals(clean_store)
        assert expected  # the corpus must actually produce judgments

        plan = FaultPlan(seed=11).kill_node(1, after_partitions=1)
        chaotic_store = make_store()
        report = Cluster(
            chaotic_store,
            num_nodes=NODES,
            replication=2,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=4, base_backoff=0.1),
        ).run_pipeline(sentiment_pipeline())

        assert report.coverage == 1.0
        assert not report.degraded
        assert sentiment_totals(chaotic_store) == expected

    def test_unreplicated_pipeline_flags_degraded_not_crash(self):
        plan = FaultPlan(seed=5).kill_node(2, after_partitions=0)
        store = make_store()
        report = Cluster(
            store, num_nodes=NODES, replication=1, fault_plan=plan
        ).run_pipeline(sentiment_pipeline())

        assert report.degraded
        assert 0.0 < report.coverage < 1.0
        # Entities on lost partitions were never annotated.
        for pid in report.lost_partitions:
            for entity in store.partition(pid).scan():
                assert not entity.has_layer(SENTIMENT_LAYER)

    def test_corrupted_writes_do_not_crash_the_pipeline(self):
        plan = FaultPlan(seed=3)
        for pid in range(PARTITIONS):
            plan.corrupt_write(pid, count=1)
        store = make_store()
        report = Cluster(
            store, num_nodes=NODES, replication=2, fault_plan=plan
        ).run_pipeline(sentiment_pipeline())
        assert report.coverage == 1.0
        corrupted = [e for e in store.scan() if e.metadata.get("corrupted")]
        assert corrupted  # the faults actually landed
        # A follow-up run over the damaged store must also survive.
        rerun = Cluster(store, num_nodes=NODES, replication=2).run_pipeline(
            sentiment_pipeline()
        )
        assert rerun.pipeline.entities_processed == len(store)


class TestChaosHarnessSweep:
    def test_invariants_hold_across_seeded_schedules(self):
        outcomes = chaos.sweep(
            lambda seed: chaos.run_corpus_chaos(
                make_store,
                AggregateStatisticsMiner,
                seed=seed,
                num_nodes=NODES,
                replication=2,
            ),
            range(20, 32),
        )
        failing = [(o.seed, o.violations) for o in outcomes if not o.ok]
        assert failing == []

    def test_pipeline_harness_invariants(self):
        outcomes = chaos.sweep(
            lambda seed: chaos.run_pipeline_chaos(
                make_store,
                sentiment_pipeline,
                seed=seed,
                num_nodes=NODES,
                replication=2,
            ),
            range(40, 46),
        )
        failing = [(o.seed, o.violations) for o in outcomes if not o.ok]
        assert failing == []

    def test_coverage_monotone_in_replication(self):
        """More replication never lowers coverage, for a fixed schedule."""
        coverages = []
        for replication in (1, 2, 3):
            plan = FaultPlan(seed=9).kill_node(0, after_partitions=0).kill_node(
                1, after_partitions=1
            )
            cluster = Cluster(
                make_store(), num_nodes=NODES, replication=replication, fault_plan=plan
            )
            _, report = cluster.run_corpus_miner(AggregateStatisticsMiner())
            coverages.append(report.coverage)
        assert coverages == sorted(coverages)
        assert coverages[-1] == 1.0  # R=3 survives two dead nodes

    def test_report_totals_consistent_with_per_node_work(self):
        plan = FaultPlan(seed=13).kill_node(3, after_partitions=1)
        cluster = Cluster(
            make_store(), num_nodes=NODES, replication=2, fault_plan=plan
        )
        _, report = cluster.run_corpus_miner(AggregateStatisticsMiner())
        assert report.total_work >= sum(report.per_node_work) - 1e-9
        assert report.makespan >= max(report.per_node_work) - 1e-9
        assert report.per_node_work[3] < max(report.per_node_work)  # died early
