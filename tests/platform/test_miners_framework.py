"""Unit tests for the miner framework (pipeline + corpus miners)."""

import pytest

from repro.platform.datastore import DataStore
from repro.platform.entity import Annotation, Entity
from repro.core.mining import (
    CorpusMiner,
    EntityMiner,
    MinerPipeline,
    PipelineError,
)


class UppercaseCounter(EntityMiner):
    """Toy miner: annotates capitalized character count."""

    name = "upper-counter"
    provides = ("upper",)

    def process(self, entity):
        count = sum(1 for c in entity.content if c.isupper())
        entity.annotate(Annotation.make("upper", 0, 0, label=str(count)))


class NeedsUpper(EntityMiner):
    name = "needs-upper"
    requires = ("upper",)
    provides = ("shout",)

    def process(self, entity):
        (upper,) = entity.layer("upper")
        entity.annotate(Annotation.make("shout", 0, 0, label="!" * int(upper.label)))


class Crasher(EntityMiner):
    name = "crasher"
    provides = ("crash",)

    def process(self, entity):
        raise RuntimeError("bang")


class WordCounter(CorpusMiner):
    name = "word-counter"

    def map_partition(self, entities):
        return sum(len(e.content.split()) for e in entities)

    def reduce(self, partials):
        return sum(partials)


def store_with(n=10):
    store = DataStore(num_partitions=4)
    store.store_all(Entity(entity_id=f"d{i}", content=f"Doc Number {i}") for i in range(n))
    return store


class TestPipelineValidation:
    def test_satisfied_dependencies_ok(self):
        MinerPipeline([UppercaseCounter(), NeedsUpper()])

    def test_missing_dependency_rejected(self):
        with pytest.raises(PipelineError, match="requires layers"):
            MinerPipeline([NeedsUpper()])

    def test_order_matters(self):
        with pytest.raises(PipelineError):
            MinerPipeline([NeedsUpper(), UppercaseCounter()])


class TestPipelineExecution:
    def test_run_annotates_and_stores(self):
        store = store_with(5)
        report = MinerPipeline([UppercaseCounter(), NeedsUpper()]).run(store)
        assert report.entities_processed == 5
        assert report.miner_runs == {"upper-counter": 5, "needs-upper": 5}
        entity = store.get("d0")
        assert entity.has_layer("shout")

    def test_process_batch_annotates_in_place(self):
        entities = [Entity(entity_id="x", content="Abc")]
        report = MinerPipeline([UppercaseCounter()]).process_batch(entities)
        assert report.entities_processed == 1
        assert entities[0].layer("upper")[0].label == "1"

    def test_strict_mode_propagates_errors(self):
        store = store_with(1)
        with pytest.raises(RuntimeError, match="bang"):
            MinerPipeline([Crasher()]).run(store)

    def test_lenient_mode_records_errors(self):
        store = store_with(3)
        report = MinerPipeline([Crasher()], strict=False).run(store)
        assert len(report.errors) == 3
        assert report.errors[0][0] == "crasher"

    def test_lenient_mode_skips_missing_layers(self):
        entity = Entity(entity_id="x", content="abc")
        pipeline = MinerPipeline([UppercaseCounter(), NeedsUpper()], strict=False)
        entity2 = Entity(entity_id="y", content="abc")
        entity2.clear_layer("upper")
        report = pipeline.process_batch([entity])
        assert report.entities_processed == 1

    def test_report_merge(self):
        from repro.core.mining import PipelineReport

        a = PipelineReport(entities_processed=2, miner_runs={"m": 2})
        b = PipelineReport(entities_processed=3, miner_runs={"m": 1, "n": 3})
        a.merge(b)
        assert a.entities_processed == 5
        assert a.miner_runs == {"m": 3, "n": 3}


def map_reduce(miner, store):
    """Map each partition, then reduce: the hooks the cluster schedules."""
    partials = [
        miner.map_partition(store.partition(i).scan()) for i in range(store.num_partitions)
    ]
    return miner.reduce(partials)


class TestCorpusMiner:
    def test_map_reduce_over_store(self):
        store = store_with(10)
        total = map_reduce(WordCounter(), store)
        assert total == 30  # "Doc Number i" = 3 words each

    def test_empty_store(self):
        assert map_reduce(WordCounter(), DataStore(num_partitions=2)) == 0
