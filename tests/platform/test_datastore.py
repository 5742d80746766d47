"""Unit and property tests for the partitioned data store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.datastore import DataStore, Partition, default_partitioner
from repro.platform.entity import Entity
from repro.platform.faults import FaultPlan


def doc(entity_id, content="text"):
    return Entity(entity_id=entity_id, content=content)


class TestPartitioner:
    def test_stable(self):
        assert default_partitioner("abc", 8) == default_partitioner("abc", 8)

    def test_in_range(self):
        for i in range(100):
            assert 0 <= default_partitioner(f"id{i}", 7) < 7

    def test_spreads_keys(self):
        hits = {default_partitioner(f"id{i}", 8) for i in range(200)}
        assert len(hits) == 8


class TestPartition:
    def test_put_get(self):
        p = Partition(0)
        p.put(doc("a", "one"))
        assert p.get("a").content == "one"

    def test_overwrite(self):
        p = Partition(0)
        p.put(doc("a", "one"))
        p.put(doc("a", "two"))
        assert p.get("a").content == "two"

    def test_delete(self):
        p = Partition(0)
        p.put(doc("a"))
        p.delete("a")
        p.delete("never-stored")
        assert p.get("a") is None
        assert list(p.scan()) == []
        assert len(p) == 0

    def test_scan_sorted(self):
        p = Partition(0)
        for eid in ["c", "a", "b"]:
            p.put(doc(eid))
        assert [e.entity_id for e in p.scan()] == ["a", "b", "c"]


class TestDataStore:
    def test_store_get_roundtrip(self):
        store = DataStore(num_partitions=4)
        store.store(doc("x", "hello"))
        assert store.get("x").content == "hello"
        assert "x" in store

    def test_missing_returns_none(self):
        assert DataStore().get("nope") is None

    def test_len_counts_live_entities(self):
        store = DataStore(num_partitions=3)
        store.store_all(doc(f"id{i}") for i in range(10))
        assert len(store) == 10
        store.delete("id3")
        assert len(store) == 9

    def test_scan_covers_all_partitions(self):
        store = DataStore(num_partitions=5)
        ids = {f"id{i}" for i in range(30)}
        store.store_all(doc(i) for i in ids)
        assert {e.entity_id for e in store.scan()} == ids

    def test_bad_partition_count(self):
        with pytest.raises(ValueError):
            DataStore(num_partitions=0)

    def test_stats_shape(self):
        stats = DataStore(num_partitions=2).stats()
        assert stats == {"entities": 0, "partitions": 2}


class TestFaultHook:
    """Chaos write faults act through the store's one write path."""

    def test_dropped_write_keeps_previous_version_then_corruption_lands(self):
        store = DataStore(num_partitions=4)
        store.store_all(doc(f"id{i}", f"v1 {i}") for i in range(12))
        target = "id5"
        partition = default_partitioner(target, store.num_partitions)
        plan = FaultPlan().drop_write(partition).corrupt_write(partition)
        store.attach_fault_plan(plan)
        assert len(store) == len(list(store.scan())) == 12

        store.store(doc(target, "v2 dropped"))
        assert store.get(target).content == "v1 5"
        assert "corrupted" not in store.get(target).metadata
        assert len(store) == len(list(store.scan())) == 12

        store.store(doc(target, "v3 garbled"))
        stored = store.get(target)
        assert stored.metadata["corrupted"] is True
        assert stored.content != "v3 garbled"
        assert len(store) == len(list(store.scan())) == 12

        # Both faults are consumed: the next write lands unchanged.
        store.store(doc(target, "v4 clean"))
        assert store.get(target).content == "v4 clean"
        assert len(store) == len(list(store.scan())) == 12

class TestStoreProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete"]),
                st.integers(0, 9),
                st.text(max_size=5),
            ),
            max_size=40,
        )
    )
    def test_store_matches_dict_model(self, operations):
        """The store behaves like a dict under put/delete."""
        store = DataStore(num_partitions=3)
        model: dict[str, str] = {}
        for op, key_num, content in operations:
            key = f"k{key_num}"
            if op == "put":
                store.store(doc(key, content))
                model[key] = content
            else:
                store.delete(key)
                model.pop(key, None)
        assert len(store) == len(model)
        for key, content in model.items():
            assert store.get(key).content == content
        # Partition-major, then id order within each partition.
        expected = sorted(
            model.items(), key=lambda kv: (default_partitioner(kv[0], 3), kv[0])
        )
        assert [(e.entity_id, e.content) for e in store.scan()] == expected
