"""Property-based tests for DataStore partition invariants.

Requires ``hypothesis`` (an optional test dependency); the module skips
cleanly when it is missing.  The invariants chaos recovery leans on:

* every stored entity lives in exactly one partition;
* ``scan()`` over all partitions yields exactly ``len(store)`` entities;
* hash partition assignment is stable across save/load round-trips.
"""

import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.platform.datastore import DataStore, default_partitioner
from repro.platform.entity import Entity

_ids = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=12
)
_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def build_store(entity_ids, num_partitions=8):
    store = DataStore(num_partitions=num_partitions)
    for entity_id in entity_ids:
        store.store(Entity(entity_id=entity_id, content=f"doc {entity_id}"))
    return store


class TestPartitionInvariants:
    @_settings
    @given(st.lists(_ids, min_size=1, max_size=40))
    def test_each_entity_in_exactly_one_partition(self, entity_ids):
        store = build_store(entity_ids)
        for entity_id in set(entity_ids):
            holders = [
                p
                for p in range(store.num_partitions)
                if store.partition(p).get(entity_id) is not None
            ]
            assert len(holders) == 1
            assert holders[0] == default_partitioner(entity_id, store.num_partitions)

    @_settings
    @given(st.lists(_ids, min_size=0, max_size=40), st.integers(min_value=1, max_value=12))
    def test_scan_over_partitions_equals_len(self, entity_ids, num_partitions):
        store = build_store(entity_ids, num_partitions=num_partitions)
        scanned = list(store.scan())
        assert len(scanned) == len(store) == len(set(entity_ids))
        assert {e.entity_id for e in scanned} == set(entity_ids)

    @_settings
    @given(
        st.lists(_ids, min_size=1, max_size=30),
        st.lists(_ids, min_size=0, max_size=10),
    )
    def test_deletes_preserve_partition_accounting(self, stored, deleted):
        store = build_store(stored)
        for entity_id in deleted:
            store.delete(entity_id)
        live = set(stored) - set(deleted)
        assert len(store) == len(live)
        assert sum(len(store.partition(p)) for p in range(store.num_partitions)) == len(live)

    @_settings
    @given(st.lists(_ids, min_size=1, max_size=25))
    def test_assignment_stable_under_reopen(self, entity_ids):
        store = build_store(entity_ids)
        placement = {
            e.entity_id: p
            for p in range(store.num_partitions)
            for e in store.partition(p).scan()
        }
        with tempfile.TemporaryDirectory() as directory:
            store.save(directory)
            reopened = DataStore.load(directory)
        reopened_placement = {
            e.entity_id: p
            for p in range(reopened.num_partitions)
            for e in reopened.partition(p).scan()
        }
        assert reopened_placement == placement
