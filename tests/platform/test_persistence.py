"""Tests for data store save/load persistence."""

import json

import pytest

from repro.platform.datastore import DataStore
from repro.platform.entity import Annotation, Entity


def populated_store():
    store = DataStore(num_partitions=4)
    for i in range(20):
        entity = Entity(
            entity_id=f"d{i}", content=f"Document number {i}.", metadata={"n": i}
        )
        entity.annotate(Annotation.make("token", 0, 8, label=""))
        store.store(entity)
    store.delete("d3")
    store.store(Entity(entity_id="d5", content="updated content"))
    return store


class TestSaveLoad:
    def test_roundtrip_preserves_live_entities(self, tmp_path):
        store = populated_store()
        written = store.save(tmp_path / "db")
        assert written == 19  # 20 - 1 deleted
        loaded = DataStore.load(tmp_path / "db")
        assert len(loaded) == 19
        assert loaded.get("d3") is None
        assert loaded.get("d5").content == "updated content"
        assert loaded.get("d7").metadata == {"n": 7}

    def test_roundtrip_preserves_annotations(self, tmp_path):
        store = populated_store()
        store.save(tmp_path / "db")
        loaded = DataStore.load(tmp_path / "db")
        assert loaded.get("d0").has_layer("token")

    def test_partition_count_restored(self, tmp_path):
        store = populated_store()
        store.save(tmp_path / "db")
        loaded = DataStore.load(tmp_path / "db")
        assert loaded.num_partitions == 4

    def test_manifest_written(self, tmp_path):
        populated_store().save(tmp_path / "db")
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        assert manifest["format"] == "repro-datastore-v1"
        assert manifest["num_partitions"] == 4

    def test_save_is_compacted_view(self, tmp_path):
        store = populated_store()
        store.save(tmp_path / "db")
        # 4 partition files, one line per live entity overall.
        lines = 0
        for path in (tmp_path / "db").glob("partition-*.jsonl"):
            lines += sum(1 for l in path.read_text().splitlines() if l.strip())
        assert lines == 19

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DataStore.load(tmp_path / "nothing")

    def test_load_bad_format(self, tmp_path):
        (tmp_path / "db").mkdir()
        (tmp_path / "db" / "manifest.json").write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            DataStore.load(tmp_path / "db")

    def test_double_save_overwrites(self, tmp_path):
        store = populated_store()
        store.save(tmp_path / "db")
        store.delete("d0")
        store.save(tmp_path / "db")
        loaded = DataStore.load(tmp_path / "db")
        assert loaded.get("d0") is None
        assert len(loaded) == 18

    def test_load_ignores_partitions_of_an_earlier_larger_save(self, tmp_path):
        wide = DataStore(num_partitions=8)
        wide.store_all(Entity(entity_id=f"w{i}", content="old") for i in range(40))
        wide.save(tmp_path / "db")
        narrow = DataStore(num_partitions=2)
        narrow.store_all(Entity(entity_id=f"n{i}", content="new") for i in range(3))
        narrow.save(tmp_path / "db")
        loaded = DataStore.load(tmp_path / "db")
        assert loaded.num_partitions == 2
        assert sorted(e.entity_id for e in loaded.scan()) == ["n0", "n1", "n2"]
        # The narrow save removed the wide save's surplus partition files.
        assert sorted(p.name for p in (tmp_path / "db").iterdir()) == [
            "manifest.json",
            "partition-0000.jsonl",
            "partition-0001.jsonl",
        ]
