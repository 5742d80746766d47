"""The ops health surface: snapshot assembly and text rendering."""

import json

import pytest

from repro.obs import (
    Obs,
    SLOMonitor,
    default_serving_slos,
    health_snapshot,
    render_health,
)


@pytest.fixture(scope="module")
def scenario():
    from repro.platform.serving import LoadProfile, build_scenario

    obs = Obs.enabled()
    slo = SLOMonitor(obs, default_serving_slos())
    built = build_scenario(
        obs=obs,
        docs=12,
        batches=3,
        chaos_seed=7,
        profile=LoadProfile(requests=60),
        slo=slo,
    )
    built.run()
    return built, obs, slo


@pytest.fixture(scope="module")
def snapshot(scenario):
    built, obs, slo = scenario
    return health_snapshot(
        obs, router=built.router, live_indexer=built.live_indexer, slo=slo
    )


class TestSnapshot:
    def test_minimal_snapshot_needs_only_obs(self):
        snap = health_snapshot(Obs.enabled())
        assert set(snap) == {"sim_time", "memos", "stage_latency"}
        assert set(snap["memos"]) == {"split", "tag", "parse"}

    def test_serving_section(self, snapshot):
        serving = snapshot["serving"]
        assert serving["queue_depth"] == 0
        assert sum(serving["responses"].values()) == 60
        assert len(serving["breakers"]) == 4
        for breaker in serving["breakers"]:
            assert breaker["state"] in ("closed", "open", "half-open")

    def test_index_section_lists_every_replica(self, snapshot):
        index = snapshot["index"]
        assert len(index["replicas"]) == 16  # 8 shards x replication 2
        assert index["current_version"] >= 1
        assert index["compaction_backlog"] >= 0
        assert index["max_segment_count"] >= 1

    def test_ingest_section_mirrors_live_indexer(self, scenario, snapshot):
        built, _, _ = scenario
        ingest = snapshot["ingest"]
        assert ingest["batches_applied"] == built.live_indexer.batches_applied == 3
        assert (
            ingest["documents_indexed"] == built.live_indexer.documents_indexed
        )

    def test_memo_rates_populated_by_mining(self, snapshot):
        memos = snapshot["memos"]
        assert memos["tag"]["misses"] > 0
        assert memos["parse"]["misses"] > 0
        for stats in memos.values():
            lookups = stats["hits"] + stats["misses"]
            if lookups:
                assert stats["hit_rate"] == pytest.approx(
                    stats["hits"] / lookups, abs=1e-4
                )

    def test_stage_latency_carries_exemplar_traces(self, snapshot):
        stages = snapshot["stage_latency"]
        assert {"queue_wait", "read", "total", "ingest_lag"} <= set(stages)
        for summary in stages.values():
            assert summary["count"] > 0
            assert summary["p95_le"] >= summary["p50_le"] >= 0
        # With tracing on, the request-latency histogram's p95 bucket
        # names a real trace an operator can pull from the dump.
        assert stages["total"]["p95_exemplar_trace"] > 0

    def test_slo_section_present(self, snapshot):
        slos = {s["slo"] for s in snapshot["slo"]["slos"]}
        assert slos == {"availability", "latency_p95", "freshness_p95"}

    def test_snapshot_is_json_safe(self, snapshot):
        parsed = json.loads(json.dumps(snapshot))
        assert parsed["serving"]["queue_depth"] == 0


class TestRender:
    def test_render_names_every_section(self, snapshot):
        text = render_health(snapshot)
        for heading in ("serving", "index", "ingest", "memos",
                        "stage latency", "slo"):
            assert heading in text
        assert "breaker serving.node0" in text
        assert "hit_rate=" in text

    def test_render_minimal_snapshot(self):
        text = render_health(health_snapshot(Obs.enabled()))
        assert text.startswith("health @ sim_time=")
        assert "memos" in text
        assert "serving" not in text
