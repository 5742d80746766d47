"""Acceptance: a traced chaos run explains every retry and failover.

The issue's contract: running the simulated cluster under a seeded fault
plan with tracing enabled must produce a span tree in which every retry
and failover counted by :class:`ClusterRunReport` is matched by a span
carrying node / partition / service / attempt / fault-kind attributes,
and the JSONL dump renders back to a readable tree.

The serving-path gate extends this to the front door: under chaos
seeds, every router response and every bus attempt — retry, hedge,
failover, breaker fast-fail — appears as exactly one attributed span in
a single connected trace per request, and the JSONL export round-trips
the whole forest.
"""

import pytest

from repro.corpora import DIGITAL_CAMERA, ReviewGenerator
from repro.core import SentimentMiner, Subject
from repro.miners import SentimentEntityMiner
from repro.obs import Obs, SLOMonitor, default_serving_slos, read_trace, render_span_tree
from repro.platform import DataStore, Entity, MinerPipeline

from tests.support import chaos

pytestmark = pytest.mark.chaos

NODES = 4
PARTITIONS = 8
DOCS = 24
REPLICATION = 2

#: Seeds chosen because their fault schedules produce both retries and
#: failovers at the test topology (scanned once; deterministic forever).
SEEDS = (4, 8, 18)


def make_store() -> DataStore:
    docs = ReviewGenerator(DIGITAL_CAMERA, seed=2005).generate_dplus(DOCS)
    store = DataStore(num_partitions=PARTITIONS)
    store.store_all(Entity(entity_id=d.doc_id, content=d.text) for d in docs)
    return store


def make_pipeline(obs: Obs) -> MinerPipeline:
    subjects = [Subject(p) for p in DIGITAL_CAMERA.products] + [
        Subject(f) for f in DIGITAL_CAMERA.features
    ]
    return MinerPipeline([SentimentEntityMiner(SentimentMiner(subjects, obs=obs))])


def run_traced(seed: int) -> tuple:
    obs = Obs.enabled()
    outcome = chaos.run_pipeline_chaos(
        make_store,
        lambda: make_pipeline(obs),
        seed=seed,
        num_nodes=NODES,
        replication=REPLICATION,
        obs=obs,
    )
    return outcome, obs


class TestChaosTraceAcceptance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_retry_has_a_matching_attempt_span(self, seed):
        outcome, obs = run_traced(seed)
        assert outcome.ok, outcome.violations
        retry_spans = [
            s
            for s in obs.tracer.find("vinci.attempt")
            if s.attributes["attempt"] > 1
        ]
        # One attempt span per retry, each naming service + attempt, and
        # each retried attempt follows a failed one with a fault kind.
        assert len(retry_spans) == outcome.report.retries
        first_tries_failed = [
            s
            for s in obs.tracer.find("vinci.attempt")
            if s.status == "error"
        ]
        assert len(first_tries_failed) >= min(1, outcome.report.retries)
        for span in first_tries_failed:
            assert span.attributes["service"]
            assert span.attributes["fault"] in ("error", "timeout")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_failover_has_a_matching_partition_span(self, seed):
        outcome, obs = run_traced(seed)
        failover_spans = [
            s
            for s in obs.tracer.find("cluster.partition")
            if s.attributes["failover"]
        ]
        assert len(failover_spans) == outcome.report.failovers
        for span in failover_spans:
            assert span.attributes["node"] not in outcome.report.dead_nodes
            assert 0 <= span.attributes["partition"] < PARTITIONS

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeds_actually_exercise_retries_and_failovers(self, seed):
        outcome, _ = run_traced(seed)
        assert outcome.report.retries > 0
        assert outcome.report.failovers > 0

    def test_run_span_carries_report_summary(self):
        outcome, obs = run_traced(SEEDS[0])
        (run_span,) = obs.tracer.find("cluster.run")
        assert run_span.attributes["retries"] == outcome.report.retries
        assert run_span.attributes["failovers"] == outcome.report.failovers
        assert run_span.attributes["coverage"] == outcome.report.coverage
        assert run_span.parent_id is None

    def test_dump_roundtrips_and_renders(self, tmp_path):
        outcome, obs = run_traced(SEEDS[1])
        path = str(tmp_path / "chaos.jsonl")
        obs.write(path)
        dump = read_trace(path)
        assert len(dump.spans) == len(obs.tracer.spans())
        text = render_span_tree(dump.spans)
        assert "cluster.run" in text
        assert "failover=True" in text
        assert "attempt=2" in text
        # Registry mirrors agree with the report.
        assert obs.metrics.value("cluster.retries") == outcome.report.retries
        assert obs.metrics.value("cluster.failovers") == outcome.report.failovers


# -- serving-path completeness gate -----------------------------------------

#: Chaos seeds for the front door, chosen (by a one-off scan) so the
#: fault schedules exercise failovers AND breaker fast-fails AND hedges.
SERVING_SEEDS = (7, 23)
BATCHES = 3

_serving_cache: dict[int, tuple] = {}


def run_serving_traced(chaos_seed: int) -> tuple:
    """Build, run, and memoise one traced serving scenario per seed."""
    if chaos_seed not in _serving_cache:
        from repro.platform.serving import LoadProfile, build_scenario

        obs = Obs.enabled()
        slo = SLOMonitor(obs, default_serving_slos())
        scenario = build_scenario(
            obs=obs,
            docs=12,
            batches=BATCHES,
            chaos_seed=chaos_seed,
            profile=LoadProfile(requests=120),
            slo=slo,
        )
        report = scenario.run()
        _serving_cache[chaos_seed] = (scenario, report, obs)
    return _serving_cache[chaos_seed]


def spans_by_trace(obs: Obs) -> dict[int, list]:
    grouped: dict[int, list] = {}
    for span in obs.tracer.spans():
        grouped.setdefault(span.trace_id, []).append(span)
    return grouped


class TestServingTraceAcceptance:
    """Every router response is one complete, connected trace."""

    @pytest.mark.parametrize("seed", SERVING_SEEDS)
    def test_every_response_names_its_own_trace(self, seed):
        scenario, _, obs = run_serving_traced(seed)
        outcomes = scenario.generator.last_outcomes
        assert len(outcomes) == 120
        envelope_traces = [env["meta"]["trace_id"] for _, env in outcomes]
        # Every response — ok, degraded, shed, expired, error — carries a
        # real trace id, and no two requests share one.
        assert all(tid > 0 for tid in envelope_traces)
        assert len(set(envelope_traces)) == len(envelope_traces)
        roots = obs.tracer.find("serving.request")
        assert all(s.parent_id is None for s in roots)
        assert sorted(s.trace_id for s in roots) == sorted(envelope_traces)

    @pytest.mark.parametrize("seed", SERVING_SEEDS)
    def test_every_trace_is_connected(self, seed):
        scenario, _, obs = run_serving_traced(seed)
        grouped = spans_by_trace(obs)
        for _, envelope in scenario.generator.last_outcomes:
            spans = grouped[envelope["meta"]["trace_id"]]
            ids = {s.span_id for s in spans}
            roots = [s for s in spans if s.parent_id is None]
            assert len(roots) == 1 and roots[0].name == "serving.request"
            for span in spans:
                if span.parent_id is not None:
                    assert span.parent_id in ids, span.name

    @pytest.mark.parametrize("seed", SERVING_SEEDS)
    def test_every_bus_attempt_is_exactly_one_span(self, seed):
        scenario, _, obs = run_serving_traced(seed)
        attempts = obs.tracer.find("vinci.attempt")
        # bus.trace() records one envelope per attempt (success or
        # fault); the span forest must match it one for one.
        assert len(attempts) == len(scenario.router.bus.trace())
        for span in attempts:
            assert span.attributes["service"].startswith("serving.node")
            assert span.attributes["attempt"] == 1  # no bus-level retries

    @pytest.mark.parametrize("seed", SERVING_SEEDS)
    def test_hedges_failovers_fastfails_each_one_span(self, seed):
        _, report, obs = run_serving_traced(seed)
        assert len(obs.tracer.find("serving.hedge")) == report["hedges"]
        fastfails = sum(b["fastfails"] for b in report["breakers"])
        assert len(obs.tracer.find("serving.fastfail")) == fastfails
        errored = [
            s for s in obs.tracer.find("vinci.request") if s.status == "error"
        ]
        assert len(errored) == report["failovers"]

    @pytest.mark.parametrize("seed", SERVING_SEEDS)
    def test_seeds_actually_exercise_the_failure_paths(self, seed):
        _, report, _ = run_serving_traced(seed)
        assert report["failovers"] > 0
        assert report["hedges"] > 0
        assert sum(b["fastfails"] for b in report["breakers"]) > 0

    @pytest.mark.parametrize("seed", SERVING_SEEDS)
    def test_background_batches_are_separate_roots(self, seed):
        scenario, _, obs = run_serving_traced(seed)
        batches = obs.tracer.find("ingest.batch")
        assert len(batches) == BATCHES
        assert all(s.parent_id is None for s in batches)
        serving_traces = {
            env["meta"]["trace_id"]
            for _, env in scenario.generator.last_outcomes
        }
        # Background index maintenance never rides a request trace.
        assert {s.trace_id for s in batches}.isdisjoint(serving_traces)

    def test_serving_dump_roundtrips(self, tmp_path):
        _, _, obs = run_serving_traced(SERVING_SEEDS[0])
        path = str(tmp_path / "serving.jsonl")
        obs.write(path)
        dump = read_trace(path)

        def identity(spans):
            return sorted(
                (s.trace_id, s.span_id, s.parent_id, s.name) for s in spans
            )

        assert identity(dump.spans) == identity(obs.tracer.spans())
