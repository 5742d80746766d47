"""Failure semantics of the serving front door.

The contracts under test: deadline-expired requests are never answered
after their deadline, open breakers fast-fail without touching the bus,
a hedged read returns exactly one answer and cancels the loser, and
degraded responses enumerate the shards they are missing.  Every
response — success or failure — is a v1 envelope with the transport
detail (status, code, latency, hedging) in ``meta``.
"""

import pytest

from repro.core.model import Polarity, SentimentJudgment, Spot, Subject
from repro.nlp.tokens import Span
from repro.obs import Obs
from repro.platform.api import encode_cursor, validate_envelope
from repro.platform.datastore import DataStore
from repro.platform.entity import Entity
from repro.platform.faults import FaultPlan
from repro.platform.serving import (
    OPEN,
    ReplicatedIndex,
    ServingRequest,
    ServingRouter,
    node_service,
)
from repro.platform.vinci import VinciBus

pytestmark = pytest.mark.serving

DOCS = {
    "d1": "The NR70 is excellent . I love the pictures .",
    "d2": "The NR70 is great . The G3 is awful .",
}


def judgment(subject, doc, polarity, start=4):
    return SentimentJudgment(
        spot=Spot(Subject(subject), subject, Span(start, start + len(subject)), 0, doc),
        polarity=polarity,
    )


JUDGMENTS = [
    judgment("NR70", "d1", Polarity.POSITIVE),
    judgment("NR70", "d2", Polarity.POSITIVE),
    judgment("NR70", "d2", Polarity.NEGATIVE),
    judgment("G3", "d2", Polarity.NEGATIVE, start=21),
]


class FixedLatency:
    """A latency model with one constant draw per node."""

    def __init__(self, by_node, default=0.1):
        self._by_node = dict(by_node)
        self._default = default

    def draw(self, node_id):
        return self._by_node.get(node_id, self._default)


def build_stack(
    *,
    num_shards=2,
    num_nodes=3,
    replication=2,
    fault_plan=None,
    **router_kwargs,
):
    obs = Obs.default()
    store = DataStore()
    for doc_id, content in DOCS.items():
        store.store(Entity(entity_id=doc_id, content=content))
    index = ReplicatedIndex(num_shards, num_nodes, replication)
    index.add_judgments(JUDGMENTS)
    index.add_entities(
        Entity(entity_id=doc_id, content=content) for doc_id, content in DOCS.items()
    )
    bus = VinciBus(fault_plan=fault_plan, obs=obs)
    router = ServingRouter(
        index, store, bus, obs=obs, fault_plan=fault_plan, **router_kwargs
    )
    return obs, index, bus, router


def bus_requests(obs, num_nodes=3):
    """Total Vinci requests sent to any serving node endpoint."""
    return sum(
        obs.metrics.counter("vinci.requests", service=node_service(n)).value
        for n in range(num_nodes)
    )


def meta_of(envelope):
    """Assert envelope well-formedness and return its meta block."""
    assert validate_envelope(envelope) == []
    return envelope["meta"]


class TestHappyPath:
    def test_counts_are_not_double_counted_by_replication(self):
        _, _, _, router = build_stack()
        envelope = router.serve("counts", {"subject": "NR70"})
        meta = meta_of(envelope)
        assert meta["status"] == "ok"
        assert meta["code"] == 200
        assert not meta["degraded"]
        assert meta["missing_shards"] == []
        assert envelope["ok"] is True
        assert envelope["data"] == {"subject": "NR70", "positive": 2, "negative": 1}

    def test_subjects_merge_across_shards_deterministically(self):
        _, _, _, router = build_stack()
        envelope = router.serve("subjects")
        assert meta_of(envelope)["status"] == "ok"
        assert envelope["data"]["subjects"] == ["nr70", "g3"]

    def test_search_unions_shard_postings(self):
        _, _, _, router = build_stack()
        envelope = router.serve("search", {"q": "nr70"})
        assert meta_of(envelope)["status"] == "ok"
        assert envelope["data"]["ids"] == ["d1", "d2"]
        assert envelope["data"]["total"] == 2

    def test_sentences_return_snippets(self):
        _, _, _, router = build_stack()
        envelope = router.serve("sentences", {"subject": "NR70", "polarity": "-"})
        rows = envelope["data"]["rows"]
        assert len(rows) == 1
        assert rows[0]["entity_id"] == "d2"
        assert "NR70" in rows[0]["sentence"] or rows[0]["sentence"] == ""


class TestDeadlines:
    def test_expired_in_queue_is_never_answered(self):
        obs, _, _, router = build_stack(request_overhead=0.05)
        envelope = router.serve("counts", {"subject": "NR70"}, budget=0.01)
        meta = meta_of(envelope)
        assert meta["status"] == "expired"
        assert meta["code"] == 504
        assert envelope["ok"] is False
        assert envelope["data"] is None
        assert envelope["error"]["code"] == "deadline_expired"
        # The work was cancelled outright: the bus never saw a read.
        assert bus_requests(obs) == 0

    def test_reads_that_cannot_finish_are_cancelled_not_late(self):
        # Every replica read costs 1.0 but the budget is 0.5: all reads
        # must be cancelled before starting, the request degrades, and
        # the response still lands inside its deadline.
        obs, _, _, router = build_stack(
            latency_model=FixedLatency({}, default=1.0), request_overhead=0.01
        )
        envelope = router.serve("counts", {"subject": "NR70"}, budget=0.5)
        meta = meta_of(envelope)
        assert meta["status"] == "degraded"
        assert meta["latency"] <= 0.5
        assert obs.metrics.counter("serving.cancelled_reads").value > 0
        assert bus_requests(obs) == 0

    def test_downstream_gets_the_remaining_budget(self):
        seen = {}
        _, index, bus, router = build_stack(
            latency_model=FixedLatency({}, default=0.25), request_overhead=0.05
        )
        shard = index.subject_shard("nr70")
        primary = node_service(index.nodes_for(shard)[0])
        inner = bus._services[primary].handler

        def spy(payload):
            seen["budget"] = payload["budget"]
            return inner(payload)

        bus.register(primary, spy)
        router.serve("counts", {"subject": "NR70"}, budget=2.0)
        # Budget seen downstream = 2.0 - overhead - read latency.
        assert seen["budget"] == pytest.approx(2.0 - 0.05 - 0.25)


class TestBreakers:
    def test_open_breaker_fast_fails_without_touching_the_bus(self):
        obs, index, _, router = build_stack(
            breaker_threshold=1, breaker_cooldown=100.0
        )
        shard = index.subject_shard("nr70")
        services = [node_service(n) for n in index.nodes_for(shard)]
        for service in services:
            breaker = router.breaker(service)
            breaker.record_failure()
            assert breaker.state == OPEN
        before = bus_requests(obs)
        envelope = router.serve("counts", {"subject": "NR70"}, budget=1.0)
        meta = meta_of(envelope)
        assert meta["status"] == "degraded"
        assert meta["missing_shards"] == [shard]
        # Fast-fail means zero bus traffic and zero retry consumption.
        assert bus_requests(obs) == before
        assert sum(
            router.breaker(s).snapshot()["fastfails"] for s in services
        ) > 0

    def test_breaker_recovers_through_half_open(self):
        obs, index, _, router = build_stack(
            breaker_threshold=1, breaker_cooldown=0.5, request_overhead=0.01
        )
        shard = index.subject_shard("nr70")
        primary = node_service(index.nodes_for(shard)[0])
        router.breaker(primary).record_failure()
        assert router.breaker(primary).state == OPEN
        obs.clock.advance(1.0)  # cooldown elapses
        envelope = router.serve("counts", {"subject": "NR70"})
        assert meta_of(envelope)["status"] == "ok"
        assert router.breaker(primary).state != OPEN


class TestHedgedReads:
    def test_hedge_returns_exactly_one_answer_and_cancels_the_loser(self):
        probe_index = ReplicatedIndex(2, 3, 2)
        shard = probe_index.subject_shard("nr70")
        primary_node, alt_node = probe_index.nodes_for(shard)
        obs, _, _, router = build_stack(
            hedge_threshold=0.0,  # hedge every read
            latency_model=FixedLatency({primary_node: 0.5, alt_node: 0.1}),
            request_overhead=0.0,
        )
        start = obs.clock.now
        envelope = router.serve("counts", {"subject": "NR70"}, budget=4.0)
        meta = meta_of(envelope)
        assert meta["status"] == "ok"
        assert meta["hedged"] == 1
        # Exactly one answer: one bus request total, sent to the winner.
        assert bus_requests(obs) == 1
        assert (
            obs.metrics.counter(
                "vinci.requests", service=node_service(alt_node)
            ).value
            == 1
        )
        # The loser was cancelled: only the winner's latency was charged.
        assert obs.clock.now - start == pytest.approx(0.1)
        assert obs.metrics.counter("serving.hedge_wins").value == 1

    def test_slower_alternate_does_not_steal_the_read(self):
        probe_index = ReplicatedIndex(2, 3, 2)
        shard = probe_index.subject_shard("nr70")
        primary_node, alt_node = probe_index.nodes_for(shard)
        obs, _, _, router = build_stack(
            hedge_threshold=0.0,
            latency_model=FixedLatency({primary_node: 0.2, alt_node: 0.9}),
            request_overhead=0.0,
        )
        envelope = router.serve("counts", {"subject": "NR70"}, budget=4.0)
        meta = meta_of(envelope)
        assert meta["status"] == "ok"
        assert meta["hedged"] == 1
        assert (
            obs.metrics.counter(
                "vinci.requests", service=node_service(primary_node)
            ).value
            == 1
        )
        assert obs.metrics.counter("serving.hedge_wins").value == 0


class TestDegradation:
    def test_degraded_enumerates_missing_shards(self):
        probe_index = ReplicatedIndex(2, 3, 2)
        shard = probe_index.subject_shard("nr70")
        plan = FaultPlan(seed=1)
        for node in probe_index.nodes_for(shard):
            plan.kill_node(node)
        _, index, _, router = build_stack(fault_plan=plan)
        envelope = router.serve("counts", {"subject": "NR70"})
        meta = meta_of(envelope)
        assert meta["status"] == "degraded"
        assert meta["code"] == 206
        assert meta["degraded"]
        assert meta["missing_shards"] == [shard]
        # Degraded responses are still ok-envelopes with partial data.
        assert envelope["ok"] is True
        assert envelope["data"] == {"subject": "NR70", "positive": 0, "negative": 0}

    def test_partial_subjects_with_one_dead_shard(self):
        # With 2 shards on a 4-node ring at R=2, killing both of g3's
        # replica nodes still leaves nr70's shard one live replica.
        probe = ReplicatedIndex(2, 4, 2)
        g3_shard = probe.subject_shard("g3")
        nr70_shard = probe.subject_shard("nr70")
        assert g3_shard != nr70_shard
        plan = FaultPlan(seed=1)
        for node in probe.nodes_for(g3_shard):
            plan.kill_node(node)
        _, _, _, router = build_stack(num_nodes=4, fault_plan=plan)
        envelope = router.serve("subjects")
        meta = meta_of(envelope)
        assert meta["status"] == "degraded"
        assert meta["missing_shards"] == [g3_shard]
        assert envelope["data"]["subjects"] == ["nr70"]


class TestAdmissionControl:
    def test_full_queue_sheds_the_incoming_request_at_equal_priority(self):
        _, _, _, router = build_stack(queue_limit=2)
        assert router.submit(router.make_request("counts", {"subject": "NR70"})) is None
        assert router.submit(router.make_request("counts", {"subject": "NR70"})) is None
        envelope = router.submit(router.make_request("counts", {"subject": "NR70"}))
        assert envelope is not None
        meta = meta_of(envelope)
        assert meta["status"] == "shed"
        assert meta["code"] == 503
        assert meta["shed"] is True
        assert envelope["error"]["code"] == "shed"

    def test_higher_priority_arrival_evicts_the_lowest_priority_victim(self):
        _, _, _, router = build_stack(queue_limit=2)
        low = router.make_request("counts", {"subject": "NR70"}, priority=0)
        assert router.submit(low) is None
        assert (
            router.submit(router.make_request("counts", {"subject": "NR70"})) is None
        )
        vip = router.make_request("counts", {"subject": "NR70"}, priority=2)
        assert router.submit(vip) is None  # admitted: victim shed instead
        outcomes = {req.request_id: env for req, env in router.drain()}
        assert outcomes[low.request_id]["meta"]["status"] == "shed"
        assert outcomes[vip.request_id]["meta"]["status"] == "ok"

    def test_queue_depth_gauge_tracks_admissions(self):
        obs, _, _, router = build_stack(queue_limit=4)
        router.submit(router.make_request("counts", {"subject": "NR70"}))
        assert obs.metrics.gauge("serving.queue_depth").value == 1
        router.drain()
        assert obs.metrics.gauge("serving.queue_depth").value == 0


class TestValidation:
    def envelope_for(self, router, request):
        envelope = router.submit(request)
        assert envelope is not None
        meta = meta_of(envelope)
        assert meta["status"] == "error"
        assert meta["code"] == 400
        assert envelope["ok"] is False and envelope["data"] is None
        return envelope["error"]["message"]

    def test_unknown_op(self):
        _, _, _, router = build_stack()
        message = self.envelope_for(router, router.make_request("explode"))
        assert "unknown op" in message

    def test_non_dict_payload(self):
        _, _, _, router = build_stack()
        request = ServingRequest(request_id=99, op="counts", payload="nope")
        assert "dict envelope" in self.envelope_for(router, request)

    def test_negative_limit(self):
        _, _, _, router = build_stack()
        request = router.make_request("sentences", {"subject": "NR70", "limit": -3})
        assert "non-negative integer" in self.envelope_for(router, request)

    def test_boolean_limit_rejected(self):
        _, _, _, router = build_stack()
        request = router.make_request("subjects", {"limit": True})
        assert "non-negative integer" in self.envelope_for(router, request)

    def test_non_positive_budget(self):
        _, _, _, router = build_stack()
        request = router.make_request("counts", {"subject": "NR70"}, budget=0.0)
        assert "budget" in self.envelope_for(router, request)

    def test_missing_subject(self):
        _, _, _, router = build_stack()
        assert "subject" in self.envelope_for(router, router.make_request("counts"))

    def test_bad_polarity(self):
        _, _, _, router = build_stack()
        request = router.make_request("counts", {"subject": "NR70", "polarity": "!"})
        assert "polarity" in self.envelope_for(router, request)

    def test_unparseable_query(self):
        _, _, _, router = build_stack()
        request = router.make_request("search", {"q": '"unclosed phrase'})
        assert "bad query" in self.envelope_for(router, request)

    def test_cursor_on_unpaginated_op_rejected(self):
        _, _, _, router = build_stack()
        request = router.make_request("counts", {"subject": "NR70", "cursor": "abc"})
        assert "does not support cursors" in self.envelope_for(router, request)

    def test_garbage_cursor_rejected_as_bad_cursor(self):
        _, _, _, router = build_stack()
        request = router.make_request("subjects", {"cursor": "!!not-base64!!"})
        envelope = router.submit(request)
        assert envelope["error"]["code"] == "bad_cursor"

    def test_error_envelopes_skip_the_queue(self):
        _, _, _, router = build_stack(queue_limit=1)
        router.submit(router.make_request("counts", {"subject": "NR70"}))
        # A malformed request must not count against admission.
        envelope = router.submit(router.make_request("explode"))
        assert envelope["meta"]["status"] == "error"
        assert router.queue_depth == 1


class TestRouterPagination:
    def test_subjects_cursor_walks_all_pages(self):
        _, _, _, router = build_stack()
        seen = []
        cursor = None
        while True:
            payload = {"limit": 1}
            if cursor is not None:
                payload["cursor"] = cursor
            envelope = router.serve("subjects", payload)
            assert meta_of(envelope)["status"] == "ok"
            seen.extend(envelope["data"]["subjects"])
            cursor = envelope["meta"]["cursor"]
            if cursor is None:
                break
        assert seen == ["nr70", "g3"]

    def test_search_cursor_walks_all_pages(self):
        _, _, _, router = build_stack()
        seen = []
        cursor = None
        while True:
            payload = {"q": "nr70", "limit": 1}
            if cursor is not None:
                payload["cursor"] = cursor
            envelope = router.serve("search", payload)
            data = envelope["data"]
            assert data["total"] == 2
            seen.extend(data["ids"])
            cursor = envelope["meta"]["cursor"]
            if cursor is None:
                break
        assert seen == ["d1", "d2"]


#: Cursors that decode but name no usable position (op, payload).
MALFORMED_CURSORS = [
    pytest.param("subjects", {"cursor": encode_cursor({"o": "subjects"})}, id="no-key"),
    pytest.param(
        "search",
        {"q": "nr70", "cursor": encode_cursor({"o": "search", "k": 5})},
        id="int-key-on-search",
    ),
    pytest.param(
        "subjects",
        {"cursor": encode_cursor({"o": "subjects", "k": {"x": 1}})},
        id="dict-key-on-subjects",
    ),
]


class TestMalformedCursors:
    """A cursor without a well-typed position key is a ``bad_cursor``
    envelope, and it never takes a queued request down with it."""

    @pytest.mark.parametrize("op,payload", MALFORMED_CURSORS)
    def test_serve_returns_bad_cursor(self, op, payload):
        _, _, _, router = build_stack()
        envelope = router.serve(op, payload)
        assert meta_of(envelope)["status"] == "error"
        assert envelope["error"]["code"] == "bad_cursor"

    @pytest.mark.parametrize("op,payload", MALFORMED_CURSORS)
    def test_requests_queued_around_it_are_served(self, op, payload):
        _, _, _, router = build_stack()
        before = router.make_request("counts", {"subject": "NR70"})
        assert router.submit(before) is None
        rejected = router.submit(router.make_request(op, payload))
        assert rejected["error"]["code"] == "bad_cursor"
        after = router.make_request("subjects")
        assert router.submit(after) is None
        outcomes = {req.request_id: env for req, env in router.drain()}
        assert set(outcomes) == {before.request_id, after.request_id}
        assert outcomes[before.request_id]["data"]["positive"] == 2
        assert outcomes[after.request_id]["data"]["subjects"] == ["nr70", "g3"]
