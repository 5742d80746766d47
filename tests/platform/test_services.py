"""Unit tests for the hosted application services.

Every handler speaks the v1 envelope: success as ``ok_envelope(data)``,
client mistakes as ``error_envelope(code, message)`` flowing back as
data rather than raised faults.
"""

import pytest

from repro.core.model import Polarity, SentimentJudgment, Spot, Subject
from repro.nlp.tokens import Span
from repro.platform.api import API_VERSION, encode_cursor, validate_envelope
from repro.platform.datastore import DataStore
from repro.platform.entity import Entity
from repro.platform.indexer import InvertedIndex, SentimentIndex
from repro.platform.retry import RetryPolicy
from repro.platform.services import register_services
from repro.platform.vinci import VinciBus

CONTENT = "Intro sentence. The NR70 takes excellent pictures. Outro here."


def build_stack(bus):
    store = DataStore(num_partitions=2)
    entity = Entity(entity_id="d1", content=CONTENT)
    store.store(entity)
    index = InvertedIndex()
    index.add_entity(entity)
    sidx = SentimentIndex()
    start = CONTENT.index("NR70")
    sidx.add_judgment(
        SentimentJudgment(
            spot=Spot(Subject("NR70"), "NR70", Span(start, start + 4), 1, "d1"),
            polarity=Polarity.POSITIVE,
        )
    )
    register_services(bus, store, index, sidx)
    return bus


@pytest.fixture()
def stack():
    return build_stack(VinciBus())


def ok_data(envelope):
    """Assert a well-formed v1 success envelope and return its data."""
    assert validate_envelope(envelope) == []
    assert envelope["api_version"] == API_VERSION
    assert envelope["ok"] is True
    assert envelope["error"] is None
    return envelope["data"]


def error_of(envelope):
    """Assert a well-formed v1 error envelope and return its error block."""
    assert validate_envelope(envelope) == []
    assert envelope["ok"] is False
    assert envelope["data"] is None
    return envelope["error"]


class TestSentimentServices:
    def test_counts(self, stack):
        out = stack.request("sentiment.counts", {"subject": "NR70"})
        assert ok_data(out) == {"subject": "NR70", "positive": 1, "negative": 0}

    def test_counts_requires_subject(self, stack):
        out = stack.request("sentiment.counts", {})
        error = error_of(out)
        assert error["code"] == "bad_request"
        assert "subject" in error["message"]

    def test_sentences_listing(self, stack):
        out = stack.request("sentiment.sentences", {"subject": "NR70"})
        (row,) = ok_data(out)["rows"]
        assert row["sentence"] == "The NR70 takes excellent pictures."
        assert row["polarity"] == "+"
        assert row["entity_id"] == "d1"

    def test_sentences_polarity_filter(self, stack):
        out = stack.request("sentiment.sentences", {"subject": "NR70", "polarity": "-"})
        assert ok_data(out)["rows"] == []

    def test_subjects(self, stack):
        out = stack.request("sentiment.subjects", {})
        assert ok_data(out)["subjects"] == ["nr70"]
        assert out["meta"]["cursor"] is None  # single page


class TestSearchService:
    def test_query(self, stack):
        out = stack.request("search.query", {"q": '"excellent pictures"'})
        data = ok_data(out)
        assert data["total"] == 1
        assert data["ids"] == ["d1"]

    def test_bad_query_wrapped(self, stack):
        out = stack.request("search.query", {"q": "(broken"})
        error = error_of(out)
        assert error["code"] == "bad_request"
        assert "bad query" in error["message"]

    def test_missing_q(self, stack):
        out = stack.request("search.query", {})
        assert error_of(out)["code"] == "bad_request"


class TestStoreService:
    def test_get(self, stack):
        out = stack.request("store.get", {"entity_id": "d1"})
        assert ok_data(out)["content"] == CONTENT

    def test_get_missing(self, stack):
        out = stack.request("store.get", {"entity_id": "ghost"})
        error = error_of(out)
        assert error["code"] == "not_found"
        assert "no such entity" in error["message"]

    def test_stats(self, stack):
        out = stack.request("store.stats", {})
        assert ok_data(out)["entities"] == 1


class TestRegistration:
    def test_all_services_registered(self, stack):
        expected = {
            "search.query",
            "sentiment.counts",
            "sentiment.sentences",
            "sentiment.subjects",
            "store.get",
            "store.stats",
        }
        assert expected <= set(stack.services())


class TestPagination:
    """Cursor pagination on subjects and search."""

    @pytest.fixture()
    def wide_stack(self):
        store = DataStore(num_partitions=2)
        index = InvertedIndex()
        sidx = SentimentIndex()
        for i in range(7):
            doc_id = f"d{i}"
            content = f"The camera-{i} takes excellent shared pictures."
            store.store(Entity(entity_id=doc_id, content=content))
            index.add_entity(Entity(entity_id=doc_id, content=content))
            name = f"camera-{i}"
            start = content.index(name)
            sidx.add_judgment(
                SentimentJudgment(
                    spot=Spot(
                        Subject(name), name, Span(start, start + len(name)), 0, doc_id
                    ),
                    polarity=Polarity.POSITIVE,
                )
            )
        bus = VinciBus()
        register_services(bus, store, index, sidx)
        return bus

    def test_subjects_pages_cover_everything_once(self, wide_stack):
        seen = []
        cursor = None
        pages = 0
        while True:
            payload = {"limit": 3}
            if cursor is not None:
                payload["cursor"] = cursor
            out = wide_stack.request("sentiment.subjects", payload)
            seen.extend(ok_data(out)["subjects"])
            cursor = out["meta"]["cursor"]
            pages += 1
            if cursor is None:
                break
        assert pages == 3
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen)) == 7

    def test_search_pages_cover_everything_once(self, wide_stack):
        seen = []
        cursor = None
        while True:
            payload = {"q": "pictures", "limit": 2}
            if cursor is not None:
                payload["cursor"] = cursor
            out = wide_stack.request("search.query", payload)
            data = ok_data(out)
            assert data["total"] == 7  # total is page-independent
            seen.extend(data["ids"])
            cursor = out["meta"]["cursor"]
            if cursor is None:
                break
        assert seen == [f"d{i}" for i in range(7)]

    def test_garbage_cursor_is_a_bad_cursor_error(self, wide_stack):
        out = wide_stack.request(
            "sentiment.subjects", {"cursor": "not-a-cursor"}
        )
        assert error_of(out)["code"] == "bad_cursor"

    def test_cursor_from_other_op_is_rejected(self, wide_stack):
        first = wide_stack.request("sentiment.subjects", {"limit": 2})
        cursor = first["meta"]["cursor"]
        assert cursor is not None
        out = wide_stack.request("search.query", {"q": "pictures", "cursor": cursor})
        assert error_of(out)["code"] == "bad_cursor"


class TestRequestHardening:
    """Malformed payloads get structured error envelopes, not crashes."""

    def test_negative_limit_rejected(self, stack):
        out = stack.request("sentiment.sentences", {"subject": "NR70", "limit": -1})
        error = error_of(out)
        assert error["code"] == "bad_request"
        assert "limit" in error["message"]

    def test_non_integer_limit_rejected(self, stack):
        out = stack.request("sentiment.subjects", {"limit": "ten"})
        assert "limit" in error_of(out)["message"]

    def test_boolean_limit_rejected(self, stack):
        out = stack.request("search.query", {"q": "pictures", "limit": True})
        assert "limit" in error_of(out)["message"]

    def test_non_dict_payload_rejected(self, stack):
        for service in (
            "sentiment.counts",
            "sentiment.sentences",
            "sentiment.subjects",
            "search.query",
        ):
            out = stack.request(service, ["not", "a", "dict"])
            error = error_of(out)
            assert error["code"] == "bad_request", service
            assert "dict" in error["message"]

    @pytest.mark.parametrize("payload", [[], ""])
    def test_falsy_non_dict_payload_rejected_without_retry(self, payload):
        # Only None means "no payload": an empty list or string is a
        # malformed request, not a request for the defaults.
        bus = build_stack(VinciBus(retry_policy=RetryPolicy()))
        for service in (
            "sentiment.counts",
            "sentiment.sentences",
            "sentiment.subjects",
            "search.query",
            "store.get",
        ):
            error = error_of(bus.request(service, payload))
            assert error["code"] == "bad_request", service
            assert "dict" in error["message"], service
        assert bus.retry_stats.retries == 0
        assert bus.retry_stats.exhausted == 0

    def test_valid_limits_still_served(self, stack):
        out = stack.request("sentiment.sentences", {"subject": "NR70", "limit": 0})
        assert ok_data(out)["rows"] == []
        out = stack.request("sentiment.subjects", {"limit": 1})
        assert ok_data(out)["subjects"] == ["nr70"]


class TestClientMistakesAreNotRetried:
    """A client mistake is an error envelope on the first attempt: a
    retrying bus never re-sends it, so no backoff is charged."""

    @pytest.mark.parametrize(
        "service,payload,code",
        [
            ("sentiment.sentences", {"subject": "NR70", "polarity": "x"}, "bad_request"),
            (
                "search.query",
                {"q": "pictures", "cursor": encode_cursor({"o": "search", "k": 5})},
                "bad_cursor",
            ),
            ("store.get", ["not", "a", "dict"], "bad_request"),
        ],
    )
    def test_error_envelope_without_retry(self, service, payload, code):
        bus = build_stack(VinciBus(retry_policy=RetryPolicy()))
        out = bus.request(service, payload)
        assert error_of(out)["code"] == code
        assert bus.retry_stats.retries == 0
        assert bus.retry_stats.exhausted == 0
        assert bus.retry_stats.backoff_cost == 0.0
