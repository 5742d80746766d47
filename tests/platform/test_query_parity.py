"""The two front ends answer every read request alike.

One corpus is indexed twice: as an unsharded index pair behind the
hosted services (``register_services``), and as a three-shard
:class:`ReplicatedIndex` behind the :class:`ServingRouter` with no
faults and a generous budget.  Every request — valid, paginated to its
last page, or malformed — must give the same ``data``, ``meta.cursor``
and ``error.code`` through both.
"""

import pytest

from repro.core.entity import Entity
from repro.core.model import Polarity, SentimentJudgment, Spot, Subject
from repro.nlp.tokens import Span
from repro.obs import Obs
from repro.platform.api import encode_cursor, validate_envelope
from repro.platform.datastore import DataStore
from repro.platform.indexer import InvertedIndex, SentimentIndex
from repro.platform.serving import ReplicatedIndex, ServingRouter
from repro.platform.services import register_services
from repro.platform.vinci import VinciBus

pytestmark = pytest.mark.serving

#: Hosted service name of each read op.
SERVICES = {
    "counts": "sentiment.counts",
    "sentences": "sentiment.sentences",
    "subjects": "sentiment.subjects",
    "search": "search.query",
}

BUDGET = 1000.0

CAMERAS = [f"camera-{i}" for i in range(5)]
LENSES = [f"lens-{i}" for i in range(3)]


def corpus():
    """Twelve documents, each praising one camera and panning one lens."""
    entities, judgments = [], []
    for i in range(12):
        camera, lens = CAMERAS[i % 5], LENSES[i % 3]
        doc_id = f"d{i:02d}"
        content = f"The {camera} is excellent . The {lens} is awful . Shot {i} ."
        entities.append(Entity(entity_id=doc_id, content=content))
        for name, polarity in ((camera, Polarity.POSITIVE), (lens, Polarity.NEGATIVE)):
            start = content.index(name)
            span = Span(start, start + len(name))
            judgments.append(
                SentimentJudgment(
                    spot=Spot(Subject(name), name, span, 0, doc_id), polarity=polarity
                )
            )
    return entities, judgments


@pytest.fixture(scope="module")
def front_ends():
    entities, judgments = corpus()
    store = DataStore()
    for entity in entities:
        store.store(entity)
    index, sentiment = InvertedIndex(), SentimentIndex()
    for entity in entities:
        index.add_entity(entity)
    for judgment in judgments:
        sentiment.add_judgment(judgment)
    hosted = VinciBus()
    register_services(hosted, store, index, sentiment)

    obs = Obs.default()
    sharded = ReplicatedIndex(num_shards=3, num_nodes=3, replication=2)
    sharded.add_judgments(judgments)
    sharded.add_entities(entities)
    router = ServingRouter(sharded, store, VinciBus(obs=obs), obs=obs)
    return hosted, router


def both(front_ends, op, payload):
    """``(hosted envelope, router envelope)`` for one request."""
    hosted, router = front_ends
    via_service = hosted.request(SERVICES[op], payload)
    via_router = router.serve(op, payload, budget=BUDGET)
    for envelope in (via_service, via_router):
        assert validate_envelope(envelope) == []
    return via_service, via_router


def assert_same(front_ends, op, payload):
    """Both front ends agree; returns the router's envelope."""
    via_service, via_router = both(front_ends, op, payload)
    assert via_service["data"] == via_router["data"]
    assert via_service["meta"]["cursor"] == via_router["meta"]["cursor"]
    assert error_code(via_service) == error_code(via_router)
    return via_router


def error_code(envelope):
    return envelope["error"]["code"] if envelope["error"] is not None else None


VALID = [
    ("counts", {"subject": "camera-1"}),
    ("counts", {"subject": "LENS-2"}),
    ("counts", {"subject": "tripod"}),
    ("sentences", {"subject": "camera-0"}),
    ("sentences", {"subject": "camera-0", "polarity": "+"}),
    ("sentences", {"subject": "camera-0", "polarity": "-"}),
    ("sentences", {"subject": "lens-1", "polarity": "-", "limit": 2}),
    ("sentences", {"subject": "lens-1", "limit": 0}),
    ("sentences", {"subject": "tripod"}),
    ("subjects", {}),
    ("search", {"q": "excellent"}),
    ("search", {"q": '"is awful"', "limit": 3}),
    ("search", {"q": "camera-2 OR lens-0"}),
    ("search", {"q": "tripod"}),
]


@pytest.mark.parametrize("op,payload", VALID)
def test_valid_requests_agree(front_ends, op, payload):
    envelope = assert_same(front_ends, op, payload)
    assert envelope["ok"] is True
    assert envelope["meta"]["status"] == "ok"


@pytest.mark.parametrize(
    "op,payload",
    [
        ("subjects", {"limit": 1}),
        ("subjects", {"limit": 3}),
        ("search", {"q": "excellent", "limit": 1}),
        ("search", {"q": "excellent OR awful", "limit": 5}),
    ],
)
def test_cursor_walks_agree_to_the_last_page(front_ends, op, payload):
    pages, cursor, served = 0, None, []
    while True:
        page = dict(payload) if cursor is None else {**payload, "cursor": cursor}
        envelope = assert_same(front_ends, op, page)
        served.extend(envelope["data"]["subjects" if op == "subjects" else "ids"])
        cursor = envelope["meta"]["cursor"]
        pages += 1
        if cursor is None:
            break
        assert pages < 20, "cursor walk did not terminate"
    assert len(served) == len(set(served)) > payload["limit"]


MALFORMED = [
    ("counts", ["not", "a", "dict"], "bad_request"),
    ("search", "q=excellent", "bad_request"),
    ("counts", {}, "bad_request"),
    ("counts", {"subject": 5}, "bad_request"),
    ("sentences", {"subject": ""}, "bad_request"),
    ("sentences", {"subject": "camera-0", "polarity": "0"}, "bad_request"),
    ("sentences", {"subject": "camera-0", "polarity": "x"}, "bad_request"),
    ("counts", {"subject": "camera-0", "polarity": "!"}, "bad_request"),
    ("sentences", {"subject": "camera-0", "limit": -1}, "bad_request"),
    ("subjects", {"limit": "ten"}, "bad_request"),
    ("search", {"q": "excellent", "limit": True}, "bad_request"),
    ("counts", {"subject": "camera-0", "cursor": "abc"}, "bad_request"),
    ("subjects", {"cursor": "!!not-base64!!"}, "bad_cursor"),
    ("search", {}, "bad_request"),
    ("search", {"q": 7}, "bad_request"),
    ("search", {"q": "(broken"}, "bad_request"),
]


@pytest.mark.parametrize("op,payload,code", MALFORMED)
def test_malformed_requests_agree(front_ends, op, payload, code):
    via_service, via_router = both(front_ends, op, payload)
    for envelope in (via_service, via_router):
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == code
        assert envelope["meta"]["cursor"] is None


#: Decodable cursors that do not fit the op: (op, payload, cursor body, code).
MISFIT_CURSORS = [
    ("sentences", {"subject": "camera-0"}, {"o": "sentences", "k": 1}, "bad_request"),
    ("subjects", {}, {"o": "subjects"}, "bad_cursor"),
    ("subjects", {}, {"o": "subjects", "k": {"x": 1}}, "bad_cursor"),
    ("subjects", {}, {"o": "subjects", "k": [1]}, "bad_cursor"),
    ("subjects", {}, {"o": "subjects", "k": ["a", 1]}, "bad_cursor"),
    ("search", {"q": "excellent"}, {"o": "search", "k": 5}, "bad_cursor"),
    ("search", {"q": "excellent"}, ["search"], "bad_cursor"),
    ("search", {"q": "excellent"}, {"o": "subjects", "k": [-4, "lens-0"]}, "bad_cursor"),
]


@pytest.mark.parametrize("op,payload,body,code", MISFIT_CURSORS)
def test_misfit_cursors_agree(front_ends, op, payload, body, code):
    test_malformed_requests_agree(
        front_ends, op, {**payload, "cursor": encode_cursor(body)}, code
    )
