"""The equivalence gate: incremental builds converge to the one-pass build.

Two layers of evidence:

* a Hypothesis property — *any* partition of *any* delta stream
  (out-of-order updates and deletes included) absorbed batch-by-batch
  reads identically to one offline pass over the final document
  versions in last-write order;
* a byte-identity gate on the full serving stack — the same seed serves
  a byte-identical end-state report whether the corpus was indexed in
  one pass or N incremental batches, with and without serving chaos.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SentimentMiner, Subject
from repro.obs import Obs
from repro.platform.entity import Annotation, Entity
from repro.platform.ingestion import (
    DELTA_ADD,
    DELTA_DELETE,
    DELTA_UPDATE,
    DocumentDelta,
)
from repro.platform.query import Concept, Not, Range
from repro.platform.serving import LoadProfile, ReplicatedIndex, build_scenario

pytestmark = pytest.mark.incremental

#: Sentence pool: positive/negative/neutral mentions of two subjects.
TEMPLATES = (
    "The NR70 is excellent . I love the pictures .",
    "The NR70 is awful . The battery is bad .",
    "The G3 is great . Pictures look sharp .",
    "The G3 is terrible . The lens is poor .",
    "The NR70 and the G3 are cameras . Nothing else to say .",
)

DOC_IDS = ("d0", "d1", "d2", "d3")

QUERIES = (
    "nr70",
    "g3",
    "nr70 AND NOT awful",
    '"the pictures"',
    "pictures OR lens",
    Concept("spot"),
    Concept("spot", "g3"),
    Range("rank", 1.0, 3.0),
    Concept("geo", "paris"),
    Not(Concept("geo")),
)

#: Per-template spot label and city (None: no ``geo`` annotation).
ANNOTATIONS = (
    ("nr70", "paris"),
    ("nr70", None),
    ("g3", "new-york"),
    ("g3", "paris"),
    ("nr70", None),
)


def make_entity(doc_id, template_index):
    """One document version: template text, a numeric rank and concepts.

    Concept and metadata postings must survive sealing, absorbing and
    compaction exactly as text postings do.
    """
    content = TEMPLATES[template_index]
    entity = Entity(
        entity_id=doc_id,
        content=content,
        metadata={"rank": template_index, "lang": "en"},
    )
    label, city = ANNOTATIONS[template_index]
    entity.annotate(Annotation.make("spot", 4, 8, label))
    if city is not None:
        entity.annotate(Annotation.make("geo", 0, 3, city))
    return entity


def fresh_miner(obs=None):
    return SentimentMiner(
        subjects=[Subject("NR70"), Subject("G3")], obs=obs or Obs.default()
    )


#: One op: (doc index, template index) writes; (doc index, None) deletes.
ops_strategy = st.lists(
    st.tuples(
        st.integers(0, len(DOC_IDS) - 1),
        st.one_of(st.none(), st.integers(0, len(TEMPLATES) - 1)),
    ),
    min_size=1,
    max_size=12,
)


def to_deltas(ops):
    """Delta stream in delivery order, with add/update kinds resolved."""
    deltas = []
    live = set()
    for doc_index, template_index in ops:
        doc_id = DOC_IDS[doc_index]
        if template_index is None:
            deltas.append(DocumentDelta(kind=DELTA_DELETE, entity_id=doc_id))
            live.discard(doc_id)
        else:
            kind = DELTA_UPDATE if doc_id in live else DELTA_ADD
            deltas.append(
                DocumentDelta(
                    kind=kind,
                    entity_id=doc_id,
                    entity=make_entity(doc_id, template_index),
                )
            )
            live.add(doc_id)
    return deltas


def final_versions(deltas):
    """Surviving documents in last-write order (the LSM read order)."""
    live = {}
    for delta in deltas:
        live.pop(delta.entity_id, None)
        if delta.kind != DELTA_DELETE:
            live[delta.entity_id] = delta.entity
    return list(live.values())


def build_incremental(deltas, cuts):
    """Absorb the stream as batches split at *cuts* (sorted positions)."""
    from repro.platform.segments import CompactionPolicy, DeltaIndexer, LiveIndexer

    obs = Obs.default()
    index = ReplicatedIndex(2, 2, replication=1)
    live = LiveIndexer(
        index,
        DeltaIndexer(fresh_miner(obs), obs=obs),
        obs=obs,
        policy=CompactionPolicy(max_segments=2),
    )
    bounds = [0, *sorted(cuts), len(deltas)]
    for start, stop in zip(bounds, bounds[1:]):
        if stop > start:
            live.apply_batch(deltas[start:stop])
    return index


def build_one_pass(documents):
    """The offline bulk build over the final document versions."""
    miner = fresh_miner()
    index = ReplicatedIndex(2, 2, replication=1)
    result = miner.mine_corpus((e.entity_id, e.content) for e in documents)
    index.add_judgments(result.polar_judgments())
    index.add_entities(documents)
    return index


def observable_state(index):
    """Everything a reader can see, per shard, in deterministic form."""
    state = {}
    for shard_id in index.shard_ids():
        snapshot = index.replicas_for(shard_id)[0].view()
        state[shard_id] = {
            "subject_counts": snapshot.sentiment.subject_counts(),
            "entries": {
                subject: [
                    (e.entity_id, e.polarity.value, e.start, e.end)
                    for e in snapshot.sentiment.query(subject)
                ]
                for subject in snapshot.sentiment.subject_counts()
            },
            "doc_ids": sorted(snapshot.inverted.doc_ids),
            "idf_table": snapshot.inverted.idf_table(),
            "searches": {q: sorted(snapshot.inverted.search(q)) for q in QUERIES},
        }
    return state


class TestEquivalenceProperty:
    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=ops_strategy, data=st.data())
    def test_any_partition_converges_to_the_one_pass_build(self, ops, data):
        deltas = to_deltas(ops)
        cuts = data.draw(
            st.sets(st.integers(1, max(1, len(deltas) - 1)), max_size=4),
            label="batch cut points",
        )
        incremental = build_incremental(deltas, cuts)
        one_pass = build_one_pass(final_versions(deltas))
        assert observable_state(incremental) == observable_state(one_pass)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(ops=ops_strategy)
    def test_one_batch_equals_many_singleton_batches(self, ops):
        deltas = to_deltas(ops)
        as_one = build_incremental(deltas, cuts=())
        as_many = build_incremental(deltas, cuts=range(1, len(deltas)))
        assert observable_state(as_one) == observable_state(as_many)


SEED = 2005
DOCS = 18
REQUESTS = 120


def scenario_report(*, batches, chaos_seed):
    scenario = build_scenario(
        seed=SEED,
        docs=DOCS,
        chaos_seed=chaos_seed,
        profile=LoadProfile(requests=REQUESTS),
        batches=batches,
    )
    return json.dumps(scenario.run(), sort_keys=True)


class TestServingByteIdentity:
    """The determinism gate from ISSUE 6's acceptance criteria."""

    def test_one_pass_and_batched_builds_serve_identical_reports(self):
        one_pass = scenario_report(batches=None, chaos_seed=None)
        assert scenario_report(batches=4, chaos_seed=None) == one_pass
        assert scenario_report(batches=7, chaos_seed=None) == one_pass

    @pytest.mark.chaos
    def test_byte_identity_holds_under_serving_chaos(self):
        one_pass = scenario_report(batches=None, chaos_seed=99)
        batched = scenario_report(batches=5, chaos_seed=99)
        assert batched == one_pass
        report = json.loads(one_pass)
        assert report["dead_nodes"], "chaos must actually kill a node"
        assert report["faults_injected"] >= 0.05 * REQUESTS


class TestSnapshotReadsUnderAbsorb:
    """A fan-out read never sees a torn segment set mid-absorb."""

    def test_absorb_between_shard_reads_does_not_tear_the_answer(self):
        from repro.core.miner import SentimentMiner as _SM  # noqa: F401
        from repro.platform.datastore import DataStore
        from repro.platform.segments import DeltaIndexer, LiveIndexer
        from repro.platform.serving import ServingRouter, node_service
        from repro.platform.vinci import VinciBus

        obs = Obs.default()
        store = DataStore()
        index = ReplicatedIndex(4, 2, replication=1)
        live = LiveIndexer(index, DeltaIndexer(fresh_miner(obs), obs=obs), obs=obs)
        docs = {
            "d0": "The NR70 is excellent . Pictures are sharp .",
            "d1": "The G3 is great . The pictures are lovely .",
            "d2": "The NR70 is awful . The pictures are poor .",
        }
        for doc_id, content in docs.items():
            store.store(Entity(entity_id=doc_id, content=content))
        live.apply_batch(
            [
                DocumentDelta(
                    kind=DELTA_ADD,
                    entity_id=doc_id,
                    entity=Entity(entity_id=doc_id, content=content),
                )
                for doc_id, content in docs.items()
            ]
        )
        bus = VinciBus(obs=obs)
        router = ServingRouter(index, store, bus, obs=obs)

        # Sabotage: the first shard read triggers an absorb of a delete
        # batch mid-request — after the router pinned its version.
        fired = {"done": False}
        for node_id in (0, 1):
            service = node_service(node_id)
            inner = bus._services[service].handler

            def wrapped(payload, inner=inner):
                if not fired["done"]:
                    fired["done"] = True
                    live.apply_batch(
                        [DocumentDelta(kind=DELTA_DELETE, entity_id="d0")]
                    )
                return inner(payload)

            bus.register(service, wrapped)

        envelope = router.serve("search", {"q": "pictures"})
        assert fired["done"], "the mid-request absorb must have fired"
        assert envelope["meta"]["status"] == "ok"
        # The pinned snapshot predates the delete: all three docs answer.
        assert envelope["data"]["ids"] == ["d0", "d1", "d2"]
        # A fresh request reads the post-delete world.
        after = router.serve("search", {"q": "pictures"})
        assert after["data"]["ids"] == ["d1", "d2"]
