"""Read memos on shared index objects: never stale, never rescanning.

:meth:`InvertedIndex.search` memoises regex matches per pattern and
:meth:`SentimentIndex.live_subject_counts` memoises live counts per
mask, both stamped with the index's ``mutations`` counter; the router
keeps its hedge window sorted as it is written.  The properties drive
every index write in random order and require each memoised read to
equal an uncached computation after every step; the work-count guard
pins what repeated ``re:`` searches cost on a served cluster — one
vocabulary scan per (index object, pattern) until the object's next
write.
"""

import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.model import Polarity, SentimentJudgment, Spot, Subject
from repro.nlp.tokens import Span
from repro.obs import Obs
from repro.platform.datastore import DataStore
from repro.platform.entity import Entity
from repro.platform.indexer import _READ_MEMO_MAX, InvertedIndex, SentimentEntry
from repro.platform.ingestion import DELTA_ADD, DocumentDelta
from repro.platform.query import And, Not, Or, Regex, parse_query
from repro.platform.segments import ReplicaSnapshot, ShardSegment, _masks, merge_segments
from repro.platform.serving import ReplicatedIndex, ServingRouter, build_scenario
from repro.platform.serving.router import HEDGE_PERCENTILE, HEDGE_WARMUP
from repro.platform.vinci import VinciBus

pytestmark = pytest.mark.incremental

SUBJECTS = ("camera", "Flash", "lens")
DOCS = ("d0", "d1", "d2", "d3")
TEXTS = ("the camera is great", "the flash is awful", "lens lens camera", "NR70 2005 zoom")
POLARITIES = (Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.NEUTRAL)

#: Regexes alone, nested in AND/OR/NOT, and in case variants of one another.
QUERIES = tuple(
    parse_query(q)
    for q in (
        "re:/[a-z]+/",
        "re:/[A-Z]+/",
        "re:/CAM.*/",
        "re:/cam.*/",
        r"re:/\d+/",
        "re:/l.*/ AND camera",
        "re:/fl.*/ OR re:/zoom/",
        "NOT re:/the/",
        "re:/[a-z]+/ AND NOT re:/l.*/",
    )
)

subject = st.sampled_from(SUBJECTS)
doc = st.sampled_from(DOCS)
text = st.sampled_from(TEXTS)
polarity = st.sampled_from(POLARITIES)
docs = st.frozensets(doc, max_size=3)

SEGMENTS = 3
seg = st.integers(0, SEGMENTS - 1)

step_strategy = st.one_of(
    st.tuples(st.just("add_entity"), seg, doc, text),
    st.tuples(st.just("remove_entity"), seg, doc),
    st.tuples(st.just("absorb_inverted"), seg, seg, docs),
    st.tuples(st.just("partition"), seg, seg),
    st.tuples(st.just("merge_segments"), seg),
    st.tuples(st.just("add_judgment"), seg, subject, doc, polarity),
    st.tuples(st.just("add_entry"), seg, subject, doc, polarity.filter(lambda p: p.is_polar)),
    st.tuples(st.just("remove_document"), seg, doc),
    st.tuples(st.just("absorb_sentiment"), seg, seg, docs),
    st.tuples(st.just("tombstones"), seg, docs),
    # Replicas share index objects: one write must show through both.
    st.tuples(st.just("share_indexes"), seg, seg),
    st.tuples(st.just("flood"), seg),
)

EVERY_WRITE = [
    ("add_entity", 0, "d1", TEXTS[0]),
    ("add_entity", 1, "d2", TEXTS[2]),
    ("add_judgment", 0, "lens", "d1", Polarity.POSITIVE),
    ("add_entry", 1, "camera", "d2", Polarity.NEGATIVE),
    ("add_entry", 1, "lens", "d3", Polarity.NEGATIVE),
    ("absorb_sentiment", 0, 1, frozenset({"d3"})),
    ("absorb_inverted", 0, 1, frozenset()),
    ("remove_document", 0, "d2"),
    ("remove_entity", 0, "d2"),
    ("partition", 0, 2),
    ("tombstones", 1, frozenset({"d1"})),
    ("merge_segments", 2),
    ("share_indexes", 2, 1),
    ("add_entity", 1, "d0", TEXTS[1]),
    ("flood", 2),
]


def judgment(subject_name, doc_id, polarity_):
    return SentimentJudgment(
        spot=Spot(
            Subject(subject_name), subject_name, Span(0, len(subject_name)), 0, doc_id
        ),
        polarity=polarity_,
    )


def apply_step(segments, step):
    kind, target = step[0], segments[step[1]]
    if kind == "add_entity":
        target.inverted.add_entity(Entity(entity_id=step[2], content=step[3]))
    elif kind == "remove_entity":
        target.inverted.remove_entity(step[2])
    elif kind == "partition":
        parts = target.inverted.partition(lambda entity_id: DOCS.index(entity_id) % 2, 2)
        target.inverted, segments[step[2]].inverted = parts
    elif kind == "merge_segments":
        segments[step[1]] = merge_segments(segments[: step[1] + 1])
    elif kind == "add_judgment":
        target.sentiment.add_judgment(judgment(*step[2:]))
    elif kind == "add_entry":
        subject_name, doc_id, polarity_ = step[2:]
        target.sentiment.add_entry(
            SentimentEntry(subject_name, polarity_, doc_id, 0, len(subject_name))
        )
    elif kind == "remove_document":
        target.sentiment.remove_document(step[2])
    elif kind == "tombstones":
        target.tombstones = step[2]
    elif kind == "flood":
        # More distinct patterns than the memo holds, each checked.
        for i in range(_READ_MEMO_MAX + 3):
            query = Regex(f"[a-z]{{{i % 9}}}.*|x{i}")
            assert target.inverted.search(query) == uncached_search(target.inverted, query)
    else:
        source = segments[step[2]]
        if kind == "share_indexes":
            target.sentiment = source.sentiment
            target.inverted = source.inverted
        elif kind == "absorb_inverted" and source.inverted is not target.inverted:
            target.inverted.absorb(source.inverted, skip=step[3])
        elif kind == "absorb_sentiment" and source.sentiment is not target.sentiment:
            target.sentiment.absorb(source.sentiment, skip=step[3])


def uncached_search(index, query):
    """The memo-free evaluator: every Regex scans the vocabulary afresh."""
    if isinstance(query, Regex):
        compiled = re.compile(query.pattern, re.IGNORECASE)
        return {
            entity_id
            for token, postings in index._postings.items()
            if compiled.fullmatch(token)
            for entity_id in postings
        }
    if isinstance(query, And):
        return uncached_search(index, query.left) & uncached_search(index, query.right)
    if isinstance(query, Or):
        return uncached_search(index, query.left) | uncached_search(index, query.right)
    if isinstance(query, Not):
        return set(index.doc_ids) - uncached_search(index, query.operand)
    return index.search(query)


def uncached_live(sentiment, mask):
    counts = {}
    for subject_name, entries in sentiment.items():
        live = sum(1 for e in entries if e.entity_id not in mask)
        if live:
            counts[subject_name] = live
    return counts


def uncached_subject_counts(segments, masks):
    totals = {}
    for segment, mask in zip(segments, masks):
        for subject_name, live in uncached_live(segment.sentiment, mask).items():
            totals[subject_name] = totals.get(subject_name, 0) + live
    return dict(sorted(totals.items()))


def check_reads(segments):
    for segment in segments:
        for query in QUERIES:
            got = segment.inverted.search(query)
            assert got == uncached_search(segment.inverted, query)
            # A caller writing to its answer must not poison the memo.
            got.add("poison")
            got.discard("d0")
        for mask in (frozenset(), frozenset({"d0"}), frozenset({"d1", "d2"})):
            live = segment.sentiment.live_subject_counts(mask)
            assert dict(live) == uncached_live(segment.sentiment, mask)
            with pytest.raises(TypeError):
                live["poison"] = 1
    for version in range(SEGMENTS):
        visible = [s for s in segments if s.version <= version]
        snapshot = ReplicaSnapshot(version, segments).sentiment
        want = uncached_subject_counts(visible, _masks(visible))
        assert snapshot.subject_counts() == want
        assert snapshot.subjects() == sorted(want, key=lambda s: (-want[s], s))
        assert len(snapshot) == sum(want.values())


class TestMemoEquivalence:
    @settings(
        max_examples=120,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=st.lists(step_strategy, max_size=25))
    # Every write, each landing on memos the reads before it filled.
    @example(steps=EVERY_WRITE)
    def test_memoised_reads_equal_uncached_after_every_step(self, steps):
        segments = [ShardSegment(version=v) for v in range(SEGMENTS)]
        for step in steps:
            apply_step(segments, step)
            check_reads(segments)

    def test_memo_stays_within_its_bound(self):
        index = InvertedIndex()
        index.add_entity(Entity(entity_id="d0", content=TEXTS[3]))
        for i in range(3 * _READ_MEMO_MAX):
            query = Regex(f"nr{i % 80}|zoom")
            assert index.search(query) == {"d0"}
            assert len(index._regex_memo) <= _READ_MEMO_MAX


# ---------------------------------------------------------------------------
# hedge window: the sorted mirror tracks the sliding window exactly
# ---------------------------------------------------------------------------


def bare_router():
    obs = Obs.default()
    return ServingRouter(ReplicatedIndex(1, 1, 1), DataStore(), VinciBus(obs=obs), obs=obs)


latency = st.one_of(
    st.sampled_from([0.04, 0.08, 0.12, 0.96]),  # duplicates
    st.floats(0.0, 2.0, allow_nan=False),
)


class TestHedgeWindow:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(latencies=st.lists(latency, max_size=300))
    @example(latencies=[0.12] * 90 + [float(i % 7) for i in range(200)])
    @example(latencies=[float(300 - i) for i in range(300)])
    def test_threshold_equals_the_sorted_window_percentile(self, latencies):
        router = bare_router()
        for i, value in enumerate(latencies):
            router._record_latency(value)
            window = latencies[: i + 1][-router._latency_window.maxlen :]
            want = (
                float("inf")
                if len(window) < HEDGE_WARMUP
                else sorted(window)[int(HEDGE_PERCENTILE * (len(window) - 1))]
            )
            assert router._current_hedge_threshold() == want


# ---------------------------------------------------------------------------
# work-count guard: one vocabulary scan per (index object, pattern)
# ---------------------------------------------------------------------------

PATTERNS = ("re:/[a-z]+/", "re:/fl.*/ OR re:/zoom/", r"re:/\d+/")


def visible_inverted(index):
    return {
        id(segment.inverted): segment.inverted
        for shard_id in index.shard_ids()
        for replica in index.replicas_for(shard_id)
        for segment in replica.segments
    }


def search_everywhere(index):
    for shard_id in index.shard_ids():
        for replica in index.replicas_for(shard_id):
            view = replica.view().inverted
            for pattern in PATTERNS:
                view.search(parse_query(pattern))


@pytest.mark.serving
@pytest.mark.parametrize("seed", [3, 11])
def test_regex_scans_once_per_index_until_its_next_write(monkeypatch, seed):
    scenario = build_scenario(seed=seed, docs=24, chaos_seed=seed, batches=6, restarts=True)
    scenario.run()
    recovery, live, wal = scenario.recovery, scenario.live_indexer, scenario.wal
    index = scenario.router.index
    assert recovery.settled
    scans = []
    scan = InvertedIndex._scan_regex
    monkeypatch.setattr(
        InvertedIndex,
        "_scan_regex",
        lambda self, compiled: scans.append((id(self), compiled.pattern))
        or scan(self, compiled),
    )
    search_everywhere(index)
    assert max(Counter(scans).values()) == 1
    scans.clear()
    for _ in range(3):
        search_everywhere(index)
    assert scans == []  # every pattern is memoised on every shared index

    # Enough batches that the default policy compacts along the way.
    for i in range(6):
        # Keep the old indexes alive so no new object reuses an id.
        before = visible_inverted(index)
        stamps = {key: inverted.mutations for key, inverted in before.items()}
        entity = Entity(entity_id=f"extra{i}", content=TEXTS[i % len(TEXTS)])
        batch = [DocumentDelta(kind=DELTA_ADD, entity_id=entity.entity_id, entity=entity)]
        live.apply_batch(batch, lsn=wal.append(batch))
        recovery.tick()
        scans.clear()
        search_everywhere(index)
        search_everywhere(index)
        # Only the new slices and merged bases scan, once per pattern.
        now = visible_inverted(index)
        rescanned = {key for key in now if key not in before or stamps[key] != now[key].mutations}
        assert {key for key, _ in scans} == rescanned
        assert max(Counter(scans).values(), default=1) == 1
        assert rescanned and rescanned.isdisjoint(before)
