"""The three benchmark workloads: mine_reviews, ingest_web, serve_recovery.

Each workload is one closed loop with one caller on one thread.  It is
built from its seed alone (:meth:`setup`), then driven one operation at
a time (:meth:`step`).  The first ``head`` operations are the same on
every run with that seed, so the quality figures and the exact counts
are taken over them (:meth:`at_head`); later operations only add
timing samples.  :meth:`check` compares the outputs against an
independent computation after the timed window.
"""

from __future__ import annotations

import bisect
import json
import random
from collections import OrderedDict, deque
from dataclasses import replace
from time import perf_counter

from repro.core import SentimentMiner, Subject
from repro.corpora import DOMAINS, ReviewGenerator, WebPageGenerator
from repro.eval.metrics import EvaluationCounts, evaluate_cases
from repro.nlp.sentences import split_sentences
from repro.obs import Obs
from repro.platform.datastore import DataStore
from repro.platform.entity import Entity
from repro.platform.ingestion import DELTA_ADD, DELTA_DELETE, DELTA_UPDATE, DocumentDelta
from repro.platform.segments import CompactionPolicy, DeltaIndexer, LiveIndexer
from repro.platform.serving import LoadProfile, ReplicatedIndex, ServingRouter, build_scenario
from repro.platform.serving.router import STATUS_DEGRADED, STATUS_OK
from repro.platform.vinci import VinciBus

#: Counts read at the end of the head; identical for a seed on every run.
COUNT_NAMES = (
    "memo.split.hit_ratio",
    "memo.tag.hit_ratio",
    "memo.parse.hit_ratio",
    "segments.sealed",
    "compaction.merged_docs",
    "serving.hedges",
    "serving.failovers",
    "serving.breaker_fastfails",
    "recovery.transfers",
    "recovery.docs_shipped",
)


def registry_counts(obs: Obs, recovery=None) -> dict[str, float]:
    """The exact per-layer counts, read from the program's own registry."""
    metrics = obs.metrics
    out: dict[str, float] = {}
    for memo in ("split", "tag", "parse"):
        hits = metrics.value("nlp.memo_hits", memo=memo)
        misses = metrics.value("nlp.memo_misses", memo=memo)
        out[f"memo.{memo}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["segments.sealed"] = metrics.value("segments.sealed")
    out["compaction.merged_docs"] = metrics.value("compaction.merged_docs")
    out["serving.hedges"] = metrics.value("serving.hedges")
    out["serving.failovers"] = metrics.value("serving.failovers")
    out["serving.breaker_fastfails"] = sum(
        counter.value for _, counter in metrics.series("serving.breaker_fastfails")
    )
    summary = recovery.summary() if recovery is not None else {}
    out["recovery.transfers"] = summary.get("transfers", 0)
    out["recovery.docs_shipped"] = summary.get("docs_shipped", 0)
    return out


def judgment_predictions(judgments) -> dict:
    """Evaluation cases keyed as the paper's scorer keys them."""
    return {
        (j.subject_name.lower(), j.spot.sentence_index): j.polarity for j in judgments
    }


def quality(counts: EvaluationCounts) -> dict[str, float]:
    return {"polar_precision": counts.precision, "polar_recall": counts.recall}


def served_answers(router: ServingRouter, subjects: list[str], queries: list[str]) -> str:
    """A fixed read set through the front door, as one comparable string."""
    reads = [("subjects", {})]
    reads += [("counts", {"subject": s}) for s in subjects]
    reads += [("search", {"q": q}) for q in queries]
    out = []
    for op, payload in reads:
        envelope = router.serve(op, payload, priority=2, budget=8.0)
        out.append([op, payload, envelope["meta"]["status"], envelope["data"]])
    return json.dumps(out, sort_keys=True)


def domain_subjects(*domains: str) -> list[Subject]:
    names: list[str] = []
    for domain in domains:
        vocab = DOMAINS[domain]
        for name in (*vocab.products, *vocab.features):
            if name not in names:
                names.append(name)
    return [Subject(name) for name in names]


class MineReviews:
    """Mode A over the paper-size digital-camera D+ set.

    Each operation is one review through ``SentimentMiner.mine_document``.
    The loop cycles through the 485 reviews; the split/tag/parse memos
    are far smaller than the corpus, so a second pass misses as the
    first one does.
    """

    name = "mine_reviews"
    tail_q = 0.99

    def __init__(self, seed: int, docs: int = 485, warmup: int = 24):
        self.seed = seed
        self.docs = docs
        self.warmup = warmup
        self.head = docs

    def setup(self) -> None:
        generator = ReviewGenerator(DOMAINS["digital_camera"], seed=self.seed)
        self.documents = generator.generate_dplus(self.docs)
        names = sorted({m.subject for d in self.documents for m in d.mentions})
        self.subjects = [Subject(name) for name in names]
        self.obs = Obs.default()
        self.miner = SentimentMiner(subjects=self.subjects, obs=self.obs)
        # Warm up on the end of the corpus: the memos have forgotten
        # those reviews by the time the cycle reaches them again.
        for document in self.documents[-self.warmup :]:
            self.miner.mine_document(document.text, document.doc_id)
        self.results = []

    def step(self, i: int) -> tuple[float, bool]:
        document = self.documents[i % self.docs]
        started = perf_counter()
        result = self.miner.mine_document(document.text, document.doc_id)
        elapsed = perf_counter() - started
        if i < self.head:
            self.results.append(result)
        return elapsed, True

    def at_head(self) -> None:
        self.head_counts = registry_counts(self.obs)

    def quality(self) -> dict[str, float]:
        counts = EvaluationCounts()
        for document, result in zip(self.documents, self.results):
            predictions = judgment_predictions(result.judgments)
            counts.merge(evaluate_cases(document.mentions, predictions))
        return quality(counts)

    def check(self) -> list[str]:
        reference = SentimentMiner(subjects=self.subjects).mine_batch(
            (d.doc_id, d.text) for d in self.documents
        )
        mined = [j for result in self.results for j in result.judgments]
        if mined != reference.judgments:
            return ["mine_document judgments differ from mine_batch"]
        return []


class IngestWeb:
    """The live crawl→index→serve loop over a seeded web-page delta stream.

    The base index holds ``base`` petroleum and pharmaceutical pages.
    Every batch then carries 2 new pages, 1 syndicated copy of a recent
    page under a new id, 2 updates and 3 deletes, in seeded order, so
    the live corpus keeps its size and each batch costs about the same.
    An operation is one batch through ``LiveIndexer.apply_batch`` (its
    latency: ingest until queryable, compaction included) followed by
    four router reads: two subjects' counts, the subject list, a search.
    """

    name = "ingest_web"
    tail_q = 0.9

    NEW, SYNDICATED, UPDATES, DELETES = 2, 1, 2, 3
    #: Syndicated copies are drawn from the pages mined most recently.
    RECENT = 16

    def __init__(self, seed: int, base: int = 160, head: int = 80, warmup: int = 4):
        self.seed = seed
        self.base = base
        self.head = head
        self.warmup = warmup

    def setup(self) -> None:
        seed = self.seed
        self.generators = [
            WebPageGenerator(DOMAINS["petroleum"], seed=seed),
            WebPageGenerator(DOMAINS["pharmaceutical"], seed=seed + 1),
        ]
        self.rng = random.Random(seed)
        self.next_id = 0
        self.subjects = domain_subjects("petroleum", "pharmaceutical")
        self.subject_names = [s.canonical for s in self.subjects]
        self.queries = [
            DOMAINS["petroleum"].features[0],
            DOMAINS["pharmaceutical"].features[0],
            f"{DOMAINS['petroleum'].products[0]} OR {DOMAINS['pharmaceutical'].products[0]}",
        ]
        # doc id → current labelled version, in last-write order.
        self.live: OrderedDict[str, object] = OrderedDict()
        self.recent: deque = deque(maxlen=self.RECENT)
        for _ in range(self.base):
            page = self._new_page()
            self.live[page.doc_id] = page
        self.obs = Obs.default()
        self.miner = _RecordingMiner(subjects=self.subjects, obs=self.obs)
        index, self.router = self._bulk_build(self.miner, self.obs)
        self.indexer = LiveIndexer(
            index,
            DeltaIndexer(self.miner, obs=self.obs),
            obs=self.obs,
            policy=CompactionPolicy(),
        )
        for _ in range(self.warmup):
            self.indexer.apply_batch(self._next_batch())
        self.mined_gold: list = []
        self.miner.recorded = []

    def _bulk_build(self, miner: SentimentMiner, obs: Obs):
        """The offline path: mine the live pages into a fresh index and router."""
        entities = [Entity(entity_id=i, content=p.text) for i, p in self.live.items()]
        index = ReplicatedIndex(8, 4, replication=2)
        result = miner.mine_corpus((e.entity_id, e.content) for e in entities)
        index.add_judgments(result.polar_judgments())
        index.add_entities(entities)
        store = DataStore()
        store.store_all(entities)
        router = ServingRouter(index, store, VinciBus(obs=obs), obs=obs, latency_seed=self.seed)
        return index, router

    def _new_page(self):
        generator = self.generators[self.next_id % len(self.generators)]
        page = generator.generate_page(f"web:{self.next_id:07d}")
        self.next_id += 1
        self.recent.append(page)
        return page

    def _next_batch(self) -> list[DocumentDelta]:
        """Draw one batch and apply it to the benchmark's own view of the corpus."""
        rng = self.rng
        kinds = (
            [DELTA_ADD] * self.NEW
            + ["syndicated"] * self.SYNDICATED
            + [DELTA_UPDATE] * self.UPDATES
            + [DELTA_DELETE] * self.DELETES
        )
        rng.shuffle(kinds)
        touched: set[str] = set()
        deltas = []
        for kind in kinds:
            if kind == DELTA_ADD or kind == "syndicated":
                if kind == DELTA_ADD:
                    page = self._new_page()
                else:
                    source = rng.choice(self.recent)
                    page = replace(source, doc_id=f"web:{self.next_id:07d}")
                    self.next_id += 1
                doc_id = page.doc_id
                self.live[doc_id] = page
                deltas.append(_upsert(DELTA_ADD, doc_id, page))
            else:
                doc_id = self._pick_live(touched)
                if kind == DELTA_UPDATE:
                    page = replace(self._new_page(), doc_id=doc_id)
                    self.live.pop(doc_id)
                    self.live[doc_id] = page
                    deltas.append(_upsert(DELTA_UPDATE, doc_id, page))
                else:
                    del self.live[doc_id]
                    deltas.append(DocumentDelta(kind=DELTA_DELETE, entity_id=doc_id))
            touched.add(doc_id)
        self.last_mined = [self.live[d.entity_id] for d in deltas if d.kind != DELTA_DELETE]
        return deltas

    def _pick_live(self, touched: set[str]) -> str:
        """A seeded live id that this batch has not touched yet."""
        ids = list(self.live)
        while True:
            doc_id = ids[self.rng.randrange(len(ids))]
            if doc_id not in touched:
                return doc_id

    def step(self, i: int) -> tuple[float, bool]:
        batch = self._next_batch()
        started = perf_counter()
        self.indexer.apply_batch(batch)
        elapsed = perf_counter() - started
        if i < self.head:
            self.mined_gold.extend(self.last_mined)
        names = self.subject_names
        reads = [
            ("counts", {"subject": names[(2 * i) % len(names)]}),
            ("counts", {"subject": names[(2 * i + 1) % len(names)]}),
            ("subjects", {}),
            ("search", {"q": self.queries[i % len(self.queries)]}),
        ]
        ok = True
        for op, payload in reads:
            ok = self.router.serve(op, payload)["meta"]["status"] == STATUS_OK and ok
        return elapsed, ok

    def at_head(self) -> None:
        self.head_counts = registry_counts(self.obs)
        self.head_mined = self.miner.recorded
        self.miner.recorded = None

    def quality(self) -> dict[str, float]:
        counts = EvaluationCounts()
        for page, (doc_id, judgments) in zip(self.mined_gold, self.head_mined):
            counts.merge(evaluate_cases(page.mentions, judgment_predictions(judgments)))
        return quality(counts)

    def check(self) -> list[str]:
        problems = []
        mined_ids = [doc_id for doc_id, _ in self.head_mined]
        if mined_ids != [page.doc_id for page in self.mined_gold]:
            problems.append("ingest mined a different document sequence than was sent")
        # The one-pass build over the final document versions, in
        # last-write order, must answer every read identically.
        obs = Obs.default()
        _, one_pass = self._bulk_build(SentimentMiner(subjects=self.subjects, obs=obs), obs)
        live_answers = served_answers(self.router, self.subject_names, self.queries)
        if live_answers != served_answers(one_pass, self.subject_names, self.queries):
            problems.append("live index answers differ from the one-pass build")
        return problems


class _RecordingMiner(SentimentMiner):
    """Keeps (document id, judgments) of every document it mines while
    ``recorded`` is a list, so ingest quality is scored on the judgments
    the ingest path really produced."""

    recorded: list | None = None

    def mine_document(self, text: str, document_id: str = ""):
        result = super().mine_document(text, document_id)
        if self.recorded is not None:
            self.recorded.append((document_id, result.judgments))
        return result


def _upsert(kind: str, doc_id: str, page) -> DocumentDelta:
    entity = Entity(entity_id=doc_id, content=page.text)
    return DocumentDelta(kind=kind, entity_id=doc_id, entity=entity)


class ServeRecovery:
    """One seeded client against a crashed-and-restarting serving cluster.

    Set-up mines the corpus, seals it through the WAL in 6 batches and
    shards it; one node is dead from the start and rejoins after a
    seeded delay.  Each operation is one request of the counts-heavy
    ``LoadProfile`` mix through ``make_request``/``submit``/``drain``;
    after every seeded burst of 2–8 requests the client calls
    ``RecoveryManager.tick()``, as ``LoadGenerator`` does.
    """

    name = "serve_recovery"
    tail_q = 0.99

    def __init__(self, seed: int, docs: int = 120, head: int = 400, warmup: int = 8):
        self.seed = seed
        self.docs = docs
        self.head = head
        self.warmup = warmup

    def _scenario(self, chaos: bool):
        return build_scenario(
            seed=self.seed,
            docs=self.docs,
            chaos_seed=self.seed if chaos else None,
            batches=6,
            restarts=chaos,
        )

    def setup(self) -> None:
        self.scenario = self._scenario(chaos=True)
        self.router = self.scenario.router
        self.recovery = self.scenario.recovery
        vocab = DOMAINS["digital_camera"]
        self.subject_names = [*vocab.products, *vocab.features]
        self.queries = [
            vocab.features[0],
            f"{vocab.products[0]} AND {vocab.features[0]}",
            f'"{vocab.features[0]}"',
            "re:/[a-z]+/",
        ]
        self.profile = LoadProfile()
        self.rng = random.Random(self.seed)
        self.burst_left = 0
        for i in range(self.warmup):
            self.step(i)

    def _draw_request(self):
        """One request of the profile's mix (``LoadGenerator``'s draw)."""
        rng, profile = self.rng, self.profile
        op = rng.choices(
            [op for op, _ in profile.op_weights],
            weights=[w for _, w in profile.op_weights],
            k=1,
        )[0]
        payload = {}
        if op in ("counts", "sentences"):
            payload["subject"] = rng.choice(self.subject_names)
            if op == "sentences" and rng.random() < 0.4:
                payload["polarity"] = rng.choice(["+", "-"])
        elif op == "search":
            payload["q"] = rng.choice(self.queries)
        budget = profile.budget_min + rng.random() * (profile.budget_max - profile.budget_min)
        priority = rng.choice(profile.priorities)
        return self.router.make_request(op, payload, priority=priority, budget=budget)

    def step(self, i: int) -> tuple[float, bool]:
        if self.burst_left == 0:
            self.burst_left = self.rng.randint(self.profile.burst_min, self.profile.burst_max)
        request = self._draw_request()
        started = perf_counter()
        immediate = self.router.submit(request)
        outcomes = [immediate] if immediate is not None else [e for _, e in self.router.drain()]
        elapsed = perf_counter() - started
        self.burst_left -= 1
        if self.burst_left == 0:
            self.recovery.tick()
        ok = len(outcomes) == 1 and outcomes[0]["meta"]["status"] in (STATUS_OK, STATUS_DEGRADED)
        return elapsed, ok

    def at_head(self) -> None:
        self.head_counts = registry_counts(self.scenario.obs, self.recovery)

    def quality(self) -> dict[str, float]:
        """The served judgments, scored against the corpus's gold mentions."""
        documents = ReviewGenerator(DOMAINS["digital_camera"], seed=self.seed).generate_dplus(
            self.docs
        )
        predictions: dict[str, dict] = {d.doc_id: {} for d in documents}
        starts = {
            d.doc_id: [s.start for s in split_sentences(d.text)] for d in documents
        }
        index = self.router.index
        for shard_id in index.shard_ids():
            sentiment = index.replicas_for(shard_id)[0].view().sentiment
            for subject in sentiment.subject_counts():
                for entry in sentiment.query(subject):
                    sentence = bisect.bisect_right(starts[entry.entity_id], entry.start) - 1
                    predictions[entry.entity_id][(subject.lower(), sentence)] = entry.polarity
        counts = EvaluationCounts()
        for document in documents:
            counts.merge(evaluate_cases(document.mentions, predictions[document.doc_id]))
        return quality(counts)

    def check(self) -> list[str]:
        problems = []
        obs = self.scenario.obs
        for _ in range(self.scenario.SETTLE_TICKS):
            if self.recovery.settled:
                break
            obs.clock.advance(0.5)
            self.recovery.tick()
        if not self.recovery.settled:
            problems.append("cluster did not settle")
        index = self.router.index
        for shard_id in index.shard_ids():
            vectors = {replica.version_vector() for replica in index.replicas_for(shard_id)}
            if len(vectors) != 1:
                problems.append(f"replicas of shard {shard_id} diverge")
        clean = self._scenario(chaos=False)
        if served_answers(self.router, self.subject_names, self.queries) != served_answers(
            clean.router, self.subject_names, self.queries
        ):
            problems.append("settled answers differ from a never-crashed run")
        return problems


WORKLOADS = {w.name: w for w in (MineReviews, IngestWeb, ServeRecovery)}
