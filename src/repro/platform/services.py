"""Hosted application services and the one read-query path.

"It enables the deployment of a variety of document-level and
corpus-level miners in a scalable manner, and feeds information that
drives end-user applications through a set of hosted Web services."

The reputation-management GUI (paper Figures 4–5) and mode B's query
half ask four read ops: per-subject sentiment ``counts``, the
sentiment-bearing ``sentences`` listing, ranked ``subjects`` and
boolean/phrase document ``search``.  This module is the only code that
knows them.  A request goes through three steps:

* :func:`validate_query` — rejects a malformed request or normalises it
  (default ``limit``, the parsed search query);
* :func:`partial_answer` — one index's answer, over either the unsharded
  :class:`~.indexer.SentimentIndex`/:class:`~.indexer.InvertedIndex`
  pair or one shard replica's snapshot views;
* :func:`merge_answers` — folds partial answers, in shard order, into
  the response data and its continuation cursor.

:class:`QueryService` runs them over one unsharded index (a merge of
one); the serving router (:mod:`.serving.router`) runs the same three
over every shard.  Every handler returns the v1 envelope from
:mod:`.api` — success as ``ok_envelope(data)``, client mistakes as
``error_envelope(code, msg)`` flowing through Vinci as data (raising
would consume retry budget on a call that can never succeed).
``subjects`` and ``search`` paginate with opaque cursors surfaced in
``meta.cursor``.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.model import Polarity
from .api import (
    ERR_BAD_CURSOR,
    ERR_BAD_REQUEST,
    ERR_NOT_FOUND,
    CursorError,
    Envelope,
    decode_cursor,
    error_envelope,
    make_meta,
    ok_envelope,
    paginate,
)
from .datastore import DataStore
from .indexer import InvertedIndex, SentimentIndex
from .query import QueryParseError, parse_query
from .vinci import VinciBus

#: The read ops, answered by :class:`QueryService` and the serving router.
OPS = ("counts", "sentences", "subjects", "search")

#: Row limit when a request names none (``counts`` returns one row).
DEFAULT_LIMITS = {"sentences": 20, "subjects": 50, "search": 100}

#: Sort key of each paginated op's rows: a cursor resumes after one.
SORT_KEYS: dict[str, Callable[[Any], Any]] = {
    "subjects": lambda kv: (-kv[1], kv[0]),  # most-mentioned first, then name
    "search": lambda entity_id: entity_id,
}


def _is_position(op: str, key: Any) -> bool:
    """True when a decoded cursor position has the shape of *op*'s sort key."""
    if op == "subjects":  # [-count, name]
        return (
            isinstance(key, list)
            and len(key) == 2
            and type(key[0]) is int
            and isinstance(key[1], str)
        )
    return isinstance(key, str)


def validate_query(
    op: str, payload: Any
) -> tuple[tuple[str, str] | None, dict[str, Any]]:
    """``(None, normalised_payload)`` or ``((error_code, message), {})``.

    The normalised payload is a copy carrying the op's ``limit`` and,
    for ``search``, the parsed ``query_ast``, so every index evaluates
    the query the client sent without parsing it again.
    """
    if op not in OPS:
        return (ERR_BAD_REQUEST, f"unknown op {op!r}"), {}
    if not isinstance(payload, dict):
        return (ERR_BAD_REQUEST, "payload must be a dict envelope"), {}
    payload = dict(payload)
    limit = payload.get("limit", DEFAULT_LIMITS.get(op))
    if limit is not None:
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
            return (
                ERR_BAD_REQUEST,
                f"limit must be a non-negative integer, got {limit!r}",
            ), {}
    payload["limit"] = limit
    cursor = payload.get("cursor")
    if cursor is not None:
        if op not in SORT_KEYS:
            return (ERR_BAD_REQUEST, f"op {op!r} does not support cursors"), {}
        try:
            body = decode_cursor(cursor)
        except CursorError as exc:
            return (ERR_BAD_CURSOR, str(exc)), {}
        if body.get("o") != op:
            return (
                ERR_BAD_CURSOR,
                f"cursor is for {body.get('o')!r} results, not {op!r}",
            ), {}
        if not _is_position(op, body.get("k")):
            return (
                ERR_BAD_CURSOR,
                f"cursor position {body.get('k')!r} is not a {op!r} sort key",
            ), {}
    if op in ("counts", "sentences"):
        subject = payload.get("subject")
        if not subject or not isinstance(subject, str):
            return (ERR_BAD_REQUEST, "missing required field 'subject'"), {}
        polarity = payload.get("polarity")
        if polarity not in (None, "+", "-"):
            return (
                ERR_BAD_REQUEST,
                f"polarity must be '+', '-' or absent, got {polarity!r}",
            ), {}
    if op == "search":
        query = payload.get("q")
        if not query or not isinstance(query, str):
            return (ERR_BAD_REQUEST, "missing required field 'q'"), {}
        try:
            payload["query_ast"] = parse_query(query)
        except QueryParseError as exc:
            return (ERR_BAD_REQUEST, f"bad query: {exc}"), {}
    return None, payload


def partial_answer(
    op: str,
    payload: dict[str, Any],
    sentiment: Any,
    inverted: Any,
    store: DataStore,
) -> dict[str, Any]:
    """One index's answer to a validated request.

    *sentiment* and *inverted* are the unsharded
    :class:`~.indexer.SentimentIndex`/:class:`~.indexer.InvertedIndex`
    or one replica snapshot's views of them; both speak ``counts``,
    ``query``, ``subject_counts`` and ``search``.
    """
    if op == "counts":
        counts = sentiment.counts(payload["subject"])
        return {
            "subject": payload["subject"],
            "positive": counts[Polarity.POSITIVE],
            "negative": counts[Polarity.NEGATIVE],
        }
    if op == "sentences":
        polarity = payload.get("polarity")
        wanted = Polarity.from_symbol(polarity) if polarity else None
        rows = []
        for entry in sentiment.query(payload["subject"], wanted)[: payload["limit"]]:
            entity = store.get(entry.entity_id)
            snippet = ""
            if entity is not None:
                snippet = sentence_around(entity.content, entry.start, entry.end)
            rows.append(
                {
                    "entity_id": entry.entity_id,
                    "polarity": entry.polarity.value,
                    "sentence": snippet,
                }
            )
        return {"subject": payload["subject"], "rows": rows}
    if op == "subjects":
        return {"counts": sentiment.subject_counts()}
    return {"ids": sorted(inverted.search(payload["query_ast"]))}


def merge_answers(
    op: str, payload: dict[str, Any], partials: list[dict[str, Any]]
) -> tuple[dict[str, Any], str | None]:
    """Fold partial answers, in shard order, into ``(data, cursor)``.

    ``subjects`` and ``search`` paginate with opaque cursors keyed on
    the sort position of the last row (not an offset), so a cursor
    minted before a segment merge still resumes correctly after it.
    """
    if op == "counts":
        data = {"subject": payload["subject"], "positive": 0, "negative": 0}
        for part in partials:
            data["positive"] += part["positive"]
            data["negative"] += part["negative"]
        return data, None
    if op == "sentences":
        rows = [row for part in partials for row in part["rows"]]
        return {"subject": payload["subject"], "rows": rows[: payload["limit"]]}, None
    if op == "subjects":
        totals: dict[str, int] = {}
        for part in partials:
            for subject, count in part["counts"].items():
                totals[subject] = totals.get(subject, 0) + count
        items: list[Any] = sorted(totals.items(), key=SORT_KEYS[op])
    else:
        items = sorted(set().union(*(part["ids"] for part in partials)))
    page, cursor = paginate(
        items,
        limit=payload["limit"],
        cursor=payload.get("cursor"),
        kind=op,
        sort_key=SORT_KEYS[op],
    )
    if op == "subjects":
        return {"subjects": [name for name, _ in page]}, cursor
    return {"q": payload["q"], "total": len(items), "ids": page}, cursor


class QueryService:
    """The read ops over one unsharded index pair: a merge of one."""

    def __init__(
        self, store: DataStore, index: InvertedIndex, sentiment_index: SentimentIndex
    ):
        self._store = store
        self._index = index
        self._sentiment = sentiment_index

    def counts(self, payload: dict[str, Any]) -> Envelope:
        """``{"subject": name}`` → polarity counts."""
        return self._serve("counts", payload)

    def sentences(self, payload: dict[str, Any]) -> Envelope:
        """``{"subject": name, "polarity": "+"|"-"|None, "limit": n}`` →
        sentiment-bearing sentences, the Figure-5 listing."""
        return self._serve("sentences", payload)

    def subjects(self, payload: dict[str, Any]) -> Envelope:
        """Ranked subjects, one cursor-paginated page per call."""
        return self._serve("subjects", payload)

    def search(self, payload: dict[str, Any]) -> Envelope:
        """``{"q": query}`` → matching entity ids, cursor-paginated."""
        return self._serve("search", payload)

    def _serve(self, op: str, payload: Any) -> Envelope:
        error, payload = validate_query(op, payload)
        if error is not None:
            return error_envelope(*error)
        part = partial_answer(op, payload, self._sentiment, self._index, self._store)
        data, cursor = merge_answers(op, payload, [part])
        return ok_envelope(data, meta=make_meta(cursor=cursor))


class StoreService:
    """Entity retrieval for application front-ends."""

    def __init__(self, store: DataStore):
        self._store = store

    def get(self, payload: dict[str, Any]) -> Envelope:
        if not isinstance(payload, dict):
            return error_envelope(ERR_BAD_REQUEST, "payload must be a dict envelope")
        entity_id = payload.get("entity_id", "")
        entity = self._store.get(entity_id)
        if entity is None:
            return error_envelope(ERR_NOT_FOUND, f"no such entity: {entity_id!r}")
        return ok_envelope(entity.to_record())

    def stats(self, _payload: dict[str, Any]) -> Envelope:
        return ok_envelope(dict(self._store.stats()))


def register_services(
    bus: VinciBus,
    store: DataStore,
    index: InvertedIndex,
    sentiment_index: SentimentIndex,
) -> list[str]:
    """Wire the standard application services onto the bus."""
    queries = QueryService(store, index, sentiment_index)
    storage = StoreService(store)
    bindings = {
        "sentiment.counts": queries.counts,
        "sentiment.sentences": queries.sentences,
        "sentiment.subjects": queries.subjects,
        "search.query": queries.search,
        "store.get": storage.get,
        "store.stats": storage.stats,
    }
    for name, handler in bindings.items():
        bus.register(name, handler)
    return sorted(bindings)


def sentence_around(content: str, start: int, end: int) -> str:
    """Smallest period-bounded window around [start, end)."""
    lo = max(content.rfind(".", 0, start), content.rfind("!", 0, start), content.rfind("?", 0, start))
    lo = lo + 1 if lo >= 0 else 0
    his = [content.find(ch, end) for ch in ".!?"]
    his = [h for h in his if h >= 0]
    hi = min(his) + 1 if his else len(content)
    return content[lo:hi].strip()
