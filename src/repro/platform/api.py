"""The versioned service API: one envelope schema for every response.

Every client-facing response in the platform — the hosted application
services (:mod:`.services`), the serving front door
(:mod:`.serving.router`), and ``repro serve --json`` — is one of two
shapes, both carrying ``api_version`` so clients can dispatch on schema:

success::

    {"api_version": "v1", "ok": true,  "data": {...}, "error": null,
     "meta": {"degraded": false, "missing_shards": [], "shed": false,
              "cursor": null, ...}}

failure::

    {"api_version": "v1", "ok": false, "data": null,
     "error": {"code": "bad_request", "message": "..."},
     "meta": {...}}

``meta`` always carries the four reserved keys (``degraded``,
``missing_shards``, ``shed``, ``cursor``); producers may add extra keys
(the router adds ``status``/``code``/``latency`` and friends) but may
never remove the reserved ones.  Lint rule PLAT003 enforces that
handlers build envelopes only through the constructors here — raw
``{"ok": ...}`` dict literals outside this module are a finding.

Cursors (:func:`encode_cursor` / :func:`decode_cursor`) are opaque to
clients but deterministic: the same query position always encodes to the
same string, and a cursor keys on the *sort position* of the last item
served (not an offset), so it stays valid across segment merges and
compactions that do not change the ranking.
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import Any

#: The one schema version currently served.
API_VERSION = "v1"

#: Envelope alias used in handler signatures (PLAT001 accepts it).
Envelope = dict[str, Any]

#: Machine-readable error codes (``error.code``).
ERR_BAD_REQUEST = "bad_request"
ERR_NOT_FOUND = "not_found"
ERR_BAD_CURSOR = "bad_cursor"
ERR_SHED = "shed"
ERR_DEADLINE = "deadline_expired"
ERR_UNAVAILABLE = "unavailable"

ERROR_CODES = frozenset(
    {
        ERR_BAD_REQUEST,
        ERR_NOT_FOUND,
        ERR_BAD_CURSOR,
        ERR_SHED,
        ERR_DEADLINE,
        ERR_UNAVAILABLE,
    }
)

#: Keys every ``meta`` object carries (producers may add more).
META_KEYS = ("degraded", "missing_shards", "shed", "cursor")

#: Top-level envelope keys, in canonical order.
ENVELOPE_KEYS = ("api_version", "ok", "data", "error", "meta")


class CursorError(ValueError):
    """An opaque cursor failed to decode (truncated, tampered, foreign)."""


def make_meta(
    *,
    degraded: bool = False,
    missing_shards: list[int] | tuple[int, ...] = (),
    shed: bool = False,
    cursor: str | None = None,
    **extra: Any,
) -> dict[str, Any]:
    """A ``meta`` object with the reserved keys always present."""
    meta: dict[str, Any] = {
        "degraded": bool(degraded),
        "missing_shards": sorted(missing_shards),
        "shed": bool(shed),
        "cursor": cursor,
    }
    meta.update(extra)
    return meta


def ok_envelope(data: Any, *, meta: dict[str, Any] | None = None) -> Envelope:
    """A v1 success envelope around *data*."""
    return {
        "api_version": API_VERSION,
        "ok": True,
        "data": data,
        "error": None,
        "meta": meta if meta is not None else make_meta(),
    }


def error_envelope(
    code: str, message: str, *, meta: dict[str, Any] | None = None
) -> Envelope:
    """A v1 failure envelope.

    Malformed *requests* are the client's fault, not the service's: they
    come back as envelopes instead of raising through the bus (which
    would consume retry budget on a call that can never succeed).
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}; add it to api.ERROR_CODES")
    return {
        "api_version": API_VERSION,
        "ok": False,
        "data": None,
        "error": {"code": code, "message": str(message)},
        "meta": meta if meta is not None else make_meta(),
    }


def validate_envelope(obj: Any) -> list[str]:
    """Schema violations in *obj* (empty list = a valid v1 envelope)."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"envelope must be a dict, got {type(obj).__name__}"]
    missing = [k for k in ENVELOPE_KEYS if k not in obj]
    if missing:
        problems.append(f"missing envelope keys: {missing}")
    if obj.get("api_version") != API_VERSION:
        problems.append(f"api_version must be {API_VERSION!r}, got {obj.get('api_version')!r}")
    ok = obj.get("ok")
    if not isinstance(ok, bool):
        problems.append(f"ok must be a bool, got {ok!r}")
    error = obj.get("error")
    if ok is True:
        if error is not None:
            problems.append("ok envelope must carry error: null")
    elif ok is False:
        if not isinstance(error, dict):
            problems.append("failure envelope must carry an error object")
        else:
            if error.get("code") not in ERROR_CODES:
                problems.append(f"unknown error code {error.get('code')!r}")
            if not isinstance(error.get("message"), str):
                problems.append("error.message must be a string")
        if obj.get("data") is not None:
            problems.append("failure envelope must carry data: null")
    meta = obj.get("meta")
    if not isinstance(meta, dict):
        problems.append(f"meta must be a dict, got {type(meta).__name__}")
    else:
        for key in META_KEYS:
            if key not in meta:
                problems.append(f"meta missing reserved key {key!r}")
        if "degraded" in meta and not isinstance(meta["degraded"], bool):
            problems.append("meta.degraded must be a bool")
        if "shed" in meta and not isinstance(meta["shed"], bool):
            problems.append("meta.shed must be a bool")
        if "missing_shards" in meta and not isinstance(meta["missing_shards"], list):
            problems.append("meta.missing_shards must be a list")
        cursor = meta.get("cursor")
        if cursor is not None and not isinstance(cursor, str):
            problems.append("meta.cursor must be a string or null")
    return problems


# -- opaque cursors -------------------------------------------------------------


def encode_cursor(payload: dict[str, Any]) -> str:
    """Serialise a cursor payload to an opaque URL-safe token.

    Deterministic: the JSON body is key-sorted and compact, so equal
    payloads always produce equal tokens (the byte-identical-report
    gates depend on this).
    """
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return base64.urlsafe_b64encode(body.encode("utf-8")).decode("ascii").rstrip("=")


def decode_cursor(token: str) -> dict[str, Any]:
    """Decode an opaque cursor token; raises :class:`CursorError` when invalid."""
    if not isinstance(token, str) or not token:
        raise CursorError(f"cursor must be a non-empty string, got {token!r}")
    padded = token + "=" * (-len(token) % 4)
    try:
        body = base64.urlsafe_b64decode(padded.encode("ascii"))
        payload = json.loads(body.decode("utf-8"))
    except (binascii.Error, UnicodeDecodeError, ValueError) as exc:
        raise CursorError(f"undecodable cursor {token!r}") from exc
    if not isinstance(payload, dict):
        raise CursorError(f"cursor body must be an object, got {payload!r}")
    return payload


def paginate(
    items: list[Any],
    *,
    limit: int | None,
    cursor: str | None,
    kind: str,
    sort_key: Any,
) -> tuple[list[Any], str | None]:
    """One page of an ordered result list plus the continuation cursor.

    *items* must already be in final deterministic order; *sort_key*
    maps an item to its comparable position key.  The cursor pins the
    sort key of the last item served, so the next page is "everything
    strictly after that key" — an index-free contract that survives
    segment merges and compactions (which never reorder equal keys).
    ``None`` is returned for the cursor when the page exhausts the list.
    """
    start = 0
    if cursor is not None:
        payload = decode_cursor(cursor)
        if payload.get("o") != kind:
            raise CursorError(
                f"cursor is for {payload.get('o')!r} results, not {kind!r}"
            )
        if "k" not in payload:
            raise CursorError("cursor missing position key")
        last_key = payload["k"]
        # JSON round-trips tuples as lists; normalise for comparison.
        normalised = _as_key(last_key)
        while start < len(items) and _as_key(sort_key(items[start])) <= normalised:
            start += 1
    if limit is None:
        page = items[start:]
    else:
        page = items[start : start + limit]
    next_cursor: str | None = None
    if page and start + len(page) < len(items):
        next_cursor = encode_cursor({"o": kind, "k": _as_key(sort_key(page[-1]))})
    return page, next_cursor


def _as_key(key: Any) -> Any:
    """Normalise tuple/list sort keys so JSON round-trips compare equal."""
    if isinstance(key, (list, tuple)):
        return [_as_key(part) for part in key]
    return key
