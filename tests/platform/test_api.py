"""The v1 envelope schema and opaque-cursor contract."""

import pytest

from repro.platform.api import (
    API_VERSION,
    ERR_BAD_REQUEST,
    ERROR_CODES,
    CursorError,
    decode_cursor,
    encode_cursor,
    error_envelope,
    make_meta,
    ok_envelope,
    paginate,
    validate_envelope,
)


class TestEnvelopes:
    def test_ok_envelope_shape(self):
        envelope = ok_envelope({"answer": 42})
        assert validate_envelope(envelope) == []
        assert envelope["api_version"] == API_VERSION
        assert envelope["ok"] is True
        assert envelope["data"] == {"answer": 42}
        assert envelope["error"] is None
        for key in ("degraded", "missing_shards", "shed", "cursor"):
            assert key in envelope["meta"]

    def test_error_envelope_shape(self):
        envelope = error_envelope(ERR_BAD_REQUEST, "nope")
        assert validate_envelope(envelope) == []
        assert envelope["ok"] is False
        assert envelope["data"] is None
        assert envelope["error"] == {"code": "bad_request", "message": "nope"}

    def test_unknown_error_code_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown error code"):
            error_envelope("whoops", "message")

    def test_every_registered_code_constructs(self):
        for code in sorted(ERROR_CODES):
            assert validate_envelope(error_envelope(code, "m")) == []

    def test_meta_extras_survive_but_reserved_keys_always_present(self):
        meta = make_meta(degraded=True, missing_shards=[3, 1], latency=0.5)
        assert meta["missing_shards"] == [1, 3]
        assert meta["latency"] == 0.5
        envelope = ok_envelope({}, meta=meta)
        assert validate_envelope(envelope) == []

    def test_validate_catches_missing_keys(self):
        assert validate_envelope({"ok": True}) != []
        assert validate_envelope("not a dict") != []

    def test_validate_catches_inconsistent_ok_error(self):
        bad = ok_envelope({})
        bad["error"] = {"code": "bad_request", "message": "x"}
        assert any("error: null" in p for p in validate_envelope(bad))
        bad = error_envelope(ERR_BAD_REQUEST, "x")
        bad["data"] = {"leak": True}
        assert any("data: null" in p for p in validate_envelope(bad))

    def test_validate_catches_malformed_meta(self):
        envelope = ok_envelope({})
        envelope["meta"] = {"degraded": "yes"}
        problems = validate_envelope(envelope)
        assert any("degraded" in p for p in problems)
        assert any("missing reserved key" in p for p in problems)


class TestCursors:
    def test_round_trip(self):
        token = encode_cursor({"o": "subjects", "k": [-3, "nr70"]})
        assert decode_cursor(token) == {"o": "subjects", "k": [-3, "nr70"]}

    def test_deterministic_encoding(self):
        a = encode_cursor({"k": 1, "o": "search"})
        b = encode_cursor({"o": "search", "k": 1})
        assert a == b  # key order never leaks into the token

    def test_garbage_rejected(self):
        with pytest.raises(CursorError):
            decode_cursor("@@@not a cursor@@@")
        with pytest.raises(CursorError):
            decode_cursor("")
        with pytest.raises(CursorError):
            decode_cursor(None)

    def test_non_object_body_rejected(self):
        token = encode_cursor({"o": "x", "k": 1})
        # A token whose body is valid JSON but not an object.
        import base64

        bad = base64.urlsafe_b64encode(b"[1,2,3]").decode().rstrip("=")
        with pytest.raises(CursorError, match="object"):
            decode_cursor(bad)
        assert decode_cursor(token)["o"] == "x"


class TestPaginate:
    ITEMS = ["a", "b", "c", "d", "e"]

    def walk(self, items, limit, kind="test"):
        pages = []
        cursor = None
        while True:
            page, cursor = paginate(
                items, limit=limit, cursor=cursor, kind=kind, sort_key=lambda x: x
            )
            pages.append(page)
            if cursor is None:
                break
        return pages

    def test_pages_partition_the_list(self):
        pages = self.walk(self.ITEMS, 2)
        assert pages == [["a", "b"], ["c", "d"], ["e"]]

    def test_limit_none_returns_everything(self):
        page, cursor = paginate(
            self.ITEMS, limit=None, cursor=None, kind="t", sort_key=lambda x: x
        )
        assert page == self.ITEMS and cursor is None

    def test_exact_fit_has_no_trailing_cursor(self):
        page, cursor = paginate(
            self.ITEMS, limit=5, cursor=None, kind="t", sort_key=lambda x: x
        )
        assert page == self.ITEMS and cursor is None

    def test_kind_mismatch_rejected(self):
        _, cursor = paginate(
            self.ITEMS, limit=2, cursor=None, kind="subjects", sort_key=lambda x: x
        )
        with pytest.raises(CursorError, match="not"):
            paginate(
                self.ITEMS, limit=2, cursor=cursor, kind="search", sort_key=lambda x: x
            )

    def test_cursor_is_positional_not_offset(self):
        # Take a page, then *grow* the list before resuming — exactly
        # what a segment merge that surfaces no new equal-key rows looks
        # like.  The cursor keys on the last served sort position, so
        # resumption never re-serves or skips existing rows.
        _, cursor = paginate(
            self.ITEMS, limit=2, cursor=None, kind="t", sort_key=lambda x: x
        )
        grown = self.ITEMS + ["f", "g"]
        page, _ = paginate(
            grown, limit=3, cursor=cursor, kind="t", sort_key=lambda x: x
        )
        assert page == ["c", "d", "e"]

    def test_tuple_sort_keys_round_trip(self):
        items = [("nr70", 3), ("g3", 2), ("elph", 2)]
        ranked = sorted(items, key=lambda kv: (-kv[1], kv[0]))
        key = lambda kv: (-kv[1], kv[0])  # noqa: E731
        first, cursor = paginate(
            ranked, limit=1, cursor=None, kind="s", sort_key=key
        )
        rest, end = paginate(ranked, limit=10, cursor=cursor, kind="s", sort_key=key)
        assert first == [("nr70", 3)]
        assert rest == [("elph", 2), ("g3", 2)]
        assert end is None
