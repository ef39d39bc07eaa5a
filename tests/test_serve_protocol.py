"""Wire-format tests for repro.serve.protocol, with emphasis on the trace
headers: round-tripping, and the guarantee that malformed or oversized
``X-Trace-Id``/``X-Span-Id`` values are *ignored* — they must never turn
into a 500 or any other client-visible error.
"""

import asyncio
import http.client
import json

import pytest

from repro.serve import DiffServer, ServeConfig, ServerThread
from repro.serve.protocol import (
    HttpError,
    PROTOCOL,
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    dumps,
    extract_trace_context,
    inject_trace_headers,
    job_result_to_dict,
    parse_body,
    parse_request_line,
    parse_status_line,
    require_pair,
    tree_from_payload,
)

OLD_SEXPR = '(D (P (S "alpha one") (S "beta two")))'
NEW_SEXPR = '(D (P (S "beta two") (S "alpha one") (S "gamma three")))'


# ---------------------------------------------------------------------------
# Pure wire-format units
# ---------------------------------------------------------------------------
class TestFraming:
    def test_request_line_round_trip(self):
        assert parse_request_line(b"POST /v1/diff HTTP/1.1\r\n") == (
            "POST", "/v1/diff", "HTTP/1.1",
        )

    def test_request_line_strips_query(self):
        method, path, _ = parse_request_line(b"GET /metrics?pretty=1 HTTP/1.1\r\n")
        assert path == "/metrics"

    @pytest.mark.parametrize(
        "raw", [b"", b"GET\r\n", b"GET /x HTTP/2.0\r\n", b"a b c d\r\n"]
    )
    def test_bad_request_lines_are_400(self, raw):
        with pytest.raises(HttpError) as excinfo:
            parse_request_line(raw)
        assert excinfo.value.status == 400

    def test_status_line_parses(self):
        assert parse_status_line(b"HTTP/1.1 429 Too Many Requests\r\n") == 429

    @pytest.mark.parametrize("raw", [b"garbage\r\n", b"HTTP/1.1 abc\r\n"])
    def test_bad_status_lines_are_502(self, raw):
        with pytest.raises(HttpError) as excinfo:
            parse_status_line(raw)
        assert excinfo.value.status == 502

    def test_parse_body_rejects_non_objects(self):
        assert parse_body(b'{"a": 1}') == {"a": 1}
        for raw in (b"[1]", b"nope", b"\xff\xfe"):
            with pytest.raises(HttpError) as excinfo:
                parse_body(raw)
            assert excinfo.value.status == 400

    def test_require_pair_and_tree_payloads(self):
        old, new = require_pair({"old": OLD_SEXPR, "new": NEW_SEXPR})
        assert old.root is not None and new.root is not None
        with pytest.raises(HttpError):
            require_pair({"old": OLD_SEXPR})
        with pytest.raises(HttpError):
            tree_from_payload(42, "old")
        with pytest.raises(HttpError):
            tree_from_payload("(unbalanced", "old")

    def test_dumps_is_sorted(self):
        assert dumps({"b": 1, "a": 2}) == b'{"a": 2, "b": 1}'

    def test_http_error_body_carries_retry_after(self):
        body = HttpError(429, "busy", "later", retry_after=0.25).body()
        assert body == {
            "error": "busy", "message": "later",
            "protocol": PROTOCOL, "retry_after_s": 0.25,
        }


# ---------------------------------------------------------------------------
# Trace headers on the wire
# ---------------------------------------------------------------------------
class TestTraceHeaders:
    def test_round_trip_through_lowercased_wire_headers(self):
        out = inject_trace_headers({"content-type": "application/json"},
                                   "ab" * 8, "12" * 4)
        assert out[TRACE_ID_HEADER] == "ab" * 8
        assert out[SPAN_ID_HEADER] == "12" * 4
        # read_headers() lowercases names on receipt; extraction must agree.
        wire = {k.lower(): v for k, v in out.items()}
        assert extract_trace_context(wire) == ("ab" * 8, "12" * 4)

    @pytest.mark.parametrize(
        "tid",
        ["", "not-hex", "ABCZ", "0x1234", "g" * 16, "a" * 65, "12 34"],
    )
    def test_malformed_trace_ids_yield_no_context(self, tid):
        assert extract_trace_context({"x-trace-id": tid, "x-span-id": "ab" * 4}) is None

    def test_oversized_span_id_is_dropped_but_trace_kept(self):
        ctx = extract_trace_context(
            {"x-trace-id": "cd" * 8, "x-span-id": "a" * 33}
        )
        assert ctx == ("cd" * 8, None)

    def test_uppercase_ids_normalize_to_lowercase(self):
        ctx = extract_trace_context({"x-trace-id": "AB" * 8})
        assert ctx == ("ab" * 8, None)


class TestJobResultSerialization:
    def _result(self, trace_id=None):
        class FakeResult:
            pass

        r = FakeResult()
        r.job_id = "j1"
        r.status = "ok"
        r.source = "computed"
        r.operations = 3
        r.cost = 3.0
        r.wall_ms = 1.23456
        r.attempts = 1
        r.old_digest = "d0"
        r.new_digest = "d1"
        r.summary = {"INS": 2, "UPD": 1}
        r.stage_ms = {"match": 0.5}
        r.error = None
        r.verified = None
        r.script = None
        if trace_id is not None:
            r.trace_id = trace_id
        return r

    def test_trace_id_present_only_when_traced(self):
        plain = job_result_to_dict(self._result())
        assert "trace_id" not in plain
        traced = job_result_to_dict(self._result(trace_id="ab" * 8))
        assert traced["trace_id"] == "ab" * 8
        # Either way the body stays deterministically serializable.
        json.loads(dumps(traced))


# ---------------------------------------------------------------------------
# A live server must shrug off hostile trace headers — never a 500.
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    config = ServeConfig(port=0, workers=2, queue_capacity=4,
                         deadline_ms=10_000.0, trace_fraction=0.0)
    with ServerThread(DiffServer(config)) as handle:
        yield handle


def raw_diff(server, extra_headers):
    body = json.dumps({"old": OLD_SEXPR, "new": NEW_SEXPR}).encode()
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
    try:
        headers = {"Content-Type": "application/json", **extra_headers}
        conn.request("POST", "/v1/diff", body=body, headers=headers)
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


class TestLiveTraceHeaders:
    @pytest.mark.parametrize(
        "tid",
        ["not-hex-at-all", "ZZZZ", "a" * 4096, "", "0x" + "ab" * 7, "{};--"],
    )
    def test_malformed_trace_header_is_ignored_not_500(self, server, tid):
        status, headers, payload = raw_diff(server, {"X-Trace-Id": tid})
        assert status == 200
        assert payload["status"] == "ok"
        # The bogus id is neither echoed nor recorded.
        assert "X-Trace-Id" not in headers
        assert "trace_id" not in payload

    def test_oversized_span_header_is_ignored_not_500(self, server):
        status, _, payload = raw_diff(
            server, {"X-Trace-Id": "ab" * 8, "X-Span-Id": "f" * 500}
        )
        assert status == 200
        assert payload["status"] == "ok"
        # A valid trace id still wins even with a junk span id.
        assert payload["trace_id"] == "ab" * 8

    def test_valid_inbound_trace_is_honored_even_at_fraction_zero(self, server):
        tid = "0123456789abcdef"
        status, headers, payload = raw_diff(
            server, {"X-Trace-Id": tid, "X-Span-Id": "ee" * 4}
        )
        assert status == 200
        assert headers["X-Trace-Id"] == tid
        assert payload["trace_id"] == tid
        # The spans are queryable on the worker's debug endpoint, parented
        # under the caller's span.
        view = fetch_trace(server, tid)
        assert view["complete"] is True
        names = {span["name"] for span in view["spans"]}
        assert {"worker", "admission", "engine"} <= names
        roots = [s for s in view["spans"] if s["parent"] == "ee" * 4]
        assert [s["name"] for s in roots] == ["worker"]

    def test_trace_endpoint_rejects_bad_ids_with_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            conn.request("GET", "/v1/trace/not-a-trace!")
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"] == "bad_trace_id"
        finally:
            conn.close()

    def test_trace_endpoint_404s_unknown_ids(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            conn.request("GET", "/v1/trace/" + "77" * 8)
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 404
            assert body["error"] == "unknown_trace"
        finally:
            conn.close()


def fetch_trace(server, trace_id):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
    try:
        conn.request("GET", f"/v1/trace/{trace_id}")
        response = conn.getresponse()
        assert response.status == 200
        return json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Async framing helpers (exercised without a socket)
# ---------------------------------------------------------------------------
class TestAsyncFraming:
    def test_read_headers_lowercases(self):
        from repro.serve.protocol import read_headers

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"X-Trace-Id: AB\r\nContent-Length: 3\r\n\r\n")
            reader.feed_eof()
            return await read_headers(reader)

        assert asyncio.run(run()) == {"x-trace-id": "AB", "content-length": "3"}

    def test_body_framing_errors(self):
        from repro.serve.protocol import read_content_length_body

        async def run(headers):
            reader = asyncio.StreamReader()
            reader.feed_data(b"abc")
            reader.feed_eof()
            return await read_content_length_body(reader, headers, 10)

        with pytest.raises(HttpError) as excinfo:
            asyncio.run(run({}))
        assert excinfo.value.status == 411
        with pytest.raises(HttpError) as excinfo:
            asyncio.run(run({"content-length": "999"}))
        assert excinfo.value.status == 413
        with pytest.raises(HttpError) as excinfo:
            asyncio.run(run({"content-length": "-1"}))
        assert excinfo.value.status == 400
        with pytest.raises(HttpError) as excinfo:
            asyncio.run(run({"transfer-encoding": "chunked"}))
        assert excinfo.value.status == 501
        assert asyncio.run(run({"content-length": "3"})) == b"abc"

    def test_peer_closing_unanswered_is_an_incomplete_read(self):
        # Supervisor health checks catch this (and OSError/timeouts) as
        # "unhealthy"; a malformed-status HttpError would escape them.
        from repro.serve.protocol import fetch_json

        async def run():
            async def hang_up(reader, writer):
                await reader.readline()
                writer.close()

            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                await fetch_json("127.0.0.1", port, "/healthz", timeout=5.0)
            finally:
                server.close()
                await server.wait_closed()

        with pytest.raises(asyncio.IncompleteReadError):
            asyncio.run(run())

    def test_response_cut_off_in_its_headers_is_an_incomplete_read(self):
        # A worker dying after its status line must not read as a 200 with
        # an empty body: the router fails such a request over instead.
        from repro.serve.protocol import exchange

        async def run():
            async def cut_off(reader, writer):
                await reader.readline()
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(cut_off, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                await exchange("127.0.0.1", port, "POST", "/v1/diff", {}, b"{}", 5.0)
            finally:
                server.close()
                await server.wait_closed()

        with pytest.raises(asyncio.IncompleteReadError):
            asyncio.run(run())
