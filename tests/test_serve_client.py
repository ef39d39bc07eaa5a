"""Unit tests for the retrying client (repro.serve.client).

The retry policy is exercised against an in-memory scripted transport
under a :class:`~repro.simtest.clock.SimClock` — backoff waits advance
virtual time instead of blocking, so every schedule assertion is
deterministic and the tests spend zero wall-clock time sleeping. A real
stdlib HTTP stub is kept only for the tests where the wire format itself
(headers, body framing, keep-alive) is the thing under test.
"""

import http.server
import json
import random
import threading

import pytest

from repro.serve.client import DiffServiceClient, ServiceError
from repro.simtest.clock import SimClock


class ScriptedStub:
    """Serves a fixed sequence of (status, headers, body) responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []  # (method, path, decoded body, headers) per request
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _serve(self):
                length = int(self.headers.get("Content-Length", 0) or 0)
                raw = self.rfile.read(length) if length else b""
                stub.requests.append(
                    (
                        self.command,
                        self.path,
                        json.loads(raw) if raw else None,
                        dict(self.headers),
                    )
                )
                status, headers, body = (
                    stub.responses.pop(0)
                    if stub.responses
                    else (200, {}, {"ok": True})
                )
                data = json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            do_GET = do_POST = _serve

            def log_message(self, *_args):
                pass

        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            # The tight poll keeps shutdown() latency out of the suite.
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02},
            daemon=True,
        )
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub_factory():
    stubs = []

    def make(responses):
        stub = ScriptedStub(responses)
        stubs.append(stub)
        return stub

    yield make
    for stub in stubs:
        stub.close()


def make_client(port, **overrides):
    options = dict(
        port=port,
        retries=3,
        backoff_base=0.1,
        backoff_cap=2.0,
        timeout=5.0,
        clock=SimClock(),  # backoff waits are virtual, never real
        rng=random.Random(42),
    )
    options.update(overrides)
    return DiffServiceClient(**options)


class ScriptedClient(DiffServiceClient):
    """The production retry loop over an in-memory scripted transport.

    Each entry is either ``(status, headers, body)`` or an exception
    instance to raise; an exhausted script answers 200. ``request_once``
    is the only thing replaced — the policy under test is untouched.
    """

    def __init__(self, responses, **overrides):
        self.clock = SimClock()
        options = dict(
            port=0,
            retries=3,
            backoff_base=0.1,
            backoff_cap=2.0,
            clock=self.clock,  # backoff advances virtual time
            rng=random.Random(42),
        )
        options.update(overrides)
        super().__init__(**options)
        self.responses = list(responses)
        self.calls = []  # (method, path, payload) per attempt

    def request_once(self, method, path, payload=None):
        self.calls.append((method, path, payload))
        entry = self.responses.pop(0) if self.responses else (200, {}, {"ok": True})
        if isinstance(entry, Exception):
            raise entry
        status, headers, body = entry
        return status, dict(body), dict(headers)


class TestRetryPolicy:
    def test_success_needs_no_retry(self):
        client = ScriptedClient([(200, {}, {"answer": 7})])
        assert client.request("GET", "/healthz") == {"answer": 7}
        assert client.sleeps == []
        assert client.clock.elapsed == 0.0

    def test_429_retried_until_success(self):
        client = ScriptedClient(
            [(429, {}, {"error": "queue_full"})] * 2 + [(200, {}, {"done": True})]
        )
        assert client.request("POST", "/v1/diff", {"x": 1}) == {"done": True}
        assert len(client.sleeps) == 2
        assert len(client.calls) == 3
        # The waits really elapsed — on the virtual clock.
        assert client.clock.elapsed == pytest.approx(sum(client.sleeps))

    def test_retry_after_header_is_a_floor(self):
        client = ScriptedClient(
            [(429, {"Retry-After": "2"}, {"error": "queue_full"}), (200, {}, {})]
        )
        client.request("POST", "/v1/diff", {})
        # jitter alone would be < 0.2s on attempt 0; the server's ask wins
        assert client.sleeps[0] >= 2.0

    def test_retry_after_body_field_is_honored(self):
        client = ScriptedClient(
            [(429, {}, {"error": "queue_full", "retry_after_s": 0.75}), (200, {}, {})]
        )
        client.request("POST", "/v1/diff", {})
        assert client.sleeps[0] >= 0.75

    def test_server_cannot_park_the_client_forever(self):
        client = ScriptedClient(
            [(429, {"Retry-After": "3600"}, {"error": "queue_full"}), (200, {}, {})],
            max_retry_after=5.0,
        )
        client.request("POST", "/v1/diff", {})
        assert client.sleeps[0] <= 5.0

    def test_5xx_is_retried(self):
        client = ScriptedClient(
            [(503, {}, {"error": "draining"}), (200, {}, {"up": 1})]
        )
        assert client.request("GET", "/metrics") == {"up": 1}

    def test_hard_4xx_is_never_retried(self):
        client = ScriptedClient([(400, {}, {"error": "bad_tree", "message": "nope"})])
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/v1/diff", {})
        assert err.value.status == 400
        assert err.value.attempts == 1
        assert len(client.calls) == 1
        assert client.sleeps == []

    def test_retries_exhausted_raises_with_last_payload(self):
        client = ScriptedClient(
            [(429, {}, {"error": "queue_full"})] * 10, retries=2
        )
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/v1/diff", {})
        assert err.value.status == 429
        assert err.value.attempts == 3
        assert err.value.payload["error"] == "queue_full"
        assert len(client.calls) == 3  # initial + 2 retries
        assert len(client.sleeps) == 2  # no sleep after the last failure

    def test_backoff_is_capped_exponential_with_jitter(self):
        client = ScriptedClient(
            [(500, {}, {"error": "internal"})] * 6,
            retries=5, backoff_base=0.1, backoff_cap=0.5,
        )
        with pytest.raises(ServiceError):
            client.request("GET", "/healthz")
        assert len(client.sleeps) == 5
        for attempt, delay in enumerate(client.sleeps):
            assert 0.0 <= delay <= min(0.5, 0.1 * 2.0 ** attempt)
        # the cap binds eventually: no sleep exceeds it
        assert max(client.sleeps) <= 0.5

    def test_connection_refused_is_retried_then_raised(self):
        client = ScriptedClient(
            [ConnectionRefusedError(111, "Connection refused")] * 10,
            retries=2, connect_retries=0,
        )
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/healthz")
        assert err.value.status == 0
        assert err.value.payload["error"] == "connection"
        assert len(client.sleeps) == 2

    def test_connect_retries_budget_is_separate_and_flat(self):
        # refused connects draw on connect_retries first (flat base-jitter
        # sleeps), then on the main exponential budget
        client = ScriptedClient(
            [ConnectionRefusedError(111, "Connection refused")] * 10,
            retries=2, connect_retries=3, backoff_base=0.1,
        )
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/healthz")
        assert err.value.attempts == 1 + 3 + 2  # first + refused budget + retries
        assert len(client.sleeps) == 5
        # the refused-budget sleeps never escalate past the base window
        for delay in client.sleeps[:3]:
            assert 0.0 <= delay <= 0.1

    def test_connect_retries_recovers_mid_restart(self):
        # refused-then-up: the transparent budget hides a restart window
        client = ScriptedClient(
            [ConnectionRefusedError(111, "Connection refused")] * 2
            + [(200, {}, {"ok": True})],
            retries=0, connect_retries=4,
        )
        assert client.request("GET", "/healthz") == {"ok": True}
        assert len(client.sleeps) == 2  # one per refused connect

    def test_other_connection_errors_use_the_main_budget(self):
        client = ScriptedClient(
            [ConnectionResetError(104, "reset")] * 10,
            retries=2, connect_retries=5,
        )
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/healthz")
        # resets are NOT refused connects: the flat budget must not apply
        assert err.value.attempts == 3

    def test_jitter_schedule_is_deterministic_given_rng(self):
        responses = [(500, {}, {"error": "x"})] * 4
        a = ScriptedClient(list(responses), rng=random.Random(7))
        b = ScriptedClient(list(responses), rng=random.Random(7))
        with pytest.raises(ServiceError):
            a.request("GET", "/healthz")
        with pytest.raises(ServiceError):
            b.request("GET", "/healthz")
        assert a.sleeps == b.sleeps
        assert a.clock.elapsed == b.clock.elapsed


class TestWireTransport:
    """The real HTTP leg: framing, headers, and keep-alive behavior."""

    def test_retry_over_real_http(self, stub_factory):
        stub = stub_factory(
            [(429, {}, {"error": "queue_full"})] * 2 + [(200, {}, {"done": True})]
        )
        with make_client(stub.port) as client:
            assert client.request("POST", "/v1/diff", {"x": 1}) == {"done": True}
        assert len(client.sleeps) == 2
        assert len(stub.requests) == 3

    def test_connection_refused_against_a_dead_port(self):
        # a bound-then-closed socket yields a dead port nothing listens on
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with make_client(dead_port, retries=1, connect_retries=1) as client:
            with pytest.raises(ServiceError) as err:
                client.request("GET", "/healthz")
        assert err.value.payload["error"] == "connection"


class TestEndpointHelpers:
    def test_diff_payload_shape(self, stub_factory):
        stub = stub_factory([(200, {}, {"status": "ok"})])
        from repro.core.serialization import tree_from_sexpr

        tree = tree_from_sexpr('(D (S "x"))')
        with make_client(stub.port) as client:
            client.diff(tree, '(D (S "y"))', deadline_ms=500, job_id="j1")
        method, path, body, _headers = stub.requests[0]
        assert (method, path) == ("POST", "/v1/diff")
        assert body["deadline_ms"] == 500
        assert body["id"] == "j1"
        assert body["old"]["label"] == "D"  # Tree serialized to the dict form
        assert body["new"] == '(D (S "y"))'  # strings pass through as sexprs

    def test_client_id_header_is_sent(self, stub_factory):
        stub = stub_factory([(200, {}, {})])
        with make_client(stub.port, client_id="tenant-9") as client:
            client.request("GET", "/healthz")
        headers = stub.requests[0][3]
        assert headers.get("X-Client-Id") == "tenant-9"

    def test_validation(self):
        with pytest.raises(ValueError):
            DiffServiceClient(retries=-1)
