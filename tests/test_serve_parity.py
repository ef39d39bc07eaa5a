"""The simulator and production answer the same request bytes alike.

Each case sends identical raw request bytes to a live ``ServerThread``
over a socket and to a simulated worker (framed by the same protocol
helpers, handled inline). Status, ``error`` code and ``Retry-After`` must
agree: the simulator drives the production worker core, not a copy.
"""

import asyncio
import http.client
import json
import socket

import pytest

from repro.serve import ServeConfig, ServerThread
from repro.serve.protocol import parse_request_line, read_content_length_body, read_headers
from repro.simtest.clock import SimClock
from repro.simtest.events import EventLog
from repro.simtest.scenario import Scenario, SimWorker, run_inline

PAIR = {"old": '(D (P (S "alpha")))', "new": '(D (P (S "alpha") (S "beta")))'}


def post(path: str, payload) -> bytes:
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: parity\r\nX-Client-Id: parity\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


#: case -> (raw request, server condition)
CASES = {
    "bad_json": (post("/v1/diff", b"{not json"), None),
    "missing_old": (post("/v1/diff", {"new": PAIR["new"]}), None),
    "unknown_route": (b"GET /v2/nowhere HTTP/1.1\r\nHost: parity\r\n\r\n", None),
    "wrong_method": (b"GET /v1/diff HTTP/1.1\r\nHost: parity\r\n\r\n", None),
    "queue_full": (post("/v1/diff", PAIR), "queue_full"),
    "draining": (post("/v1/diff", PAIR), "draining"),
    "deadline": (post("/v1/diff", {**PAIR, "deadline_ms": 1e-6}), None),
}


def apply_condition(server, condition) -> None:
    if condition == "queue_full":
        assert server.admission.try_admit("holder").admitted  # capacity is 1
    elif condition == "draining":
        server.lifecycle.draining = True


def live_answer(raw: bytes, condition):
    with ServerThread(ServeConfig(port=0, workers=1, queue_capacity=1)) as handle:
        apply_condition(handle.server, condition)
        with socket.create_connection(("127.0.0.1", handle.port), timeout=10.0) as sock:
            sock.sendall(raw)
            response = http.client.HTTPResponse(sock)
            response.begin()
            payload = json.loads(response.read())
        handle.server.lifecycle.draining = False
        if condition == "queue_full":
            handle.server.admission.release()
    return response.status, payload.get("error"), response.getheader("Retry-After")


def frame(raw: bytes):
    """Split raw bytes into (method, path, headers, body) with the server's framing."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        method, path, _ = parse_request_line(await reader.readline())
        headers = await read_headers(reader)
        body = b""
        if method == "POST":
            body = await read_content_length_body(reader, headers, 1 << 20)
        return method, path, headers, body

    return asyncio.run(read())


def sim_answer(raw: bytes, condition):
    spec = Scenario(name="parity", queue_capacity=1, service_time=0.5)
    worker = SimWorker("w0", spec, SimClock(), None, EventLog())
    apply_condition(worker.server, condition)
    status, payload, headers = run_inline(worker.server.handle(*frame(raw)))
    return status, payload.get("error"), headers.get("Retry-After")


@pytest.mark.parametrize("case", sorted(CASES))
def test_sim_worker_answers_like_production(case):
    raw, condition = CASES[case]
    live = live_answer(raw, condition)
    assert live == sim_answer(raw, condition)
    assert live[0] >= 400  # every case is a refusal of some kind
