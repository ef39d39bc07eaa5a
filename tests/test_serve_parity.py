"""The simulator and production answer and supervise alike.

Each request case sends identical raw request bytes to a live
``ServerThread`` over a socket and to a simulated worker (framed by the
same protocol helpers, handled inline). Status, ``error`` code and
``Retry-After`` must agree: the simulator drives the production worker
core, not a copy.

The membership cases hold the simulated cluster to production's
supervision policy: suspect feedback, restart backoff and ``/healthz``.
"""

import asyncio
import http.client
import json
import socket

import pytest

from repro.serve import (
    ClusterConfig,
    ClusterServer,
    DiffServer,
    HashRing,
    ServeConfig,
    ServerThread,
)
from repro.serve.protocol import parse_request_line, read_content_length_body, read_headers
from repro.simtest.clock import SimClock
from repro.simtest.events import EventLog
from repro.simtest.faults import Fault, FaultPlan
from repro.simtest.scenario import (
    Scenario,
    SimCluster,
    SimWorker,
    Step,
    run_inline,
    run_scenario,
)

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
    with ServerThread(DiffServer(ServeConfig(port=0, workers=1, queue_capacity=1))) as handle:
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
    run_inline(worker.spawn())
    apply_condition(worker.server, condition)
    status, payload, headers = run_inline(worker.server.handle(*frame(raw)))
    return status, payload.get("error"), headers.get("Retry-After")


@pytest.mark.parametrize("case", sorted(CASES))
def test_sim_worker_answers_like_production(case):
    raw, condition = CASES[case]
    live = live_answer(raw, condition)
    assert live == sim_answer(raw, condition)
    assert live[0] >= 400  # every case is a refusal of some kind


# ---------------------------------------------------------------------------
# Membership: the sim follows production's supervision policy
# ---------------------------------------------------------------------------
TICK = ClusterConfig.health_interval


def doc_owned_by(worker_id: str, workers: int = 3, replicas: int = 16) -> str:
    """A document name whose affinity key the ring assigns to *worker_id*."""
    ring = HashRing(replicas=replicas)
    for index in range(workers):
        ring.add(f"w{index}")
    return next(
        doc for doc in (f"doc-{i}" for i in range(1000)) if ring.assign(doc) == worker_id
    )


def test_failover_from_live_worker_pulls_it_until_the_next_tick(forbid_real_sleep):
    # One refused connection to a healthy w0: the router fails over and
    # suspects w0, which leaves the ring at once and rejoins once the next
    # health tick (t=0.5) finds it healthy.
    doc = doc_owned_by("w0")
    spec = Scenario(
        name="suspect",
        workers=3,
        replicas=16,
        steps=[Step(at, "request", {"doc": doc}) for at in (0.1, 0.2, 0.6)],
        plan=FaultPlan(faults=[Fault(point="conn_refused", at=0.1, target="w0")]),
        invariants=("convergence",),
    )
    result = run_scenario(spec)
    assert result.ok, result.violations
    served_by = [record.worker for record in result.records]
    assert served_by[0] != "w0" and served_by[1] != "w0"
    assert served_by[2] == "w0"
    downs = result.log.of_kind("worker_down")
    assert [(e["worker"], e["state"]) for e in downs] == [("w0", "suspect")]


def test_restart_backoff_resets_after_a_successful_restart(forbid_real_sleep):
    # Three crashes of w0, each after the previous restart came up. With a
    # reset backoff every restart lands on the tick after the detection;
    # without it the third backoff (4x base) would skip a tick.
    spec = Scenario(
        name="backoff",
        workers=2,
        steps=[Step(at, "kill", {"worker": "w0"}) for at in (0.1, 2.1, 4.1)],
        invariants=(),
    )
    result = run_scenario(spec)
    assert result.ok, result.violations
    downs = [e["t"] for e in result.log.of_kind("worker_down") if e["worker"] == "w0"]
    ups = [
        e["t"] for e in result.log.of_kind("worker_up")
        if e["worker"] == "w0" and e["incarnation"] > 0
    ]
    assert len(downs) == len(ups) == 3
    assert [up - down for down, up in zip(downs, ups)] == [TICK] * 3
    assert ClusterConfig.backoff_base <= TICK


def test_healthz_reports_down_with_zero_live_workers(forbid_real_sleep):
    live = ClusterServer(ClusterConfig(port=0, workers=2))  # nothing spawned
    live_status, live_payload, _ = asyncio.run(
        live.router.handle("GET", "/healthz", {}, b"")
    )

    clock = SimClock()
    sim = SimCluster(Scenario(name="healthz", workers=2), clock, None, EventLog())
    sim.kill("w0")
    sim.kill("w1")
    clock.sleep(TICK)  # the health tick notices both
    sim_status, sim_payload, _ = sim.request("GET", "/healthz", {}, b"")

    assert live_status == sim_status == 200
    assert live_payload["status"] == sim_payload["status"] == "down"
    assert live_payload["workers_up"] == sim_payload["workers_up"] == 0
    assert set(live_payload) == set(sim_payload)
