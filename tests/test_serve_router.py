"""Unit tests for the cluster routing layer (repro.serve.router).

Pure-function coverage: the consistent-hash ring's stability/minimal-
movement contract, affinity-key precedence (and the client header that
sets it), and the
snapshot-level metrics merge the aggregate ``/metrics`` endpoint uses.
The keep-alive socket leg is tested against an in-process
``asyncio.start_server`` fake worker; no subprocesses — the
process-level behavior lives in ``test_serve_cluster.py``.
"""

import asyncio
import hashlib
import json

import pytest

from repro.serve.client import DiffServiceClient
from repro.serve.cluster import ClusterConfig, ClusterServer
from repro.serve.lifecycle import Lifecycle
from repro.serve.protocol import read_headers
from repro.serve.router import (
    MAX_IDLE_PER_WORKER,
    HashRing,
    Router,
    affinity_key,
    hash_key,
)
from repro.service.metrics import ServiceMetrics, merge_snapshots

KEYS = [f"doc-{n}" for n in range(2000)]


def assignments(ring, keys=KEYS):
    return {key: ring.assign(key) for key in keys}


def make_ring(worker_ids, replicas=64):
    ring = HashRing(replicas=replicas)
    for worker_id in worker_ids:
        ring.add(worker_id)
    return ring


class TestHashRing:
    def test_assignment_is_stable(self):
        a = make_ring(["w0", "w1", "w2"])
        b = make_ring(["w2", "w0", "w1"])  # insertion order must not matter
        assert assignments(a) == assignments(b)
        # and repeated queries agree with themselves
        assert assignments(a) == assignments(a)

    def test_distribution_is_roughly_balanced(self):
        ring = make_ring(["w0", "w1", "w2", "w3"])
        counts = {}
        for owner in assignments(ring).values():
            counts[owner] = counts.get(owner, 0) + 1
        assert set(counts) == {"w0", "w1", "w2", "w3"}
        # virtual nodes keep the arcs coarse-grained fair: no worker owns
        # more than twice its fair share of 2000 keys
        assert max(counts.values()) < 2 * (len(KEYS) / 4)

    def test_removal_moves_only_the_lost_workers_keys(self):
        ring = make_ring(["w0", "w1", "w2"])
        before = assignments(ring)
        ring.remove("w2")
        after = assignments(ring)
        moved = [key for key in KEYS if before[key] != after[key]]
        # the minimal-movement property: exactly w2's keys were reassigned
        assert moved == [key for key in KEYS if before[key] == "w2"]
        assert all(after[key] in ("w0", "w1") for key in moved)

    def test_rejoin_restores_the_original_assignment(self):
        ring = make_ring(["w0", "w1", "w2"])
        before = assignments(ring)
        ring.remove("w2")
        ring.add("w2")
        assert assignments(ring) == before

    def test_add_and_remove_are_idempotent(self):
        ring = make_ring(["w0", "w1"])
        before = assignments(ring)
        ring.add("w0")
        assert assignments(ring) == before
        assert len(ring) == 2
        ring.remove("missing")
        assert assignments(ring) == before

    def test_assign_chain_is_the_failover_order(self):
        ring = make_ring(["w0", "w1", "w2"])
        for key in KEYS[:50]:
            chain = ring.assign_chain(key)
            assert chain[0] == ring.assign(key)
            assert sorted(chain) == ["w0", "w1", "w2"]  # all distinct members
            # the second entry is exactly who inherits the key if the
            # first leaves the ring
            survivor = make_ring(["w0", "w1", "w2"])
            survivor.remove(chain[0])
            assert survivor.assign(key) == chain[1]

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.assign("anything") is None
        assert ring.assign_chain("anything") == []
        assert len(ring) == 0
        assert "w0" not in ring

    def test_replicas_validated(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)

    def test_hash_key_is_content_based(self):
        assert hash_key("doc-1") == hash_key("doc-1")
        assert hash_key("doc-1") != hash_key("doc-2")


class TestAffinityKey:
    def test_header_wins(self):
        body = json.dumps({"id": "from-body"}).encode()
        key = affinity_key("/v1/diff", {"x-affinity-key": "from-header"}, body)
        assert key == "from-header"

    def test_body_id_does_not_change_the_key(self):
        # The router hashes bodies; it never decodes one to find a job id.
        body = json.dumps({"id": "job-42", "old": "x"}).encode()
        assert affinity_key("/v1/diff", {}, body) == hashlib.sha1(body).hexdigest()

    def test_client_sends_job_id_as_affinity_header(self):
        sent = []

        class Reply:
            status = 200
            headers = {}

            def read(self):
                return b"{}"

        class RecordingConnection:
            def request(self, method, path, body=None, headers=None):
                sent.append(headers)

            def getresponse(self):
                return Reply()

        class RecordingClient(DiffServiceClient):
            def _connection(self):
                return RecordingConnection()

        client = RecordingClient(port=0)
        client.diff('(D (S "a"))', '(D (S "b"))', job_id="job-42")
        client.diff('(D (S "a"))', '(D (S "b"))')
        assert sent[0]["X-Affinity-Key"] == "job-42"
        assert "X-Affinity-Key" not in sent[1]

    def test_identical_bodies_share_a_key(self):
        body = json.dumps({"old": "(D)", "new": "(D (S \"a\"))"}).encode()
        a = affinity_key("/v1/diff", {}, body)
        b = affinity_key("/v1/diff", {}, bytes(body))
        assert a == b
        other = json.dumps({"old": "(D)", "new": "(D)"}).encode()
        assert affinity_key("/v1/diff", {}, other) != a

    def test_malformed_json_falls_back_to_body_hash(self):
        body = b'{"id": not-json'
        key = affinity_key("/v1/diff", {}, body)
        assert key == affinity_key("/v1/diff", {}, body)  # still deterministic

    def test_too_deep_json_falls_back_to_body_hash(self):
        body = b'{"id": 1, "old": ' + b"[" * 3000 + b"]" * 3000 + b"}"
        assert affinity_key("/v1/diff", {}, body) == affinity_key("/v1/diff", {}, body)

    def test_empty_body_hashes_the_path(self):
        assert affinity_key("/v1/close", {}, b"") != affinity_key("/v1/diff", {}, b"")


class TestMergeSnapshots:
    @staticmethod
    def _snapshot(jobs, wall_count, wall_mean, cache_hits=0):
        metrics = ServiceMetrics()
        for _ in range(jobs):
            metrics.incr("jobs_submitted")
        snap = metrics.snapshot()
        snap["wall_time"] = {
            "count": wall_count, "mean_ms": wall_mean, "p50_ms": wall_mean,
            "p95_ms": wall_mean, "p99_ms": wall_mean, "max_ms": wall_mean,
        }
        snap["cache"] = {"hits": cache_hits, "misses": 0, "evictions": 0,
                        "size": 0, "capacity": 8}
        return snap

    def test_counters_sum(self):
        merged = merge_snapshots(
            {"w0": self._snapshot(3, 0, 0.0), "w1": self._snapshot(5, 0, 0.0)}
        )
        assert merged["counters"]["jobs_submitted"] == 8

    def test_wall_time_merges_count_weighted(self):
        merged = merge_snapshots(
            {
                "w0": self._snapshot(0, 1, 10.0),
                "w1": self._snapshot(0, 3, 20.0),
            }
        )
        wall = merged["wall_time"]
        assert wall["count"] == 4
        assert wall["mean_ms"] == pytest.approx(17.5)  # (1*10 + 3*20) / 4
        assert wall["max_ms"] == 20.0

    def test_cache_fields_sum(self):
        merged = merge_snapshots(
            {
                "w0": self._snapshot(0, 0, 0.0, cache_hits=2),
                "w1": self._snapshot(0, 0, 0.0, cache_hits=4),
            }
        )
        assert merged["cache"]["hits"] == 6

    def test_workers_are_tagged(self):
        snapshots = {"w1": self._snapshot(1, 0, 0.0), "w0": self._snapshot(2, 0, 0.0)}
        merged = merge_snapshots(snapshots)
        assert list(merged["workers"]) == ["w0", "w1"]  # sorted, inspectable
        assert merged["workers"]["w0"]["counters"]["jobs_submitted"] == 2

    def test_verify_failure_poisons_the_merge(self):
        bad = self._snapshot(0, 0, 0.0)
        bad["verify"] = {"ok": False, "oracles": {"oracle_a": {"pass": 1, "fail": 2}}}
        good = self._snapshot(0, 0, 0.0)
        good["verify"] = {"ok": True, "oracles": {"oracle_a": {"pass": 4, "fail": 0}}}
        merged = merge_snapshots({"w0": bad, "w1": good})
        assert merged["verify"]["ok"] is False
        assert merged["verify"]["oracles"]["oracle_a"] == {"pass": 5, "fail": 2}

    def test_empty_merge(self):
        merged = merge_snapshots({})
        assert merged["counters"] == {}
        assert merged["wall_time"]["count"] == 0
        assert merged["cache"] is None


class FakeWorker:
    """An in-process upstream that echoes each request body as its response.

    ``close_after_reply`` hangs up after each answer without saying so (a
    worker's post-drain idle-socket cleanup); ``say_close`` answers with
    ``Connection: close`` but keeps reading; ``delay_first`` holds the
    first answer back that many seconds. :meth:`drain` stops listening
    and answers every later request on an open connection as a draining
    worker does: 503 ``draining`` with ``Connection: close``.
    """

    def __init__(self, close_after_reply=False, say_close=False, delay_first=0.0):
        self.close_after_reply = close_after_reply
        self.say_close = say_close
        self.delay_first = delay_first
        self.connections = 0  # accepted so far
        self.open = 0  # accepted and not yet closed
        self.bodies = []  # request bodies, in arrival order
        self.draining = False
        self.port = None
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self):
        self._server.close()
        await self._server.wait_closed()

    def drain(self):
        self.draining = True
        self._server.close()

    async def wait_open(self, count=0, timeout=5.0):
        """Wait until exactly *count* accepted connections are still open."""
        for _ in range(int(timeout / 0.01)):
            if self.open == count:
                return
            await asyncio.sleep(0.01)
        raise AssertionError(f"{self.open} upstream connection(s) open, not {count}")

    async def _serve(self, reader, writer):
        self.connections += 1
        self.open += 1
        try:
            while await reader.readline():
                headers = await read_headers(reader)
                body = await reader.readexactly(int(headers["content-length"]))
                self.bodies.append(body)
                if self.delay_first and len(self.bodies) == 1:
                    await asyncio.sleep(self.delay_first)
                status = "200 OK"
                if self.draining:
                    status, body = "503 Service Unavailable", b'{"error": "draining"}'
                head = f"HTTP/1.1 {status}\r\nContent-Length: {len(body)}\r\n"
                if self.say_close or self.draining:
                    head += "Connection: close\r\n"
                writer.write(head.encode("latin-1") + b"\r\n" + body)
                await writer.drain()
                if self.close_after_reply or self.draining:
                    break
        except ConnectionError:
            pass  # the router discarded this socket
        finally:
            self.open -= 1
            writer.close()


def make_router(ports, **overrides):
    """A router over *ports* whose backend-failure reports land in a list."""
    failures = []
    ring = HashRing()
    for worker_id in ports:
        ring.add(worker_id)
    router = Router(
        ring=ring,
        ports=dict(ports),
        lifecycle=Lifecycle(),
        health_payload=dict,
        merge_metrics=lambda snapshots: {},
        on_backend_failure=failures.append,
        **overrides,
    )
    return router, failures


async def proxy(router, n):
    """Proxy one diff whose body names *n*: ``(status, response body)``."""
    body = json.dumps({"n": n}).encode()
    status, payload, _ = await router.handle("POST", "/v1/diff", {}, body)
    return status, payload


class TestKeepAliveUpstream:
    def test_sequential_diffs_share_one_connection(self):
        async def body():
            fake = await FakeWorker().start()
            router, failures = make_router({"w0": fake.port})
            for n in range(20):
                assert await proxy(router, n) == (200, json.dumps({"n": n}).encode())
            assert fake.connections == 1
            assert router.counters["upstream_connects"] == 1
            assert router.counters["upstream_reuses"] == 19
            assert router.stats()["router"]["upstream_connects"] == 1
            # the drain closes every idle upstream socket
            await router.close_connections()
            await fake.wait_open()
            await fake.stop()
            assert failures == []

        asyncio.run(body())

    def test_socket_closed_while_idle_is_retried_without_failover(self):
        async def body():
            fake = await FakeWorker(close_after_reply=True).start()
            router, failures = make_router({"w0": fake.port})
            assert (await proxy(router, 1))[0] == 200
            await fake.wait_open()  # the worker dropped the idle socket
            assert await proxy(router, 2) == (200, b'{"n": 2}')
            assert router.counters["upstream_reuses"] == 1
            assert router.counters["upstream_connects"] == 2
            assert "proxy_failovers" not in router.counters
            assert failures == []
            await router.close_connections()
            await fake.stop()

        asyncio.run(body())

    def test_connection_close_response_is_not_reused(self):
        async def body():
            fake = await FakeWorker(say_close=True).start()
            router, failures = make_router({"w0": fake.port})
            for n in range(3):
                assert (await proxy(router, n))[0] == 200
            assert fake.connections == 3
            assert router.counters["upstream_connects"] == 3
            assert "upstream_reuses" not in router.counters
            await fake.wait_open()
            await router.close_connections()
            await fake.stop()

        asyncio.run(body())

    def test_idle_sockets_per_worker_are_bounded(self):
        async def body():
            fake = await FakeWorker().start()
            router, failures = make_router({"w0": fake.port})
            burst = await asyncio.gather(*(proxy(router, n) for n in range(12)))
            assert [status for status, _ in burst] == [200] * 12
            assert fake.connections == 12
            await fake.wait_open(MAX_IDLE_PER_WORKER)
            await router.close_connections()
            await fake.wait_open()
            await fake.stop()

        asyncio.run(body())

    def test_timed_out_socket_is_discarded(self):
        async def body():
            fake = await FakeWorker(delay_first=0.5).start()
            router, failures = make_router({"w0": fake.port}, proxy_timeout=0.1)
            status, _ = await proxy(router, 1)
            assert status == 503  # a timeout is a backend failure, never retried
            assert failures == ["w0"]
            assert router.counters["proxy_failovers"] == 1
            # sent at once, while the late answer to n=1 is still pending: a
            # reused socket would hand that answer to this request
            assert await proxy(router, 2) == (200, b'{"n": 2}')
            assert fake.connections == 2
            assert fake.bodies == [b'{"n": 1}', b'{"n": 2}']
            await router.close_connections()
            await fake.wait_open()
            await fake.stop()

        asyncio.run(body())

    def test_port_change_sends_nothing_to_the_old_port(self):
        async def body():
            old, new = await FakeWorker().start(), await FakeWorker().start()
            router, failures = make_router({"w0": old.port})
            assert (await proxy(router, 1))[0] == 200
            router.ports["w0"] = new.port  # respawned on another port
            for n in range(2, 5):
                assert (await proxy(router, n))[0] == 200
            assert old.bodies == [b'{"n": 1}']
            assert len(new.bodies) == 3 and new.connections == 1
            await old.wait_open()  # the old port's idle socket is gone
            await router.close_connections()
            await new.wait_open()
            await old.stop()
            await new.stop()

        asyncio.run(body())

    def test_supervisor_down_notice_closes_idle_sockets(self):
        async def body():
            fake = await FakeWorker().start()
            server = ClusterServer(ClusterConfig(port=0, workers=2))
            supervisor = server.supervisor
            supervisor.ports["w0"] = fake.port
            supervisor.ring.add("w0")
            supervisor.workers["w0"].state = "up"
            assert (await proxy(server.router, 1))[0] == 200
            await fake.wait_open(1)  # the idle keep-alive socket
            supervisor.suspect("w0")
            await fake.wait_open()
            assert "w0" not in supervisor.ports
            await server.router.close_connections()
            await fake.stop()

        asyncio.run(body())

    def test_worker_leaving_the_port_map_mid_request_keeps_no_socket(self):
        async def body():
            fake = await FakeWorker(delay_first=0.3).start()
            router, failures = make_router({"w0": fake.port})
            request = asyncio.ensure_future(proxy(router, 1))
            while not fake.bodies:
                await asyncio.sleep(0.01)
            # a rolling restart's down notice while the answer is in flight
            router.ports.pop("w0")
            router.upstream.drop("w0")
            assert await request == (200, b'{"n": 1}')
            assert "w0" not in router.upstream._idle
            await fake.wait_open()  # the worker sees the socket close
            await router.close_connections()
            await fake.stop()

        asyncio.run(body())

    def test_draining_answer_on_a_reused_socket_fails_over(self):
        async def body():
            fakes = {"w0": await FakeWorker().start(), "w1": await FakeWorker().start()}
            router, failures = make_router(
                {worker_id: fake.port for worker_id, fake in fakes.items()}
            )
            assert (await proxy(router, 1))[0] == 200
            first = next(w for w, fake in fakes.items() if fake.bodies)
            other = next(w for w in fakes if w != first)
            fakes[first].drain()  # still in the ring, with an idle socket
            assert await proxy(router, 1) == (200, b'{"n": 1}')
            assert fakes[other].bodies == [b'{"n": 1}']
            # the fresh connect is refused, which fails over as without a pool
            assert router.counters["proxy_failovers"] == 1
            assert failures == [first]
            assert first not in router.upstream._idle
            await fakes[first].wait_open()
            await router.close_connections()
            for fake in fakes.values():
                await fake.wait_open()
                await fake.stop()

        asyncio.run(body())
