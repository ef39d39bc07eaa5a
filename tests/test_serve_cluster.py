"""Integration tests for the sharded cluster (repro.serve.cluster).

A real 2-worker :class:`ClusterServer` on the shared :class:`ServerThread`
harness — worker subprocesses, router, and
supervisor all live — shared across the module (spawning interpreters is
the expensive part on CI).  The kill test runs last because it leaves a
restart count behind.  Supervisor backoff arithmetic is unit-tested
without processes.
"""

import asyncio
import os
import signal
import sys
import threading
import time

import pytest

from repro.serve.app import ServeConfig
from repro.serve.client import DiffServiceClient
from repro.serve.cluster import ClusterConfig, ClusterServer, worker_argv
from repro.serve.lifecycle import ServerThread
from repro.serve.supervisor import Supervisor, WorkerProcess
from repro.simtest.clock import SimClock
from repro.workload import MutationEngine, random_tree

WORKERS = 2


@pytest.fixture(scope="module")
def cluster():
    config = ClusterConfig(
        port=0,
        workers=WORKERS,
        health_interval=0.2,
        backoff_base=0.1,
        serve=ServeConfig(port=0, workers=1, queue_capacity=16, cache_size=64),
    )
    thread = ServerThread(ClusterServer(config)).start()
    yield thread
    final = thread.stop()
    # the drain path must still produce a merged final snapshot
    assert "counters" in final and "cluster" in final


def make_pairs(count, seed=42):
    pairs = []
    for i in range(count):
        old = random_tree(seed + i)
        new = MutationEngine(seed + 100 + i).mutate(old, 4).tree
        pairs.append((old, new))
    return pairs


def test_health_reports_full_topology(cluster):
    with DiffServiceClient(port=cluster.port, retries=2) as client:
        health = client.request("GET", "/healthz")
    assert health["status"] == "ok"
    assert health["role"] == "cluster"
    assert health["workers_up"] == WORKERS
    states = {info["state"] for info in health["workers"].values()}
    assert states == {"up"}


def test_diffs_proxy_and_metrics_merge(cluster):
    pairs = make_pairs(4)
    with DiffServiceClient(port=cluster.port, retries=2) as client:
        for old, new in pairs:
            out = client.diff(old, new)
            assert out["status"] == "ok"
        metrics = client.request("GET", "/metrics")
    # merged across shards: every submitted job is accounted for somewhere
    assert metrics["counters"]["jobs_submitted"] >= len(pairs)
    assert set(metrics["workers"]) == {f"w{i}" for i in range(WORKERS)}
    assert metrics["cluster"]["router"]["proxied"] >= len(pairs)
    assert metrics["cluster"]["live_workers"] == sorted(metrics["workers"])


def test_identical_pairs_stay_cache_affine(cluster):
    pairs = make_pairs(3, seed=900)
    with DiffServiceClient(port=cluster.port, retries=2) as client:
        before = client.request("GET", "/metrics")["cache"]["hits"]
        for _ in range(2):  # second pass must hit the shard-local cache
            for old, new in pairs:
                assert client.diff(old, new)["status"] == "ok"
        after = client.request("GET", "/metrics")["cache"]["hits"]
    assert after - before >= len(pairs)


def test_worker_sigkill_under_load_is_invisible_to_clients(cluster):
    """SIGKILL one worker mid-burst: zero failed requests, then a restart."""
    with DiffServiceClient(port=cluster.port, retries=2) as probe:
        health = probe.request("GET", "/healthz")
    victim_id, victim = sorted(health["workers"].items())[0]
    victim_pid = victim["pid"]

    pairs = make_pairs(8, seed=7000)
    results, errors = [], []
    barrier = threading.Barrier(3)

    def fire(chunk):
        client = DiffServiceClient(
            port=cluster.port, retries=6, connect_retries=10, timeout=30.0
        )
        barrier.wait()
        for old, new in chunk:
            try:
                results.append(client.diff(old, new)["status"])
            except Exception as exc:  # any client-visible failure is a bug
                errors.append(repr(exc))
        client.close()

    threads = [
        threading.Thread(target=fire, args=(pairs[:4],)),
        threading.Thread(target=fire, args=(pairs[4:],)),
    ]
    for t in threads:
        t.start()
    barrier.wait()
    time.sleep(0.05)  # let the burst reach the proxy before the kill
    os.kill(victim_pid, signal.SIGKILL)
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "a burst thread hung"

    assert errors == [], f"client-visible failures after SIGKILL: {errors}"
    assert results == ["ok"] * len(pairs)

    # the supervisor must notice and bring the worker back with a new pid
    deadline = time.time() + 60
    with DiffServiceClient(port=cluster.port, retries=2) as client:
        while time.time() < deadline:
            health = client.request("GET", "/healthz")
            info = health["workers"][victim_id]
            if info["state"] == "up" and info["pid"] != victim_pid:
                assert info["restarts"] >= 1
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"{victim_id} never restarted: {health['workers']}")


class TestSupervisorBackoff:
    """Restart scheduling without any real subprocesses."""

    @staticmethod
    def _supervisor(**overrides):
        options = dict(
            count=1,
            worker_factory=lambda wid: WorkerProcess(wid, ["true"]),
            backoff_base=0.25,
            backoff_cap=1.0,
        )
        options.update(overrides)
        return Supervisor(**options)

    def test_backoff_doubles_then_caps(self):
        async def body():
            sup = self._supervisor()
            handle = sup.workers["w0"]
            loop = asyncio.get_running_loop()
            delays = []
            for _ in range(5):
                sup._schedule_restart(handle)
                delays.append(handle.retry_at - loop.time())
            return delays

        delays = asyncio.run(body())
        expected = [0.25, 0.5, 1.0, 1.0, 1.0]  # base * 2^k, capped
        for got, want in zip(delays, expected):
            assert got == pytest.approx(want, abs=0.05)

    def test_notify_up_resets_the_backoff(self):
        async def body():
            sup = self._supervisor()
            handle = sup.workers["w0"]
            for _ in range(4):
                sup._schedule_restart(handle)
            assert handle.consecutive_failures == 4
            sup._notify_up(handle)
            assert handle.consecutive_failures == 0
            assert handle.state == "up"
            loop = asyncio.get_running_loop()
            sup._schedule_restart(handle)
            return handle.retry_at - loop.time()

        assert asyncio.run(body()) == pytest.approx(0.25, abs=0.05)

    def test_suspect_pulls_only_up_workers(self):
        events = []
        sup = self._supervisor(count=2, on_down=lambda h: events.append(h.worker_id))
        sup.workers["w0"].state = "up"
        sup.workers["w1"].state = "down"
        sup.suspect("w0")
        sup.suspect("w1")  # already down: no duplicate notification
        sup.suspect("w9")  # unknown id: ignored
        assert events == ["w0"]
        assert sup.workers["w0"].state == "suspect"

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            self._supervisor(count=0)

    def test_backoff_schedule_is_exact_on_virtual_time(self):
        # With an injected SimClock the schedule needs no approx tolerance.
        async def body():
            clock = SimClock(start=50.0)
            sup = self._supervisor(clock=clock)
            handle = sup.workers["w0"]
            delays = []
            for _ in range(5):
                sup._schedule_restart(handle)
                delays.append(handle.retry_at - clock.monotonic())
            return delays

        assert asyncio.run(body()) == [0.25, 0.5, 1.0, 1.0, 1.0]

    def test_sleep_until_advances_virtual_time_without_waiting(self):
        async def body():
            clock = SimClock()
            sup = self._supervisor(clock=clock)
            started = time.monotonic()
            # Absolute deadlines, as the drift-free supervise loop ticks.
            deadline = clock.monotonic()
            for _ in range(3):
                deadline += 0.5
                await sup._sleep_until(deadline)
            return clock.monotonic(), time.monotonic() - started

        virtual, real = asyncio.run(body())
        assert virtual == 1.5
        assert real < 0.25  # no wall-clock sleeping happened

    def test_sleep_until_past_deadline_returns_immediately(self):
        async def body():
            clock = SimClock(start=10.0)
            sup = self._supervisor(clock=clock)
            await sup._sleep_until(5.0)
            return clock.monotonic()

        assert asyncio.run(body()) == 10.0


class _StartsOnceWorker(WorkerProcess):
    """Comes up once without a process; every respawn runs the real
    subprocess path with an argv that exits at once."""

    def __init__(self, worker_id):
        super().__init__(worker_id, [sys.executable, "-c", ""])
        self.started = False

    async def spawn(self):
        if not self.started:
            self.started = True
            return
        await super().spawn()


def test_failed_respawn_in_rolling_restart_takes_the_backoff_path():
    async def body():
        clock = SimClock()
        sup = Supervisor(count=1, worker_factory=_StartsOnceWorker, clock=clock)
        await sup.start()
        handle = sup.workers["w0"]
        rolled = await sup.rolling_restart()  # must not raise
        first = (rolled, handle.state, handle.retry_at, sup.ring.members())
        clock.sleep(handle.retry_at - clock.monotonic())
        await sup.tick()  # the due respawn is attempted again, and fails
        return first, handle

    (rolled, state, retry_at, ring), handle = asyncio.run(body())
    assert (rolled, state, ring) == (0, "down", [])
    assert retry_at == 0.25  # backoff_base after the first failure
    assert handle.state == "down" and handle.consecutive_failures == 2
    assert handle.retry_at == 0.25 + 0.5  # doubled on the retry's failure
    assert handle.restarts == 0


def test_worker_argv_round_trips_the_serve_config():
    serve = ServeConfig(workers=3, cache_size=9, queue_capacity=5)
    argv = worker_argv(serve, python="/usr/bin/pythonX")
    joined = " ".join(argv)
    assert argv[0] == "/usr/bin/pythonX"
    assert "--workers 1" in joined  # each subprocess is single-process
    assert "--threads 3" in joined  # engine threads pass through
    assert "--cache-size 9" in joined
    assert "--queue-depth 5" in joined
    assert "--port 0" in joined  # ephemeral: the banner reports the real port


def test_cluster_config_rejects_single_worker():
    with pytest.raises(ValueError):
        ClusterConfig(workers=1)
