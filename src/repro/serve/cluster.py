"""Multi-process sharded serving: supervisor + affinity router in one front.

``repro-diff serve --workers N`` (N ≥ 2) runs this topology::

                        ┌────────────────────────────┐
        clients ──────► │ ClusterServer (one process) │
                        │  Router ── HashRing          │
                        │  Supervisor ── health/restart│
                        └──────┬───────┬───────┬──────┘
                               ▼       ▼       ▼
                             w0:p0   w1:p1   w2:p2     (repro-diff serve
                             DiffServer subprocesses    --workers 1, own
                             each with its own engine,  ephemeral port)
                             ScriptCache, and GIL

Each worker is a full single-process :class:`~repro.serve.app.DiffServer`
— its own CPython interpreter (so matching runs on its own GIL and core),
its own :class:`~repro.service.engine.DiffEngine`, and its own shard of
the cache keyspace, kept coherent by the router's consistent hashing.

The front process answers ``/healthz`` (topology view) and ``/metrics``
(per-worker snapshots merged by :func:`repro.service.metrics.merge_snapshots`
and tagged with worker ids) itself; compute traffic is proxied with
replay-on-failure so a worker crash degrades capacity without failing a
single client request.

Signals: SIGTERM/SIGINT drain the front and SIGTERM the fleet (each worker
then runs its own PR 6 drain sequence); SIGHUP triggers a one-at-a-time
rolling restart.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..service.metrics import merge_snapshots
from ..simtest.clock import SYSTEM_CLOCK
from .app import ServeConfig
from .lifecycle import Lifecycle, dump_final_metrics
from .protocol import PROTOCOL
from .router import HashRing, Router
from .supervisor import Supervisor, WorkerHandle


@dataclass
class ClusterConfig:
    """Topology knobs; per-worker behavior lives in the nested ServeConfig."""

    host: str = "127.0.0.1"
    port: int = 8765  #: front port; 0 binds an ephemeral port
    workers: int = 4  #: worker *processes* (>= 2; 0/1 is the single path)
    replicas: int = 64  #: virtual nodes per worker on the hash ring
    health_interval: float = 0.5
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    startup_timeout: float = 60.0
    drain_timeout: float = 30.0
    connect_timeout: float = 5.0
    proxy_timeout: float = 120.0
    serve: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        if self.workers < 2:
            raise ValueError(
                f"cluster needs >= 2 workers, got {self.workers} "
                f"(use run_server for the single-process path)"
            )


def worker_argv(serve: ServeConfig, python: Optional[str] = None) -> List[str]:
    """The ``repro-diff serve`` command line for one single-process worker."""
    argv = [
        python if python is not None else sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--host", serve.host,
        "--port", "0",
        "--workers", "1",
        "--threads", str(serve.workers),
        "--cache-size", str(serve.cache_size),
        "--queue-depth", str(serve.queue_capacity),
        "--rate", str(serve.rate),
        "--burst", str(serve.burst),
        "--max-body-kb", str(max(1, serve.max_body_bytes // 1024)),
        "--deadline-ms", str(serve.deadline_ms),
        "--drain-timeout", str(serve.drain_timeout),
        "--retries", str(serve.retries),
        "--verify-fraction", str(serve.verify_fraction),
        "--trace-fraction", str(serve.trace_fraction),
        "--algorithm", serve.algorithm,
    ]
    if serve.match is not None:
        argv += ["-t", str(serve.match.t), "-f", str(serve.match.f)]
    return argv


def worker_env() -> Dict[str, str]:
    """Subprocess env that can import ``repro`` however the parent did."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    return env


class ClusterServer:
    """One router, one supervisor, N worker subprocesses."""

    def __init__(
        self,
        config: ClusterConfig,
        clock: Optional[Any] = None,
        faults: Optional[Any] = None,
    ) -> None:
        self.config = config
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.lifecycle = Lifecycle(drain_timeout=config.drain_timeout, clock=clock)
        self.ring = HashRing(replicas=config.replicas)
        self.ports: Dict[str, int] = {}
        self.supervisor = Supervisor(
            count=config.workers,
            argv_factory=lambda worker_id: worker_argv(config.serve),
            env=worker_env(),
            backend_host=config.host,
            health_interval=config.health_interval,
            backoff_base=config.backoff_base,
            backoff_cap=config.backoff_cap,
            startup_timeout=config.startup_timeout,
            stop_timeout=config.drain_timeout,
            on_up=self._worker_up,
            on_down=self._worker_down,
            clock=clock,
            faults=faults,
        )
        self.router = Router(
            ring=self.ring,
            ports=self.ports,
            lifecycle=self.lifecycle,
            health_payload=self.health_payload,
            merge_metrics=merge_snapshots,
            on_backend_failure=self.supervisor.suspect,
            backend_host=config.host,
            max_body_bytes=config.serve.max_body_bytes,
            connect_timeout=config.connect_timeout,
            proxy_timeout=config.proxy_timeout,
            clock=clock,
            faults=faults,
        )
        self.port: Optional[int] = None
        self._started = self.clock.monotonic()
        self._hup_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Supervisor → router wiring
    # ------------------------------------------------------------------
    def _worker_up(self, handle: WorkerHandle) -> None:
        assert handle.port is not None
        self.ports[handle.worker_id] = handle.port
        self.ring.add(handle.worker_id)

    def _worker_down(self, handle: WorkerHandle) -> None:
        self.ring.remove(handle.worker_id)
        self.ports.pop(handle.worker_id, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health_payload(self) -> Dict[str, Any]:
        workers = self.supervisor.info()
        up = sum(1 for info in workers.values() if info["state"] == "up")
        if self.lifecycle.draining:
            status = "draining"
        elif up == len(workers):
            status = "ok"
        elif up > 0:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "role": "cluster",
            "workers": workers,
            "workers_up": up,
            "uptime_s": round(self.clock.monotonic() - self._started, 3),
            "protocol": PROTOCOL,
        }

    # ------------------------------------------------------------------
    # Serve loop
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the fleet, then bind the front socket (workers first, so
        the first client request already has somewhere to go)."""
        self.lifecycle.bind(asyncio.get_running_loop())
        await self.supervisor.start()
        await self.router.listen(self.config.host, self.config.port)
        self.port = self.router.port

    async def run(
        self,
        install_signals: bool = True,
        announce: Optional[Callable[[str], None]] = None,
        dump_metrics: bool = True,
    ) -> Dict[str, Any]:
        """Serve until shutdown; drain front then fleet; merged final dump."""
        if self.port is None:
            await self.start()
        loop = asyncio.get_running_loop()
        self._hup_event = asyncio.Event()
        if install_signals:
            self.lifecycle.install_signal_handlers()
            try:
                loop.add_signal_handler(signal.SIGHUP, self._hup_event.set)
            except (NotImplementedError, RuntimeError, AttributeError):
                pass
        if announce is not None:
            announce(f"http://{self.config.host}:{self.port}")
        supervise_task = asyncio.ensure_future(self.supervisor.supervise())
        hup_task = asyncio.ensure_future(self._watch_hup())
        try:
            await self.lifecycle.wait_for_shutdown()
            await self.lifecycle.drain(
                self.router.server, lambda: self.router.active_requests
            )
            await self.router.close_connections()
        finally:
            hup_task.cancel()
            await self.supervisor.stop()
            supervise_task.cancel()
            await asyncio.gather(
                supervise_task, hup_task, return_exceptions=True
            )
        snapshot = self.final_snapshot()
        if dump_metrics:
            dump_final_metrics(snapshot)
        return snapshot

    async def _watch_hup(self) -> None:
        assert self._hup_event is not None
        while True:
            await self._hup_event.wait()
            self._hup_event.clear()
            await self.rolling_restart()

    async def rolling_restart(self) -> int:
        """SIGHUP path: drain and replace one worker at a time."""
        return await self.supervisor.rolling_restart()

    def final_snapshot(self) -> Dict[str, Any]:
        """Merge the workers' final METRICS dumps + the router's counters."""
        merged = merge_snapshots(self.supervisor.final_metrics())
        merged["cluster"] = self.router.stats()
        merged["cluster"]["workers"] = self.supervisor.info()
        merged["protocol"] = PROTOCOL
        return merged


# ---------------------------------------------------------------------------
# Entry points (mirroring app.run_server / app.ServerThread)
# ---------------------------------------------------------------------------
def run_cluster(
    config: ClusterConfig,
    announce: Optional[Callable[[str], None]] = None,
) -> int:
    """Blocking foreground entry point for ``repro-diff serve --workers N``."""
    cluster = ClusterServer(config)

    async def _main() -> Dict[str, Any]:
        await cluster.start()
        return await cluster.run(install_signals=True, announce=announce)

    asyncio.run(_main())
    return 0 if cluster.lifecycle.drained_clean is not False else 1


class ClusterThread:
    """A ClusterServer on a background thread — tests and benchmarks.

    Worker *processes* are real either way; only the front loop is
    embedded. ``start()`` returns once every worker is healthy and the
    front socket is bound; ``stop()`` runs the SIGTERM drain sequence and
    returns the merged final metrics snapshot.
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.cluster = ClusterServer(config)
        self._ready = threading.Event()
        self._final: Optional[Dict[str, Any]] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    @property
    def port(self) -> int:
        port = self.cluster.port
        assert port is not None, "cluster not started"
        return port

    def _main(self) -> None:
        async def body() -> None:
            await self.cluster.start()
            self._ready.set()
            self._final = await self.cluster.run(
                install_signals=False, dump_metrics=False
            )

        try:
            asyncio.run(body())
        except BaseException as exc:  # surfaced to the joining thread
            self._error = exc
            self._ready.set()

    def start(self, timeout: float = 60.0) -> "ClusterThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("cluster failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"cluster failed to start: {self._error!r}")
        return self

    def stop(self, timeout: float = 60.0) -> Dict[str, Any]:
        self.cluster.lifecycle.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("cluster did not drain in time")
        if self._error is not None:
            raise RuntimeError(f"cluster crashed: {self._error!r}")
        assert self._final is not None
        return self._final

    def __enter__(self) -> "ClusterThread":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        if self._thread.is_alive():
            self.stop()
