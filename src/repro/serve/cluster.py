"""Multi-process sharded serving: supervisor + affinity router in one front.

``repro-diff serve --workers N`` (N ≥ 2) runs this topology::

                        ┌──────────────────────────────┐
        clients ──────► │ ClusterServer (one process)   │
                        │  Router ── reads the ring      │
                        │  Supervisor ── ring, health,   │
                        │                restart, roll   │
                        └──────┬───────┬───────┬────────┘
                               ▼       ▼       ▼
                             w0:p0   w1:p1   w2:p2     (repro-diff serve
                             DiffServer subprocesses    --workers 1, own
                             each with its own engine,  ephemeral port)
                             ScriptCache, and GIL

Each worker is a full single-process :class:`~repro.serve.app.DiffServer`
— its own CPython interpreter (so matching runs on its own GIL and core),
its own :class:`~repro.service.engine.DiffEngine`, and its own shard of
the cache keyspace, kept coherent by the router's consistent hashing.

This module only wires the parts together. Worker membership — the ring
and port map the router reads, health ticks, suspect feedback, restart
backoff, the ``/healthz`` topology view — is decided by
:class:`~repro.serve.supervisor.Supervisor` over a fleet of
:class:`~repro.serve.supervisor.WorkerProcess` members, the same policy
code the simulator drives over its in-process workers.

The front process answers ``/healthz`` and ``/metrics`` (per-worker
snapshots merged by :func:`repro.service.metrics.merge_snapshots` and
tagged with worker ids) itself; compute traffic is proxied with
replay-on-failure so a worker crash degrades capacity without failing a
single client request.

Signals: SIGTERM/SIGINT drain the front and SIGTERM the fleet (each worker
then runs its own drain sequence); SIGHUP triggers a one-at-a-time
rolling restart. The front runs through the same
:func:`~repro.serve.lifecycle.run_server` and :class:`~repro.serve
.lifecycle.ServerThread` as the single-process server.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..service.metrics import merge_snapshots
from .app import ServeConfig
from .lifecycle import Lifecycle, dump_final_metrics
from .protocol import PROTOCOL
from .router import Router
from .supervisor import Supervisor, WorkerProcess


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
                f"(use DiffServer for the single-process path)"
            )
        if self.serve.trace_export:  # no process of a cluster exports spans
            raise ValueError(
                "trace export needs the single-process server (--workers 0/1); "
                "a cluster's spans are read through GET /v1/trace/<id>"
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
        "--verify-fraction", str(serve.verify_fraction),
        "--trace-fraction", str(serve.trace_fraction),
        "--trace-buffer", str(serve.trace_buffer),
        "--algorithm", serve.algorithm,
    ]
    if serve.match is not None:
        argv += ["-t", str(serve.match.t), "-f", str(serve.match.f)]
    return argv


class ClusterServer:
    """One router, one supervisor, N worker subprocesses."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.lifecycle = Lifecycle(drain_timeout=config.drain_timeout)
        argv = worker_argv(config.serve)
        self.supervisor = Supervisor(
            count=config.workers,
            worker_factory=lambda worker_id: WorkerProcess(
                worker_id,
                argv,
                host=config.host,
                startup_timeout=config.startup_timeout,
                stop_timeout=config.drain_timeout,
            ),
            replicas=config.replicas,
            health_interval=config.health_interval,
            backoff_base=config.backoff_base,
            backoff_cap=config.backoff_cap,
            # a worker leaving the port map takes its idle sockets with it
            on_down=lambda handle: self.router.upstream.drop(handle.worker_id),
        )
        self.router = Router(
            ring=self.supervisor.ring,
            ports=self.supervisor.ports,
            lifecycle=self.lifecycle,
            health_payload=lambda: self.supervisor.health_payload(
                self.lifecycle.draining
            ),
            merge_metrics=merge_snapshots,
            on_backend_failure=self.supervisor.suspect,
            backend_host=config.host,
            max_body_bytes=config.serve.max_body_bytes,
            connect_timeout=config.connect_timeout,
            proxy_timeout=config.proxy_timeout,
        )
        self.port: Optional[int] = None
        self._hup_event: Optional[asyncio.Event] = None

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
                self.router, lambda: self.router.active_requests
            )
            await self.router.close_connections()
        finally:
            hup_task.cancel()
            # a worker's drain waits for its open connections, so the idle
            # upstream sockets close first, also when the drain above failed
            await self.router.upstream.close()
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
            await self.supervisor.rolling_restart()

    def final_snapshot(self) -> Dict[str, Any]:
        """Merge the workers' final METRICS dumps + the router's counters."""
        merged = merge_snapshots(self.supervisor.final_metrics())
        merged["cluster"] = self.router.stats()
        merged["cluster"]["workers"] = self.supervisor.info()
        merged["protocol"] = PROTOCOL
        return merged
