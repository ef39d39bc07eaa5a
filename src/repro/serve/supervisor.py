"""Worker supervision: the one place that decides worker membership.

The :class:`Supervisor` owns the consistent-hash ring and port map the
router reads, the ``/healthz`` topology view, and the policy:

* **startup** — spawn every worker, then announce it *up* (ring add);
* **health ticks** — every ``health_interval`` each live worker is
  checked. One that has exited, misses :data:`MAX_HEALTH_MISSES` checks in
  a row, or fails its check while *suspect* goes *down* (ring remove: its
  arc re-routes to live workers) and is respawned after a backoff that
  doubles per consecutive failure, is capped, and resets once it is up;
* **suspect** — router feedback after a failed proxy attempt pulls the
  worker from the ring at once; the next tick re-checks it, and a healthy
  worker (a transient blip) rejoins;
* **rolling restart** (SIGHUP) — one worker at a time: announce down,
  terminate gracefully (the worker drains its in-flight requests),
  respawn; a respawn that fails takes the backoff path;
* **final metrics** — each incarnation's last metrics dump, retired ones
  tagged ``w0@0``, ``w0@1``, … for the cluster's merged dump.

Process I/O sits behind the per-worker :class:`FleetWorker` interface.
:class:`WorkerProcess` is the production member, a ``repro-diff serve``
subprocess on its own ephemeral port; the simulator's
:class:`~repro.simtest.scenario.SimWorker` is the other, and it calls
:meth:`Supervisor.tick` from virtual-time timers instead of running
:meth:`Supervisor.supervise`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Protocol

from ..simtest.clock import SYSTEM_CLOCK, Clock
from .protocol import PROTOCOL, fetch_json
from .router import HashRing

#: Health checks a worker may miss consecutively before it is declared down.
MAX_HEALTH_MISSES = 3

#: Seconds one ``/healthz`` probe of a worker process may take.
HEALTH_TIMEOUT = 2.0


class WorkerStartupError(RuntimeError):
    """A worker failed to bind or to pass its first health check."""


def worker_env() -> Dict[str, str]:
    """Subprocess env that can import ``repro`` however the parent did."""
    env = dict(os.environ)
    src_dir = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    return env


class FleetWorker(Protocol):
    """The process I/O of one supervised worker.

    ``spawn`` starts a fresh incarnation and waits until it is healthy
    (else raises :class:`WorkerStartupError`); ``terminate`` drains it
    (``graceful``) or kills it. ``final_metrics`` is the incarnation's
    last metrics dump, None before it has one.
    """

    worker_id: str
    port: Optional[int]
    pid: Optional[int]
    last_exit: Optional[int]
    final_metrics: Optional[Dict[str, Any]]

    async def spawn(self) -> None: ...
    def alive(self) -> bool: ...
    async def check_health(self) -> bool: ...
    async def terminate(self, graceful: bool = True) -> None: ...


class WorkerHandle:
    """The supervisor's membership record for one worker."""

    def __init__(self, worker: FleetWorker) -> None:
        self.worker = worker
        self.worker_id = worker.worker_id
        #: ``starting`` → ``up`` → (``suspect`` | ``down``) → ``up`` …
        self.state = "stopped"
        self.restarts = 0
        self.health_misses = 0
        self.consecutive_failures = 0  # drives the restart backoff
        self.retry_at = 0.0  # clock time before which no respawn happens
        #: Final metrics dumps of previous incarnations.
        self.retired_metrics: List[Dict[str, Any]] = []

    def info(self) -> Dict[str, Any]:
        """JSON-friendly view used by the cluster ``/healthz`` payload."""
        return {
            "state": self.state,
            "port": self.worker.port,
            "pid": self.worker.pid,
            "restarts": self.restarts,
            "last_exit": self.worker.last_exit,
        }


class Supervisor:
    """Decide worker membership for one fleet; see the module docstring."""

    def __init__(
        self,
        count: int,
        worker_factory: Callable[[str], FleetWorker],
        replicas: int = 64,
        health_interval: float = 0.5,
        backoff_base: float = 0.25,
        backoff_cap: float = 5.0,
        on_up: Optional[Callable[[WorkerHandle], None]] = None,
        on_down: Optional[Callable[[WorkerHandle], None]] = None,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if count < 1:
            raise ValueError(f"worker count must be >= 1, got {count}")
        self.health_interval = health_interval
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.on_up = on_up
        self.on_down = on_down
        self.clock = clock
        self.workers: Dict[str, WorkerHandle] = {
            f"w{index}": WorkerHandle(worker_factory(f"w{index}"))
            for index in range(count)
        }
        #: The routing view: exactly the workers that are up.
        self.ring = HashRing(replicas=replicas)
        self.ports: Dict[str, int] = {}
        self._started = self._now()
        self._stopping = False
        self._rolling = False

    def _now(self) -> float:
        return self.clock.monotonic()

    async def _sleep_until(self, deadline: float) -> None:
        await self.clock.sleep_async(max(0.0, deadline - self._now()))

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _notify_up(self, handle: WorkerHandle) -> None:
        handle.state = "up"
        handle.health_misses = 0
        handle.consecutive_failures = 0
        if handle.worker.port is not None:
            self.ports[handle.worker_id] = handle.worker.port
        self.ring.add(handle.worker_id)
        if self.on_up is not None:
            self.on_up(handle)

    def _notify_down(self, handle: WorkerHandle, state: str = "down") -> None:
        handle.state = state
        self.ring.remove(handle.worker_id)
        self.ports.pop(handle.worker_id, None)
        if self.on_down is not None:
            self.on_down(handle)

    def suspect(self, worker_id: str) -> None:
        """Router feedback: a proxied request to this worker just failed.

        The worker is pulled from the ring *now* (no more traffic) and the
        next health tick re-verifies it — a healthy worker (transient
        blip) rejoins, a dead one enters the restart path.
        """
        handle = self.workers.get(worker_id)
        if handle is not None and handle.state == "up":
            self._notify_down(handle, state="suspect")

    def _schedule_restart(self, handle: WorkerHandle) -> None:
        """Announce down and arm the capped, doubling respawn backoff."""
        backoff = min(
            self.backoff_cap, self.backoff_base * (2.0 ** handle.consecutive_failures)
        )
        handle.consecutive_failures += 1
        handle.retry_at = self._now() + backoff
        self._notify_down(handle)

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn every worker and wait until all are up (or raise)."""
        await asyncio.gather(*(self.spawn(worker_id) for worker_id in self.workers))

    async def spawn(self, worker_id: str) -> None:
        """Start a fresh incarnation of one worker and announce it up."""
        handle = self.workers[worker_id]
        handle.state = "starting"
        if handle.worker.final_metrics is not None:
            handle.retired_metrics.append(handle.worker.final_metrics)
        await handle.worker.spawn()
        self._notify_up(handle)

    async def _respawn(self, handle: WorkerHandle) -> bool:
        """Replace a stopped incarnation; a failure re-arms the backoff."""
        try:
            await self.spawn(handle.worker_id)
        except WorkerStartupError:
            self._schedule_restart(handle)
            return False
        handle.restarts += 1
        return True

    # ------------------------------------------------------------------
    # Health ticks
    # ------------------------------------------------------------------
    async def supervise(self) -> None:
        """Run :meth:`tick` every ``health_interval`` until :meth:`stop`.

        Ticks are scheduled at *absolute* deadlines (``next_tick +=
        interval``) computed from the clock, not by sleeping a fixed
        interval after each pass — so the time spent health-checking and
        restarting does not accumulate as drift, and restart-backoff
        timing stays exact under both the real clock and ``SimClock``.
        A stall longer than one interval (a slow restart, a clock jump)
        skips the missed ticks instead of bursting to catch up.
        """
        next_tick = self._now() + self.health_interval
        while not self._stopping:
            await self._sleep_until(next_tick)
            next_tick += self.health_interval
            now = self._now()
            if next_tick <= now:  # stalled past a tick: realign, don't burst
                next_tick = now + self.health_interval
            if self._stopping:
                break
            await self.tick()

    async def tick(self) -> None:
        """One health pass: check live workers, respawn the due ones."""
        if self._rolling:
            return  # rolling_restart owns worker state transitions
        for handle in self.workers.values():
            if self._stopping:
                break
            if handle.state in ("up", "suspect"):
                await self._check(handle)
            elif handle.state == "down" and self._now() >= handle.retry_at:
                await self._respawn(handle)

    async def _check(self, handle: WorkerHandle) -> None:
        worker = handle.worker
        if not worker.alive():
            self._schedule_restart(handle)
            return
        if await worker.check_health():
            if handle.state == "suspect":
                self._notify_up(handle)  # transient blip: rejoin the ring
            handle.health_misses = 0
            return
        handle.health_misses += 1
        if handle.health_misses >= MAX_HEALTH_MISSES or handle.state == "suspect":
            await worker.terminate(graceful=False)
            self._schedule_restart(handle)

    # ------------------------------------------------------------------
    # Rolling restart (SIGHUP) and shutdown
    # ------------------------------------------------------------------
    async def rolling_restart(self) -> int:
        """Drain and replace workers one at a time; returns workers rolled."""
        if self._rolling or self._stopping:
            return 0
        self._rolling = True
        rolled = 0
        try:
            for worker_id in sorted(self.workers):
                if self._stopping:
                    break
                handle = self.workers[worker_id]
                if handle.state != "up":
                    continue  # crashed workers are the health ticks' job
                self._notify_down(handle, state="draining")
                await handle.worker.terminate()
                if await self._respawn(handle):
                    rolled += 1
        finally:
            self._rolling = False
        return rolled

    async def stop(self) -> None:
        """Terminate the whole fleet, collecting every final dump."""
        self._stopping = True
        await asyncio.gather(
            *(handle.worker.terminate() for handle in self.workers.values())
        )
        for handle in self.workers.values():
            self._notify_down(handle, state="stopped")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def final_metrics(self) -> Dict[str, Dict[str, Any]]:
        """Every incarnation's metrics dump, retired ones as ``w0@0``, …

        A rolling or crash restart therefore does not drop the earlier
        incarnation's traffic from the cluster's merged dump.
        """
        dumps: Dict[str, Dict[str, Any]] = {}
        for worker_id, handle in sorted(self.workers.items()):
            for index, retired in enumerate(handle.retired_metrics):
                dumps[f"{worker_id}@{index}"] = retired
            if handle.worker.final_metrics is not None:
                dumps[worker_id] = handle.worker.final_metrics
        return dumps

    def info(self) -> Dict[str, Dict[str, Any]]:
        return {
            worker_id: handle.info()
            for worker_id, handle in sorted(self.workers.items())
        }

    def health_payload(self, draining: bool = False) -> Dict[str, Any]:
        """The cluster ``/healthz`` body: topology plus an overall status."""
        workers = self.info()
        up = sum(1 for info in workers.values() if info["state"] == "up")
        if draining:
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
            "uptime_s": round(self._now() - self._started, 3),
            "protocol": PROTOCOL,
        }


class WorkerProcess:
    """The production fleet member: one ``repro-diff serve`` subprocess.

    Spawning parses the ``listening on http://host:port`` banner and gates
    on ``/healthz``. Per-incarnation reader tasks drain stdout and stderr
    so the pipes never fill up and block the worker; the stdout reader
    keeps the last ``METRICS {json}`` line as the final dump.
    """

    def __init__(
        self,
        worker_id: str,
        argv: List[str],
        host: str = "127.0.0.1",
        startup_timeout: float = 60.0,
        stop_timeout: float = 30.0,
    ) -> None:
        self.worker_id = worker_id
        self.argv = argv
        self.host = host
        self.startup_timeout = startup_timeout
        self.stop_timeout = stop_timeout
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        self.final_metrics: Optional[Dict[str, Any]] = None
        self.stderr_tail: deque = deque(maxlen=40)
        self._previous_exit: Optional[int] = None
        self._reader_tasks: List[asyncio.Task] = []

    @property
    def last_exit(self) -> Optional[int]:
        """Exit code of the latest incarnation that has exited."""
        if self.proc is not None and self.proc.returncode is not None:
            return self.proc.returncode
        return self._previous_exit

    def alive(self) -> bool:
        return self.proc is not None and self.proc.returncode is None

    async def spawn(self) -> None:
        if self.proc is not None:
            self._previous_exit = self.proc.returncode
        self.port = None
        self.final_metrics = None
        if self._reader_tasks:  # readers of a previous incarnation
            for task in self._reader_tasks:
                task.cancel()
            await asyncio.gather(*self._reader_tasks, return_exceptions=True)
            self._reader_tasks = []
        self.proc = await asyncio.create_subprocess_exec(
            *self.argv,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            env=worker_env(),
        )
        self.pid = self.proc.pid
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.startup_timeout
        try:
            while True:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise WorkerStartupError(
                        f"{self.worker_id}: no startup banner within "
                        f"{self.startup_timeout}s"
                    )
                line = await asyncio.wait_for(self.proc.stdout.readline(), remaining)
                if not line:
                    raise WorkerStartupError(
                        f"{self.worker_id}: exited before binding "
                        f"(stderr: {await self._drain_stderr_once()})"
                    )
                if b"listening on" in line:
                    self.port = int(line.decode().strip().rsplit(":", 1)[1])
                    break
        except (WorkerStartupError, asyncio.TimeoutError, ValueError) as exc:
            self._kill_quietly()
            raise WorkerStartupError(str(exc)) from exc
        self._reader_tasks = [
            asyncio.ensure_future(self._pump_stdout(self.proc)),
            asyncio.ensure_future(self._pump_stderr(self.proc)),
        ]
        while loop.time() < deadline:
            if await self.check_health():
                return
            await asyncio.sleep(0.05)
        self._kill_quietly()
        raise WorkerStartupError(
            f"{self.worker_id}: bound port {self.port} but never answered /healthz"
        )

    async def check_health(self) -> bool:
        if self.port is None or not self.alive():
            return False
        try:
            status, payload = await fetch_json(
                self.host, self.port, "/healthz", HEALTH_TIMEOUT
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            return False
        return status == 200 and payload.get("status") == "ok"

    async def terminate(self, graceful: bool = True) -> None:
        """SIGTERM and wait out the drain (SIGKILL after ``stop_timeout``),
        or SIGKILL at once; then let the readers capture the last lines."""
        if self.alive():
            try:
                if graceful:
                    self.proc.send_signal(signal.SIGTERM)
                else:
                    self.proc.kill()
            except ProcessLookupError:
                pass
            try:
                await asyncio.wait_for(self.proc.wait(), self.stop_timeout)
            except asyncio.TimeoutError:
                self._kill_quietly()
                await self.proc.wait()
        if self._reader_tasks:
            await asyncio.gather(*self._reader_tasks, return_exceptions=True)
            self._reader_tasks = []

    # ------------------------------------------------------------------
    # Subprocess I/O
    # ------------------------------------------------------------------
    async def _pump_stdout(self, proc: asyncio.subprocess.Process) -> None:
        while True:
            line = await proc.stdout.readline()
            if not line:
                return
            if line.startswith(b"METRICS "):
                try:
                    self.final_metrics = json.loads(line[len(b"METRICS "):])
                except ValueError:
                    pass

    async def _pump_stderr(self, proc: asyncio.subprocess.Process) -> None:
        while True:
            line = await proc.stderr.readline()
            if not line:
                return
            self.stderr_tail.append(line.decode("utf-8", "replace").rstrip())

    async def _drain_stderr_once(self) -> str:
        try:
            raw = await asyncio.wait_for(self.proc.stderr.read(4096), 1.0)
        except (asyncio.TimeoutError, AttributeError):
            return ""
        return raw.decode("utf-8", "replace")[-500:]

    def _kill_quietly(self) -> None:
        if self.alive():
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass
