"""Graceful shutdown: stop accepting, flush in-flight work, dump metrics.

The drain sequence on SIGTERM/SIGINT (or a programmatic
:meth:`Lifecycle.request_shutdown`):

1. flip to *draining* — ``/healthz`` starts reporting it and every new
   compute request is refused with 503 + ``Retry-After`` so load
   balancers and retrying clients move on immediately;
2. close the listening socket (no new connections) and the keep-alive
   connections that wait for a request line; a busy connection answers
   with ``Connection: close`` and then closes;
3. wait for the open connections and the admission controller's in-flight
   count to reach zero, all of it bounded by ``drain_timeout`` seconds
   (jobs still running after that are abandoned to process teardown —
   they are compute-only and hold no external resources);
4. shut the engine's worker pools down and emit one final deterministic
   ``METRICS {json}`` line so the last scrape is never lost.

The class is asyncio-native (the waiters run on the server's loop) but
exposes thread-safe entry points — ``request_shutdown`` may be called
from a signal handler or from another thread (tests, benchmarks).

Both fronts (``DiffServer``, ``ClusterServer``) share ``start()``/``run()``
/``lifecycle``/``port``, so one runner (:func:`run_server`) and one thread
harness (:class:`ServerThread`) serve either.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, TextIO, Union

from ..simtest.clock import SYSTEM_CLOCK, Clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .app import DiffServer
    from .cluster import ClusterServer
    from .protocol import HttpFront

    Front = Union[DiffServer, ClusterServer]

#: Signals that trigger a graceful drain when handlers are installed.
DRAIN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class Lifecycle:
    """Drain orchestration shared by the app, the CLI, and the tests.

    The drain deadline and poll waits run on ``clock``, so the simulation
    harness drains a server in virtual time on a ``SimClock``.
    """

    def __init__(self, drain_timeout: float = 30.0, clock: Clock = SYSTEM_CLOCK) -> None:
        self.drain_timeout = drain_timeout
        self.clock = clock
        self._shutdown_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.draining = False
        self.drained_clean: Optional[bool] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach to the serving loop (called once, from that loop)."""
        self._loop = loop
        self._shutdown_event = asyncio.Event()

    def install_signal_handlers(self) -> bool:
        """Route SIGTERM/SIGINT into :meth:`request_shutdown`.

        Returns False where the platform lacks loop signal handlers
        (e.g. Windows); the caller may fall back to ``signal.signal``.
        """
        assert self._loop is not None, "bind() must run first"
        try:
            for signum in DRAIN_SIGNALS:
                self._loop.add_signal_handler(signum, self.request_shutdown)
        except (NotImplementedError, RuntimeError):
            return False
        return True

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def request_shutdown(self) -> None:
        """Flip draining and wake the serve loop; safe from any thread."""
        self.draining = True
        loop, event = self._loop, self._shutdown_event
        if loop is None or event is None:
            return
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            event.set()
        else:
            loop.call_soon_threadsafe(event.set)

    async def wait_for_shutdown(self) -> None:
        assert self._shutdown_event is not None, "bind() must run first"
        await self._shutdown_event.wait()

    async def drain(
        self,
        front: Optional["HttpFront"],
        in_flight: Callable[[], int],
        poll_s: float = 0.02,
    ) -> bool:
        """Run steps 2-3 of the sequence on *front*; True when all work flushed.

        From Python 3.12.1 on, ``wait_closed()`` waits for every open
        connection, so it runs inside the ``drain_timeout`` bound too.
        """
        self.draining = True
        deadline = (
            self.clock.monotonic() + self.drain_timeout
            if self.drain_timeout is not None
            else None
        )
        if front is not None and front.server is not None:
            front.server.close()
            front.close_idle_connections()
            remaining = (
                max(0.0, deadline - self.clock.monotonic()) if deadline is not None else None
            )
            try:
                await asyncio.wait_for(front.server.wait_closed(), remaining)
            except asyncio.TimeoutError:
                self.drained_clean = False
                return False
        while in_flight() > 0:
            if deadline is not None and self.clock.monotonic() >= deadline:
                self.drained_clean = False
                return False
            await self.clock.sleep_async(poll_s)
        self.drained_clean = True
        return True


def dump_final_metrics(
    snapshot: Dict[str, Any], stream: Optional[TextIO] = None
) -> str:
    """Emit the final ``METRICS {json}`` line (deterministic key order)."""
    line = "METRICS " + json.dumps(snapshot, sort_keys=True)
    out = stream if stream is not None else sys.stdout
    print(line, file=out, flush=True)
    return line


def dump_final_traces(jsonl: str, path: str) -> int:
    """Step 4b of the drain: flush the tracer's span buffer to *path*.

    Returns the number of span lines written. An empty buffer still
    truncates the file, so a re-used export path never shows stale spans
    from a previous run.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(jsonl)
    return sum(1 for line in jsonl.splitlines() if line.strip())


# ---------------------------------------------------------------------------
# Entry points: one runner and one thread harness for either front
# ---------------------------------------------------------------------------
def run_server(
    front: "Front", announce: Optional[Callable[[str], None]] = None
) -> int:
    """Blocking foreground entry point used by ``repro-diff serve``.

    Serves until SIGTERM/SIGINT, drains, prints the final ``METRICS`` line,
    and returns the exit code (1 = in-flight work abandoned at the timeout).
    """
    asyncio.run(front.run(install_signals=True, announce=announce))
    return 0 if front.lifecycle.drained_clean is not False else 1


class ServerThread:
    """A serving front on a background thread (tests).

    ``start()`` returns once ``.port`` is bound (a cluster's workers all
    healthy); ``stop()`` runs the SIGTERM drain and returns the final
    metrics. The 60 s timeouts are only an upper bound, sized for a cluster.
    """

    def __init__(self, server: "Front") -> None:
        self.server = server
        self._ready = threading.Event()
        self._final: Optional[Dict[str, Any]] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    @property
    def port(self) -> int:
        port = self.server.port
        assert port is not None, "server not started"
        return port

    def _main(self) -> None:
        async def body() -> None:
            await self.server.start()
            self._ready.set()
            self._final = await self.server.run(
                install_signals=False, dump_metrics=False
            )

        try:
            asyncio.run(body())
        except BaseException as exc:  # surfaced to the joining thread
            self._error = exc
            self._ready.set()

    def start(self, timeout: float = 60.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error!r}")
        return self

    def stop(self, timeout: float = 60.0) -> Dict[str, Any]:
        self.server.lifecycle.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server did not drain in time")
        if self._error is not None:
            raise RuntimeError(f"server crashed: {self._error!r}")
        assert self._final is not None
        return self._final

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        if self._thread.is_alive():
            self.stop()
