"""The asyncio HTTP/1.1 diff service: the worker core and its socket loop.

A deliberately small, stdlib-only HTTP server (no frameworks, matching the
repo's no-new-runtime-deps rule) that puts :class:`repro.service.DiffEngine`
on the network:

========  ==============  ====================================================
method    path            behavior
========  ==============  ====================================================
POST      ``/v1/diff``    diff one ``{"old": ..., "new": ...}`` snapshot pair
POST      ``/v1/batch``   diff a ``{"pairs": [...]}`` array in one request
POST      ``/v1/verify``  run the conformance-oracle battery on one pair
GET       ``/healthz``    liveness + draining state (never admission-gated)
GET       ``/metrics``    deterministic JSON snapshot of ServiceMetrics
========  ==============  ====================================================

:meth:`DiffServer.dispatch` is the sans-IO worker core: routing, the
admission bracket (503 while draining, 429 + ``Retry-After``, 504 on the
deadline, slot release), the worker/admission/engine spans, the metrics
counters and response shaping. Two callers run it: the socket loop of
:class:`~repro.serve.protocol.HttpFront`, and the simulator
(:mod:`repro.simtest.scenario`), which calls :meth:`~repro.serve.protocol
.HttpFront.handle` directly. They differ in one method, :meth:`DiffServer
._offload`. Here the event loop parses, routes and writes, and it also
answers what needs no matching: each job's digests, Merkle short-circuit
and one cache lookup are linear in the capped body, like the parse. The
loop also computes a request's one job (matching, or a sampled spot
check) when its pair has at most
:data:`~repro.service.engine.INLINE_MAX_NODES` nodes and
:data:`~repro.service.engine.INLINE_MAX_WORDS` words: that is cheaper
than a thread-pool round trip, and the bounds cap the stall. Larger
pairs, the jobs of a batch of two or more and ``/v1/verify`` run on the
engine's worker pool under a timeout.

It runs through the entry points it shares with the cluster front:
:func:`~repro.serve.lifecycle.run_server` and :class:`~repro.serve
.lifecycle.ServerThread`.

Concurrency note: an expired deadline answers the *request* with 504, but
the underlying job is not forcibly killed (CPython offers no safe
preemption): a pool job runs on, and an inline job is answered 504 only
once it has ended. The admission slot is returned with the response — the
*engine's* worker pool still bounds actual compute — and shutdown waits
for stragglers: ``engine.close()`` joins its pool after the drain.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..matching.criteria import MatchConfig
from ..obs.export import validate_trace
from ..obs.trace import Tracer, extract_trace_context, is_valid_trace_id
from ..service.engine import DiffEngine, DiffJob
from ..service.metrics import ServiceMetrics
from ..simtest.clock import SYSTEM_CLOCK, Clock
from .admission import AdmissionController, Deadline
from .lifecycle import Lifecycle, dump_final_metrics, dump_final_traces
from .protocol import (
    PROTOCOL,
    HttpError,
    HttpFront,
    Response,
    job_result_to_dict,
    pairs_from_batch,
    parse_body,
    require_method,
    require_pair,
)

#: Compute endpoints (admission-gated); GET endpoints bypass admission.
COMPUTE_ROUTES = frozenset({"/v1/diff", "/v1/batch", "/v1/verify"})


@dataclass
class ServeConfig:
    """Everything the server needs, CLI-mappable one flag per field."""

    host: str = "127.0.0.1"
    port: int = 8765  #: 0 binds an ephemeral port (reported after start)
    workers: int = 4
    cache_size: int = 256
    algorithm: str = "fast"
    match: Optional[MatchConfig] = None
    postprocess: bool = True
    verify_fraction: float = 0.0
    queue_capacity: int = 16
    rate: float = 0.0  #: per-client tokens/second; 0 disables rate limiting
    burst: float = 10.0
    max_body_bytes: int = 1 << 20
    deadline_ms: float = 30_000.0
    max_batch: int = 64
    drain_timeout: float = 30.0
    #: Server-side sampling for requests that arrive without trace headers;
    #: requests that *carry* a valid ``X-Trace-Id`` are always traced.
    trace_fraction: float = 0.0
    trace_buffer: int = 2048  #: ring-buffer capacity for closed spans
    trace_export: Optional[str] = None  #: JSONL path flushed on drain


class DiffServer(HttpFront):
    """One engine, one admission controller, one (optional) listening socket."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        engine: Optional[DiffEngine] = None,
        metrics: Optional[ServiceMetrics] = None,
        clock: Clock = SYSTEM_CLOCK,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        super().__init__(self.config.max_body_bytes)
        self.clock = clock
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.tracer = tracer if tracer is not None else Tracer(
            fraction=self.config.trace_fraction,
            capacity=self.config.trace_buffer,
            clock=self.clock,
        )
        if engine is not None:
            self.engine = engine
            self.engine.metrics = self.metrics
            self.engine.tracer = self.tracer
        else:
            self.engine = DiffEngine(
                workers=self.config.workers,
                config=self.config.match,
                algorithm=self.config.algorithm,
                postprocess=self.config.postprocess,
                cache=self.config.cache_size,
                metrics=self.metrics,
                verify_fraction=self.config.verify_fraction,
                tracer=self.tracer,
                clock=self.clock,
            )
        self.admission = AdmissionController(
            queue_capacity=self.config.queue_capacity,
            rate=self.config.rate,
            burst=self.config.burst,
            max_body_bytes=self.config.max_body_bytes,
            default_deadline_ms=self.config.deadline_ms,
            mean_wall_ms=lambda: self.metrics.wall_ms.mean(),
            clock=self.clock,
        )
        self.lifecycle = Lifecycle(
            drain_timeout=self.config.drain_timeout,
            clock=clock,
        )
        self._started = self.clock.monotonic()
        self._job_seq = 0

    # ------------------------------------------------------------------
    # Serve loop
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (resolving port 0 to the real port)."""
        self.lifecycle.bind(asyncio.get_running_loop())
        await self.listen(self.config.host, self.config.port)

    async def run(
        self,
        install_signals: bool = True,
        announce: Optional[Callable[[str], None]] = None,
        dump_metrics: bool = True,
    ) -> Dict[str, Any]:
        """Serve until shutdown is requested, drain, return final metrics."""
        if self.server is None:
            await self.start()
        if install_signals:
            self.lifecycle.install_signal_handlers()
        if announce is not None:
            announce(f"http://{self.config.host}:{self.port}")
        try:
            await self.lifecycle.wait_for_shutdown()
            # Admission releases before the response is written, so the
            # drain waits on both counts.
            await self.lifecycle.drain(
                self, lambda: self.active_requests + self.admission.in_flight
            )
            await self.close_connections()
        finally:
            self.server = None
            self.engine.close()
        if self.config.trace_export:
            dump_final_traces(self.tracer.export_jsonl(), self.config.trace_export)
        snapshot = self.metrics_payload()
        if dump_metrics:
            dump_final_metrics(snapshot)
        return snapshot

    def count(self, name: str) -> None:
        self.metrics.incr(name if name.startswith("rejected_") else f"http_{name}")

    def observe(self, status: int, elapsed_ms: float) -> None:
        super().observe(status, elapsed_ms)
        self.metrics.observe_stage("http", elapsed_ms)

    # ------------------------------------------------------------------
    # The worker core
    # ------------------------------------------------------------------
    async def dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes, peer: str
    ) -> Response:
        if path == "/healthz":
            require_method(method, "GET", path)
            return 200, self.health_payload(), {}
        if path == "/metrics":
            require_method(method, "GET", path)
            return 200, self.metrics_payload(), {}
        if path.startswith("/v1/trace/"):
            require_method(method, "GET", path)
            return 200, self.trace_payload(path[len("/v1/trace/"):]), {}
        if path in COMPUTE_ROUTES:
            require_method(method, "POST", path)
            data = parse_body(body)
            return await self._admitted(
                path, data, headers, headers.get("x-client-id", peer)
            )
        raise HttpError(404, "not_found", f"no route for {path}")

    async def _admitted(
        self, path: str, data: Dict[str, Any], headers: Dict[str, str], client: str
    ) -> Response:
        """The shared admission bracket around every compute endpoint.

        A traced request echoes its trace id back as ``X-Trace-Id``.
        """
        if self.lifecycle.draining:
            self.metrics.incr("rejected_draining")
            raise HttpError(
                503, "draining", "server is draining; retry elsewhere", retry_after=1.0
            )
        worker = self.tracer.root_span(
            "worker",
            kind="worker",
            ctx=extract_trace_context(headers),
            meta={"path": path, "client": client},
        )
        extra = {"X-Trace-Id": worker.trace_id} if worker.trace_id is not None else {}
        # The decision and the queue depth it was made against: a trace
        # shows *why* a request was admitted or refused.
        admission = worker.child("admission", kind="worker")
        decision = self.admission.try_admit(client)
        admission.annotate(
            decision=decision.reason,
            admitted=decision.admitted,
            in_flight=self.admission.in_flight,
        ).close("ok" if decision.admitted else "refused")
        if not decision.admitted:
            worker.close("refused")
            self.metrics.incr(f"rejected_{decision.reason}")
            raise HttpError(
                429,
                decision.reason,
                f"admission refused ({decision.reason}); retry later",
                retry_after=decision.retry_after,
            )
        try:
            with worker:
                deadline = self.admission.deadline(self._requested_deadline(data, headers))
                if path == "/v1/diff":
                    payload = await self._handle_diff(data, deadline, worker.context)
                elif path == "/v1/batch":
                    payload = await self._handle_batch(data, deadline, worker.context)
                else:
                    payload = await self._handle_verify(data, deadline)
            return 200, payload, extra
        finally:
            self.admission.release()

    @staticmethod
    def _requested_deadline(
        data: Dict[str, Any], headers: Dict[str, str]
    ) -> Optional[float]:
        raw = data.get("deadline_ms", headers.get("x-deadline-ms"))
        if raw is None:
            return None
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise HttpError(400, "bad_deadline", f"deadline_ms {raw!r} is not a number")

    async def _compute(self, deadline: Deadline, calls: List[Callable[[], Any]]) -> List[Any]:
        """Run *calls* within the request's deadline; 504 when it passes first."""
        remaining = deadline.remaining()
        if remaining > 0.0:
            try:
                return await self._offload(calls, remaining)
            except asyncio.TimeoutError:
                pass
        self.metrics.incr("deadline_timeouts")
        raise HttpError(
            504,
            "deadline",
            f"no result within the {deadline.budget_s * 1000.0:.0f}ms deadline",
        )

    async def _offload(self, calls: List[Callable[[], Any]], timeout: float) -> List[Any]:
        """The compute leg: answer *calls* in order, bounded by *timeout*.

        Each :class:`~repro.service.engine.DiffJob` runs its lookup here,
        on the loop: a digest short-circuit or a cache hit is answered
        without a thread-pool round trip. When *calls* is one job and
        :meth:`~repro.service.engine.DiffJob.small` holds, what lookup
        left open (a miss, or a hit sampled for the spot check) runs on
        the loop too: such a job takes less time than the pool round trip
        costs, and the job's node and word bounds cap how long it stalls
        the loop. It cannot be stopped at the deadline, so one that ends
        past it raises :class:`asyncio.TimeoutError` like a late pool job.
        Every other open job and every other call (``/v1/verify``) run on
        the engine pool. This is the one step the simulator replaces (it
        runs the calls inline and advances virtual time instead).
        """
        pool = self.engine.pool()
        if len(calls) == 1 and isinstance(calls[0], DiffJob):
            [job] = calls
            started = self.clock.monotonic()
            if not job.lookup() and job.small():
                self.metrics.incr("jobs_inline")
                result = job()
                if self.clock.monotonic() - started > timeout:
                    raise asyncio.TimeoutError
                return [result]
            submitted = [None if job.done else pool.submit(job)]
        else:
            submitted = [
                None if isinstance(call, DiffJob) and call.lookup() else pool.submit(call)
                for call in calls
            ]
        waiters = [asyncio.wrap_future(future) for future in submitted if future is not None]
        if waiters:
            self.metrics.incr("jobs_pooled", len(waiters))
            # asyncio.wait, not wait_for(gather(...)): one fewer loop hop
            # between the pool finishing and this request resuming.
            try:
                _, pending = await asyncio.wait(waiters, timeout=timeout)
            finally:
                for call, future in zip(calls, submitted):
                    # True only for a queued call, which then never runs
                    if future is not None and future.cancel() and isinstance(call, DiffJob):
                        call.abandon()
                for waiter in waiters:
                    waiter.cancel()  # no-op once done
            if pending:
                raise asyncio.TimeoutError
        return [
            call() if future is None else future.result()
            for call, future in zip(calls, submitted)
        ]

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _next_job_id(self, prefix: str) -> str:
        self._job_seq += 1
        return f"{prefix}-{self._job_seq}"

    async def _handle_diff(
        self,
        data: Dict[str, Any],
        deadline: Deadline,
        trace: Optional[Tuple[str, str]] = None,
    ) -> Dict[str, Any]:
        old, new = require_pair(data)
        job_id = str(data.get("id", self._next_job_id("http")))
        [result] = await self._compute(
            deadline, [DiffJob(self.engine, old, new, job_id, trace)]
        )
        include_script = bool(data.get("include_script", True))
        return job_result_to_dict(result, include_script=include_script)

    async def _handle_batch(
        self,
        data: Dict[str, Any],
        deadline: Deadline,
        trace: Optional[Tuple[str, str]] = None,
    ) -> Dict[str, Any]:
        pairs = pairs_from_batch(data, self.config.max_batch)
        results = await self._compute(
            deadline,
            [DiffJob(self.engine, old, new, job_id, trace) for old, new, job_id in pairs],
        )
        include_script = bool(data.get("include_script", True))
        jobs = [job_result_to_dict(r, include_script=include_script) for r in results]
        out = {
            "jobs": jobs,
            "failed": sum(1 for r in results if not r.ok),
            "protocol": PROTOCOL,
        }
        if trace is not None:
            out["trace_id"] = trace[0]
        return out

    async def _handle_verify(
        self, data: Dict[str, Any], deadline: Deadline
    ) -> Dict[str, Any]:
        from ..verify.fuzz import FuzzConfig, check_pair, default_runner

        old, new = require_pair(data)
        algorithm = data.get("algorithm", "both")
        if algorithm not in ("fast", "simple", "both"):
            raise HttpError(400, "bad_algorithm", f"unknown algorithm {algorithm!r}")
        algorithms = ("fast", "simple") if algorithm == "both" else (algorithm,)
        config = FuzzConfig(
            algorithms=algorithms,
            match=self.config.match,
            differential=bool(data.get("differential", False)),
            shrink=False,
        )
        [report] = await self._compute(
            deadline, [partial(check_pair, old, new, config, default_runner)]
        )
        self.metrics.absorb_verify_report(report)
        out = report.to_dict()
        out["protocol"] = PROTOCOL
        return out

    # ------------------------------------------------------------------
    # Introspection payloads
    # ------------------------------------------------------------------
    def health_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.lifecycle.draining else "ok",
            "in_flight": self.admission.in_flight,
            "uptime_s": round(self.clock.monotonic() - self._started, 3),
            "protocol": PROTOCOL,
        }

    def metrics_payload(self) -> Dict[str, Any]:
        snapshot = self.metrics.snapshot()
        snapshot["server"] = dict(self.admission.stats())
        snapshot["server"]["draining"] = self.lifecycle.draining
        cache = self.engine.cache
        snapshot["cache"] = cache.stats() if cache is not None else None
        snapshot["trace"] = self.tracer.stats()
        snapshot["protocol"] = PROTOCOL
        return snapshot

    def trace_payload(self, trace_id: str) -> Dict[str, Any]:
        """The ``GET /v1/trace/<id>`` debug view: this worker's spans."""
        if not is_valid_trace_id(trace_id):
            raise HttpError(400, "bad_trace_id", f"not a trace id: {trace_id!r}")
        trace_id = trace_id.lower()
        spans = self.tracer.trace(trace_id)
        open_spans = self.tracer.open_count(trace_id)
        if not spans and not open_spans:
            raise HttpError(404, "unknown_trace", f"no spans for trace {trace_id}")
        return {
            "trace_id": trace_id,
            "spans": spans,
            "open_spans": open_spans,
            "complete": open_spans == 0 and not validate_trace(spans),
            "protocol": PROTOCOL,
        }
