"""The scenario runner: the real serve stack under virtual time.

This is deterministic simulation testing for the serve/cluster stack. The
topology is in-process — no sockets, no subprocesses — and the request
handling is production's own: every simulated worker incarnation is a real
:class:`~repro.serve.app.DiffServer` (admission, deadlines, spans,
metrics, response shaping) running the real
:class:`~repro.service.engine.DiffEngine` and its
:class:`~repro.service.cache.ScriptCache` on small deterministic tree
pairs; the cluster is a real :class:`~repro.serve.router.Router` (affinity
key, ring walk, failover, suspect feedback); and the simulated client *is*
:class:`~repro.serve.client.DiffServiceClient`. Only transports are
swapped: the client and the router call straight into the next layer, and
coroutines that never suspend are driven inline by :func:`run_inline`.

What the simulator still models on its own is the *process*: crash,
restart, incarnations, occupiers holding admission slots, and the window
before a dead worker leaves the ring. ``Scenario.service_time`` only
advances virtual time after the engine has answered; stage spans and
scripts come from the real engine.

A :class:`Scenario` is a scripted timeline (requests, kills, drains,
slot-occupancy, clock jumps) plus a seeded
:class:`~repro.simtest.faults.FaultPlan`. :func:`run_scenario` replays it
under a :class:`~repro.simtest.clock.SimClock`, checks the declarative
invariants after every step and at the end, and returns a
:class:`ScenarioResult` whose event log is byte-identical for a given
scenario + seed. :func:`shrink_plan` greedily removes faults while the
failure persists — the same minimization discipline as
:func:`repro.verify.fuzz.shrink_pair` — turning a 12-fault nightly seed
into a minimal repro.

Invariants (select per scenario via ``Scenario.invariants``):

``no_failure_with_replacement``
    A client-visible connection-type or no-backend failure while the ring
    held a live replacement (and the cluster was not draining) is a bug —
    failover or retries should have absorbed it.
``retry_discipline``
    Attempts never exceed ``1 + retries + connect_retries``; every backoff
    sleep respects the server's Retry-After floor (capped by
    ``max_retry_after``) and never exceeds ``max(backoff_cap,
    max_retry_after)``.
``drain_integrity``
    A request admitted before the drain completes with 200; requests first
    dispatched while draining never succeed; no admission slot is leaked
    (in-flight returns to exactly the occupied count after every step and
    to zero at the end).
``metrics_conservation``
    Per worker incarnation, ``jobs_submitted == jobs_succeeded +
    jobs_timed_out + jobs_failed``; the cross-incarnation merge via the
    real :func:`~repro.service.metrics.merge_snapshots` preserves the
    sums; and workers report at least as many successes as clients saw.
``script_replays``
    Every 200 ``/v1/diff`` response carries a script that turns the
    request's old tree into its new tree (replayed with
    :meth:`~repro.service.engine.JobResult.verify`).
``convergence``
    Every scripted request eventually succeeded (retries absorbed all
    injected trouble).
``failures_only_while_ring_empty``
    Any failed request must have observed a moment with zero live workers.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Coroutine, Dict, List, Optional, Tuple

from ..core.errors import ReproError
from ..core.serialization import tree_from_dict, tree_to_dict
from ..core.tree import Tree
from ..editscript.script import EditScript
from ..obs.export import validate_trace
from ..obs.trace import Tracer
from ..serve.app import DiffServer, ServeConfig
from ..serve.client import DiffServiceClient, ServiceError
from ..serve.lifecycle import Lifecycle
from ..serve.protocol import PROTOCOL, Response, dumps
from ..serve.router import HashRing, Router, forwarded_headers
from ..service.cache import ScriptCache
from ..service.engine import DiffEngine, JobResult
from ..service.metrics import merge_snapshots
from ..workload import DocumentSpec, MutationEngine, generate_document
from .clock import SimClock
from .events import EventLog
from .faults import FaultInjector, FaultPlan

#: Stride mixed into per-client rng seeds (as in verify.fuzz).
_SEED_STRIDE = 1_000_003

#: Shape of the document each scripted request diffs (13-43 nodes).
_DOC_SPEC = DocumentSpec(
    sections=3, paragraphs_per_section=3, sentences_per_paragraph=2, words_per_sentence=5
)


def derive_rng(seed: int, name: str) -> random.Random:
    """A deterministic, platform-stable rng for one named participant."""
    return random.Random((seed * _SEED_STRIDE) ^ zlib.crc32(name.encode("utf-8")))


def doc_pair(doc: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The wire-form ``(old, new)`` snapshot pair a request for *doc* diffs.

    Same name, same trees — so a repeated document is a cache hit on the
    worker that owns it, exactly like repeat traffic in production.
    """
    seed = zlib.crc32(doc.encode("utf-8"))
    old = generate_document(seed, _DOC_SPEC)
    new = MutationEngine(seed).mutate(old, 3).tree
    return tree_to_dict(old), tree_to_dict(new)


def run_inline(coro: Coroutine[Any, Any, Any]) -> Any:
    """Drive a coroutine that never suspends to its result.

    Every simulated handler is such a coroutine: its awaits reach only
    other in-process coroutines, and waiting happens on the ``SimClock``.
    """
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise RuntimeError("a simulated handler suspended on real I/O")


def script_replays(old: Tree, new: Tree, script: Optional[Dict[str, Any]]) -> bool:
    """True when a response's ``script`` turns *old* into *new*."""
    if script is None:
        return False
    records = script["records"]
    dummy_id = None
    if script["wrapped"]:
        # The dummy root is the one parent neither the tree nor the script made.
        known = set(old.node_ids()) | {r["node_id"] for r in records if r["op"] == "insert"}
        parents = {r.get("parent_id") for r in records} - known - {None}
        dummy_id = parents.pop() if parents else "svc:d"
    result = JobResult(
        job_id="replay",
        script=EditScript.from_dicts(records),
        wrapped=script["wrapped"],
        dummy_id=dummy_id,
    )
    try:
        return result.verify(old, new)
    except (ReproError, LookupError, ValueError, TypeError):
        return False


# ---------------------------------------------------------------------------
# Scripted timeline
# ---------------------------------------------------------------------------
@dataclass
class Step:
    """One timeline entry, executed when virtual time reaches ``at``."""

    at: float
    action: str  #: request | kill | restart | drain | occupy | jump
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Scenario:
    """A complete scripted run: topology, timeline, fault plan, invariants."""

    name: str
    seed: int = 0
    workers: int = 3
    replicas: int = 16
    queue_capacity: int = 8
    rate: float = 0.0
    burst: float = 10.0
    default_deadline_ms: float = 30_000.0
    service_time: float = 0.004  #: virtual seconds a computed diff takes
    hit_factor: float = 0.25  #: cache-hit service time multiplier
    cache_capacity: int = 64
    health_interval: float = 0.5
    backoff_base: float = 0.25
    backoff_cap: float = 2.0
    auto_restart: bool = True
    trace_fraction: float = 1.0  #: share of client requests traced
    client: Dict[str, Any] = field(default_factory=dict)  #: client kwargs
    steps: List[Step] = field(default_factory=list)
    plan: Optional[FaultPlan] = None
    invariants: Tuple[str, ...] = (
        "retry_discipline",
        "drain_integrity",
        "metrics_conservation",
        "script_replays",
        "trace_complete",
    )

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "workers": self.workers,
            "steps": len(self.steps),
            "faults": self.plan.describe() if self.plan else [],
            "invariants": list(self.invariants),
        }


@dataclass
class RequestRecord:
    """The client-side outcome of one scripted request."""

    index: int
    at: float
    client: str
    path: str
    doc: Optional[str]
    status: Optional[int] = None  #: final 2xx status, None on failure
    error_kind: Optional[str] = None  #: payload "error" of the failure
    error_status: Optional[int] = None
    attempts: int = 0
    sleeps: List[float] = field(default_factory=list)
    hints: List[Dict[str, Any]] = field(default_factory=list)
    worker: Optional[str] = None  #: X-Worker-Id that served the success
    script: Optional[Dict[str, Any]] = None  #: the success's wire script
    trace_id: Optional[str] = None  #: minted when the request was sampled
    draining_at_start: bool = False
    live_at_end: int = 0
    min_live_seen: Optional[int] = None

    @property
    def failed(self) -> bool:
        return self.error_kind is not None


# ---------------------------------------------------------------------------
# Simulated topology
# ---------------------------------------------------------------------------
class SimServer(DiffServer):
    """One worker incarnation: a production DiffServer that never binds.

    It runs the real engine; only the compute leg differs. Instead of
    awaiting the engine pool, :meth:`_offload` runs the calls inline and
    then spends the scenario's service time on the ``SimClock``, where
    injected slow responses and crashes land.
    """

    def __init__(self, worker: "SimWorker") -> None:
        spec = worker.spec
        super().__init__(
            ServeConfig(
                queue_capacity=spec.queue_capacity,
                rate=spec.rate,
                burst=spec.burst,
                deadline_ms=spec.default_deadline_ms,
            ),
            engine=DiffEngine(
                cache=ScriptCache(capacity=spec.cache_capacity, faults=worker.faults),
                clock=worker.clock,
            ),
            clock=worker.clock,
            tracer=worker.tracer,
        )
        self.worker = worker

    async def _offload(self, calls: List[Callable[[], Any]], timeout: float) -> List[Any]:
        worker, faults = self.worker, self.worker.faults
        results = [call() for call in calls]
        service = worker.spec.service_time
        if all(getattr(r, "source", None) in ("cache", "digest") for r in results):
            service *= worker.spec.hit_factor
        crash = None
        if faults is not None:
            fault = faults.fire("slow_response", target=worker.worker_id)
            if fault is not None:
                service += fault.magnitude
            crash = faults.fire("worker_crash", target=worker.worker_id)
        if crash is not None:
            # Die halfway through the service time, losing the request.
            worker.clock.sleep(service * 0.5)
            worker.crash()
        else:
            # Timers may fire inside this sleep (scripted kills, drains,
            # occupier releases): the incarnation is re-checked after it.
            worker.clock.sleep(min(service, timeout))
        if worker.server is not self or worker.state != "up":
            raise ConnectionResetError(104, f"{worker.worker_id} crashed mid-request")
        if service > timeout:
            raise asyncio.TimeoutError
        return results


class SimWorker:
    """Process modelling for one shard: crash, restart, incarnations.

    Each incarnation is a fresh :class:`SimServer` — new admission,
    metrics and engine with a **cold** cache, like a respawned subprocess.
    A *crash* retires the incarnation: its metrics snapshot is kept for
    the conservation invariant, with the occupier jobs it was holding
    counted as ``jobs_failed`` (what a dead process loses).
    """

    def __init__(self, worker_id: str, spec: Scenario, clock: SimClock,
                 faults: Optional[FaultInjector], log: EventLog,
                 tracer: Optional[Tracer] = None) -> None:
        self.worker_id = worker_id
        self.spec = spec
        self.clock = clock
        self.faults = faults
        self.log = log
        self.tracer = tracer
        self.state = "up"  #: up | crashed
        self.incarnation = 0
        self.occupier_successes = 0  #: released slots, across incarnations
        self.retired: List[Dict[str, Any]] = []  #: snapshots of dead incarnations
        self._fresh_incarnation()

    def _fresh_incarnation(self) -> None:
        self.server = SimServer(self)
        self.occupied = 0  #: slots held by scripted occupiers

    @property
    def admission(self):
        return self.server.admission

    @property
    def metrics(self):
        return self.server.metrics

    @property
    def cache(self) -> ScriptCache:
        return self.server.engine.cache

    # -- lifecycle -----------------------------------------------------
    def crash(self) -> None:
        if self.state == "crashed":
            return
        lost = self.admission.in_flight
        if self.occupied:
            # Requests finish their engine job before their service time,
            # so occupier ballast is the only work still open.
            self.metrics.incr("jobs_failed", self.occupied)
        self.state = "crashed"
        self.retired.append(self.snapshot())
        self.log.emit(
            "worker_crash", self.clock.monotonic(),
            worker=self.worker_id, incarnation=self.incarnation, lost_in_flight=lost,
        )

    def restart(self) -> None:
        self.incarnation += 1
        self._fresh_incarnation()
        self.state = "up"
        self.log.emit(
            "worker_up", self.clock.monotonic(),
            worker=self.worker_id, incarnation=self.incarnation,
        )

    def snapshot(self) -> Dict[str, Any]:
        snap = self.metrics.snapshot()
        snap["cache"] = self.cache.stats()
        return snap

    # -- scripted occupancy (stands in for concurrent long jobs) -------
    def occupy(self, slots: int, hold_s: float) -> int:
        """Grab *slots* admission slots, releasing them after ``hold_s``."""
        taken = 0
        incarnation = self.incarnation
        for index in range(slots):
            decision = self.admission.try_admit(f"occupier-{self.worker_id}-{index}")
            if not decision.admitted:
                break
            taken += 1
            self.occupied += 1
            self.metrics.incr("jobs_submitted")

            def _release() -> None:
                if self.incarnation != incarnation or self.state == "crashed":
                    return  # the crash already accounted for this slot
                self.occupied -= 1
                self.occupier_successes += 1
                self.metrics.incr("jobs_succeeded")
                self.admission.release()

            self.clock.call_later(hold_s, _release)
        return taken


class SimCluster:
    """The sim's topology: a production Router over in-process workers.

    The Router is the real one, its transport swapped for a direct call
    into the owning worker's :class:`SimServer`. What stays here is the
    supervisor's part, modelled: a scripted ``kill`` crashes a worker at
    once but removes it from the ring only when *noticed* — by a failed
    dispatch (the router's suspect feedback) or by the next health tick —
    preserving the detection window that makes failover scenarios
    interesting; a capped-backoff ``SimClock`` timer restarts it.
    """

    def __init__(self, spec: Scenario, clock: SimClock,
                 faults: Optional[FaultInjector], log: EventLog,
                 tracer: Optional[Tracer] = None) -> None:
        self.spec = spec
        self.clock = clock
        self.faults = faults
        self.log = log
        self.ring = HashRing(replicas=spec.replicas)
        self.workers: Dict[str, SimWorker] = {}
        for index in range(spec.workers):
            worker_id = f"w{index}"
            self.workers[worker_id] = SimWorker(
                worker_id, spec, clock, faults, log, tracer=tracer
            )
            self.ring.add(worker_id)
        self.router = Router(
            ring=self.ring,
            ports={},
            lifecycle=Lifecycle(clock=clock),
            health_payload=self.health_payload,
            # No sockets to fan /metrics out to: merge the incarnations here.
            merge_metrics=lambda _fetched: merge_snapshots(self.all_snapshots()),
            on_backend_failure=self.suspect,
            clock=clock,
            tracer=tracer,
            transport=self._forward,
        )
        self._min_live_probe: Optional[List[int]] = None

    @property
    def draining(self) -> bool:
        return self.router.lifecycle.draining

    def live_count(self) -> int:
        return len(self.ring)

    def in_flight_total(self) -> int:
        return sum(
            w.admission.in_flight for w in self.workers.values() if w.state == "up"
        )

    def occupied_total(self) -> int:
        return sum(w.occupied for w in self.workers.values() if w.state == "up")

    # -- worker lifecycle ----------------------------------------------
    def kill(self, worker_id: str) -> None:
        worker = self.workers[worker_id]
        worker.crash()
        # Detection: the next health tick notices the corpse even if no
        # request trips over it first.
        self.clock.call_later(
            self.spec.health_interval, self._health_check, worker_id
        )

    def _health_check(self, worker_id: str) -> None:
        worker = self.workers[worker_id]
        if worker.state == "crashed" and worker_id in self.ring:
            self._mark_down(worker_id)

    def suspect(self, worker_id: str) -> None:
        """The router's feedback after a failed forwarding attempt."""
        self.log.emit("failover", self.clock.monotonic(), worker=worker_id)
        self._health_check(worker_id)
        self._note_live()

    def _mark_down(self, worker_id: str) -> None:
        self.ring.remove(worker_id)
        self.router.count("workers_down")
        self.log.emit(
            "worker_down", self.clock.monotonic(),
            worker=worker_id, live=self.ring.members(),
        )
        if self.spec.auto_restart:
            worker = self.workers[worker_id]
            backoff = min(
                self.spec.backoff_cap,
                self.spec.backoff_base * (2.0 ** min(worker.incarnation, 16)),
            )
            self.clock.call_later(backoff, self._restart, worker_id)

    def _restart(self, worker_id: str) -> None:
        worker = self.workers[worker_id]
        if self.draining or worker.state != "crashed":
            return
        worker.restart()
        self.ring.add(worker_id)
        self.router.count("restarts")

    def restart_now(self, worker_id: str) -> None:
        """Scripted restart (timeline action), bypassing the backoff."""
        worker = self.workers[worker_id]
        if worker.state == "crashed":
            if worker_id in self.ring:
                self.ring.remove(worker_id)
            worker.restart()
            self.ring.add(worker_id)
            self.router.count("restarts")

    def drain(self) -> None:
        self.router.lifecycle.request_shutdown()
        self.log.emit(
            "drain_start", self.clock.monotonic(), in_flight=self.in_flight_total()
        )

    # -- transports ------------------------------------------------------
    def request(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Response:
        """One client attempt through the router, driven inline."""
        self._note_live()
        return run_inline(self.router.handle(method, path, headers, body))

    async def _forward(
        self,
        worker_id: str,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        trace: Optional[Tuple[str, str]],
    ) -> Tuple[int, bytes]:
        """The router's transport: a direct call into the worker."""
        worker = self.workers[worker_id]
        if worker.state != "up":
            raise ConnectionRefusedError(111, f"{worker_id} is down")
        if self.faults is not None:
            if self.faults.fire("conn_refused", target=worker_id):
                raise ConnectionRefusedError(111, f"injected conn_refused at {worker_id}")
        status, payload, _ = await worker.server.handle(
            method, path, forwarded_headers(headers, trace), body
        )
        return status, dumps(payload)

    def _note_live(self) -> None:
        if self._min_live_probe is not None:
            self._min_live_probe[0] = min(self._min_live_probe[0], len(self.ring))

    def health_payload(self) -> Dict[str, Any]:
        up = self.ring.members()
        return {
            "status": "draining" if self.draining
            else ("ok" if len(up) == len(self.workers) else "degraded"),
            "workers_up": len(up),
            "live": up,
            "protocol": PROTOCOL,
        }

    def all_snapshots(self) -> Dict[str, Dict[str, Any]]:
        """Every incarnation's metrics, retired and live (``w0@0``, ``w0``…)."""
        snapshots: Dict[str, Dict[str, Any]] = {}
        for worker_id, worker in sorted(self.workers.items()):
            for index, retired in enumerate(worker.retired):
                snapshots[f"{worker_id}@{index}"] = retired
            if worker.state == "up":
                snapshots[worker_id] = worker.snapshot()
        return snapshots


class _SimConnection:
    """The slice of ``http.client.HTTPConnection`` the client uses,
    answered by the sim cluster's router instead of a socket."""

    def __init__(self, cluster: SimCluster) -> None:
        self._cluster = cluster
        self._response: Optional[_SimResponse] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                headers: Optional[Dict[str, str]] = None) -> None:
        lowered = {name.lower(): value for name, value in (headers or {}).items()}
        self._response = _SimResponse(
            self._cluster.request(method, path, lowered, body or b"")
        )

    def getresponse(self) -> "_SimResponse":
        assert self._response is not None, "getresponse() before request()"
        return self._response

    def close(self) -> None:
        pass


class _SimResponse:
    """The slice of ``http.client.HTTPResponse`` the client reads."""

    def __init__(self, response: Response) -> None:
        self.status, payload, self.headers = response
        self._body = payload if isinstance(payload, bytes) else dumps(payload)

    def read(self) -> bytes:
        return self._body


class SimServiceClient(DiffServiceClient):
    """The production client with only its connection swapped for the sim.

    ``request_once`` and everything above it — client-leg injection
    points, backoff, jitter, Retry-After floors, the separate
    connection-refused budget — run unchanged; each attempt's outcome is
    also noted in ``attempt_log`` for the invariants.
    """

    def __init__(self, cluster: SimCluster, clock: SimClock, name: str,
                 rng: random.Random, **kwargs: Any) -> None:
        super().__init__(
            host="sim", port=0, client_id=name, clock=clock, rng=rng, **kwargs
        )
        self._cluster = cluster
        self.attempt_log: List[Dict[str, Any]] = []

    def _connection(self) -> Any:
        return _SimConnection(self._cluster)

    def request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        trace: Optional[Tuple[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        try:
            status, decoded, headers = super().request_once(method, path, payload, trace)
        except OSError as exc:
            self.attempt_log.append({"exc": type(exc).__name__})
            raise
        self.attempt_log.append({
            "status": status,
            "hint": self._retry_after_hint(decoded, headers),
            "worker": headers.get("X-Worker-Id"),
        })
        return status, decoded, headers


# ---------------------------------------------------------------------------
# Result + runner
# ---------------------------------------------------------------------------
@dataclass
class ScenarioResult:
    name: str
    seed: int
    violations: List[str]
    records: List[RequestRecord]
    log: EventLog
    stats: Dict[str, Any]

    @property
    def ok(self) -> bool:
        return not self.violations

    def event_jsonl(self) -> str:
        return self.log.to_jsonl()

    def summary(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "violations": list(self.violations),
            "requests": len(self.records),
            "failed_requests": sum(1 for r in self.records if r.failed),
            "events": len(self.log),
            "stats": self.stats,
        }


class _Run:
    """Mutable state shared by the runner and the invariants."""

    def __init__(self, spec: Scenario) -> None:
        self.spec = spec
        self.clock = SimClock()
        self.log = EventLog()
        self.injector = (
            FaultInjector(
                plan=spec.plan.clone(), clock=self.clock, log=self.log
            )
            if spec.plan is not None
            else None
        )
        # One tracer for the whole sim: client, router leg, and every
        # worker record into it, and each closed span becomes an event —
        # so a seed's span tree is part of the byte-identical log.
        self.tracer: Optional[Tracer] = None
        if spec.trace_fraction > 0.0:
            self.tracer = Tracer(
                fraction=spec.trace_fraction,
                capacity=65536,
                clock=self.clock,
                rng=derive_rng(spec.seed, "tracer"),
                on_close=lambda record: self.log.emit(
                    "span", self.clock.monotonic(), record=record
                ),
            )
        self.cluster = SimCluster(
            spec, self.clock, self.injector, self.log, tracer=self.tracer
        )
        self.clients: Dict[str, SimServiceClient] = {}
        self.records: List[RequestRecord] = []
        self.violations: List[str] = []
        self.drained_at: Optional[float] = None

    def client(self, name: str) -> SimServiceClient:
        client = self.clients.get(name)
        if client is None:
            client = SimServiceClient(
                self.cluster,
                self.clock,
                name,
                rng=derive_rng(self.spec.seed, name),
                faults=self.injector,
                tracer=self.tracer,
                **self.spec.client,
            )
            self.clients[name] = client
        return client


def run_scenario(spec: Scenario) -> ScenarioResult:
    """Replay *spec* under virtual time; deterministic per (scenario, seed)."""
    run = _Run(spec)
    clock, cluster, log = run.clock, run.cluster, run.log
    log.emit("scenario_start", 0.0, **spec.describe())

    for index, step in enumerate(sorted(spec.steps, key=lambda s: s.at)):
        if run.injector is not None:
            jump = run.injector.fire("clock_jump")
            if jump is not None:
                clock.jump(jump.magnitude)
                log.emit("clock_jump", clock.monotonic(), magnitude=jump.magnitude)
        if step.at > clock.monotonic():
            clock.sleep(step.at - clock.monotonic())
        log.emit("step", clock.monotonic(), index=index, action=step.action,
                 **{k: v for k, v in step.kwargs.items() if k != "payload"})
        _execute_step(run, index, step)
        _check_step_invariants(run, index, step)

    # Let restart backoffs and occupier releases play out.
    clock.run_until_idle()
    for name in spec.invariants:
        checker = INVARIANTS.get(name)
        if checker is None:
            run.violations.append(f"unknown invariant {name!r}")
            continue
        run.violations.extend(checker(run))

    stats = {
        "cluster": dict(sorted(cluster.router.counters.items())),
        "live_workers": cluster.ring.members(),
        "virtual_elapsed_s": round(clock.elapsed, 9),
        "timers_fired": clock.fired,
        "faults_fired": len(run.injector.fired) if run.injector else 0,
        "trace": run.tracer.stats() if run.tracer is not None else None,
        "cache": {
            worker_id: worker.cache.stats()
            for worker_id, worker in sorted(cluster.workers.items())
        },
        "merged_counters": merge_snapshots(cluster.all_snapshots())["counters"],
    }
    log.emit(
        "scenario_end", clock.monotonic(),
        ok=not run.violations, violations=run.violations,
    )
    return ScenarioResult(
        name=spec.name,
        seed=spec.seed,
        violations=run.violations,
        records=run.records,
        log=log,
        stats=stats,
    )


def _execute_step(run: _Run, index: int, step: Step) -> None:
    cluster, clock = run.cluster, run.clock
    kwargs = step.kwargs
    if step.action == "request":
        _run_request(run, index, step)
    elif step.action == "kill":
        cluster.kill(kwargs["worker"])
    elif step.action == "restart":
        cluster.restart_now(kwargs["worker"])
    elif step.action == "drain":
        cluster.drain()
        run.drained_at = clock.monotonic()
    elif step.action == "occupy":
        taken = cluster.workers[kwargs["worker"]].occupy(
            kwargs.get("slots", 1), kwargs.get("hold_s", 1.0)
        )
        run.log.emit(
            "occupy", clock.monotonic(), worker=kwargs["worker"], taken=taken
        )
    elif step.action == "jump":
        clock.jump(kwargs.get("seconds", 0.0))
        run.log.emit("clock_jump", clock.monotonic(),
                     magnitude=kwargs.get("seconds", 0.0))
    else:
        raise ValueError(f"unknown step action {step.action!r}")


def _run_request(run: _Run, index: int, step: Step) -> None:
    kwargs = step.kwargs
    client = run.client(kwargs.get("client", "c0"))
    path = kwargs.get("path", "/v1/diff")
    doc = kwargs.get("doc")
    old, new = doc_pair(doc or "")
    payload: Dict[str, Any] = {"id": doc, "old": old, "new": new}
    if kwargs.get("deadline_ms") is not None:
        payload["deadline_ms"] = kwargs["deadline_ms"]

    record = RequestRecord(
        index=index,
        at=run.clock.monotonic(),
        client=client.client_id or "c0",
        path=path,
        doc=doc,
        draining_at_start=run.cluster.draining,
    )
    sleeps_before = len(client.sleeps)
    attempts_before = len(client.attempt_log)
    probe = [run.cluster.live_count()]
    run.cluster._min_live_probe = probe
    try:
        decoded = client.request("POST", path, payload)
    except ServiceError as exc:
        record.error_kind = exc.payload.get("error", "error")
        record.error_status = exc.status
        record.attempts = exc.attempts
    else:
        record.status = 200
        record.worker = client.attempt_log[-1].get("worker")
        record.script = decoded.get("script")
        record.attempts = len(client.attempt_log) - attempts_before
    finally:
        record.trace_id = client.last_trace_id
        run.cluster._min_live_probe = None
    record.sleeps = client.sleeps[sleeps_before:]
    record.hints = client.attempt_log[attempts_before:]
    record.live_at_end = run.cluster.live_count()
    record.min_live_seen = probe[0]
    run.records.append(record)
    run.log.emit(
        "request_end", run.clock.monotonic(),
        index=index, client=record.client, doc=doc,
        status=record.status, error=record.error_kind,
        attempts=record.attempts, worker=record.worker,
        sleeps=record.sleeps, trace=record.trace_id,
    )


def _check_step_invariants(run: _Run, index: int, step: Step) -> None:
    """Checks that must hold at every step boundary, not just at the end."""
    cluster = run.cluster
    in_flight = cluster.in_flight_total()
    occupied = cluster.occupied_total()
    if in_flight != occupied:
        run.violations.append(
            f"step {index} ({step.action}): leaked admission slot — "
            f"in_flight={in_flight} but occupied={occupied}"
        )


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------
def _inv_no_failure_with_replacement(run: _Run) -> List[str]:
    out = []
    for record in run.records:
        if not record.failed or record.draining_at_start:
            continue
        if record.error_kind not in ("connection", "no_backend", "unreachable"):
            continue  # 4xx/504/draining failures are judged by other invariants
        if record.live_at_end >= 1 and not run.cluster.draining:
            out.append(
                f"request {record.index} ({record.doc}): client-visible "
                f"{record.error_kind} failure with {record.live_at_end} live "
                f"worker(s) on the ring"
            )
    return out


def _inv_retry_discipline(run: _Run) -> List[str]:
    out = []
    for record in run.records:
        client = run.clients[record.client]
        budget = 1 + client.retries + client.connect_retries
        if record.attempts > budget:
            out.append(
                f"request {record.index}: {record.attempts} attempts exceeds "
                f"budget {budget}"
            )
        ceiling = max(client.backoff_cap, client.max_retry_after) + 1e-9
        for position, delay in enumerate(record.sleeps):
            if delay > ceiling:
                out.append(
                    f"request {record.index}: sleep {position} = {delay:.3f}s "
                    f"exceeds ceiling {ceiling:.3f}s"
                )
            attempt = record.hints[position] if position < len(record.hints) else {}
            hint = attempt.get("hint", 0.0) or 0.0
            floor = min(hint, client.max_retry_after)
            if floor > 0 and delay + 1e-9 < floor:
                out.append(
                    f"request {record.index}: sleep {position} = {delay:.3f}s "
                    f"undercuts Retry-After floor {floor:.3f}s"
                )
    return out


def _inv_drain_integrity(run: _Run) -> List[str]:
    out = []
    in_flight = run.cluster.in_flight_total()
    if in_flight != run.cluster.occupied_total():
        out.append(f"drain left {in_flight} request(s) in flight at scenario end")
    for record in run.records:
        if record.draining_at_start and record.status == 200:
            out.append(
                f"request {record.index} was first dispatched while draining "
                f"but succeeded"
            )
    return out


def _inv_metrics_conservation(run: _Run) -> List[str]:
    out = []
    snapshots = run.cluster.all_snapshots()
    totals = {"jobs_submitted": 0, "jobs_succeeded": 0,
              "jobs_timed_out": 0, "jobs_failed": 0}
    for tag, snap in snapshots.items():
        counters = snap["counters"]
        submitted = counters.get("jobs_submitted", 0)
        closed = (
            counters.get("jobs_succeeded", 0)
            + counters.get("jobs_timed_out", 0)
            + counters.get("jobs_failed", 0)
        )
        if submitted != closed:
            out.append(
                f"{tag}: jobs_submitted={submitted} != "
                f"succeeded+timed_out+failed={closed}"
            )
        for name in totals:
            totals[name] += counters.get(name, 0)
    merged = merge_snapshots(snapshots)["counters"]
    for name, expected in totals.items():
        if merged.get(name, 0) != expected:
            out.append(
                f"merge_snapshots lost counts: {name} merged={merged.get(name, 0)} "
                f"expected={expected}"
            )
    client_successes = sum(
        1 for r in run.records if r.status == 200 and r.path == "/v1/diff"
    )
    worker_successes = totals["jobs_succeeded"] - _occupier_successes(run)
    if worker_successes < client_successes:
        out.append(
            f"workers report {worker_successes} successes but clients saw "
            f"{client_successes}"
        )
    return out


def _occupier_successes(run: _Run) -> int:
    # Occupier jobs are pure admission ballast; their successes are the
    # released slots (crashed occupiers were converted to jobs_failed).
    return sum(w.occupier_successes for w in run.cluster.workers.values())


def _inv_script_replays(run: _Run) -> List[str]:
    out = []
    for record in run.records:
        if record.status != 200 or record.path != "/v1/diff":
            continue
        old, new = (tree_from_dict(tree) for tree in doc_pair(record.doc or ""))
        if not script_replays(old, new, record.script):
            out.append(
                f"request {record.index} ({record.doc}): the returned script "
                f"does not turn the old tree into the new one"
            )
    return out


def _inv_convergence(run: _Run) -> List[str]:
    return [
        f"request {record.index} ({record.doc}) failed: "
        f"{record.error_kind} (HTTP {record.error_status}) "
        f"after {record.attempts} attempts"
        for record in run.records
        if record.failed
    ]


def _inv_trace_complete(run: _Run) -> List[str]:
    """Every 2xx request that was sampled left a fully-closed span tree."""
    out = []
    if run.tracer is None:
        return out
    for record in run.records:
        if record.status != 200 or record.trace_id is None:
            continue
        open_count = run.tracer.open_count(record.trace_id)
        if open_count:
            out.append(
                f"request {record.index}: trace {record.trace_id} still has "
                f"{open_count} open span(s) after a 2xx response"
            )
            continue
        spans = run.tracer.trace(record.trace_id)
        if not spans:
            out.append(
                f"request {record.index}: sampled trace {record.trace_id} "
                f"recorded no spans"
            )
            continue
        for problem in validate_trace(spans):
            out.append(
                f"request {record.index} (trace {record.trace_id}): {problem}"
            )
    return out


def _inv_failures_only_while_ring_empty(run: _Run) -> List[str]:
    out = []
    for record in run.records:
        if record.failed and (record.min_live_seen or 0) > 0:
            out.append(
                f"request {record.index} failed but never saw an empty ring "
                f"(min live = {record.min_live_seen})"
            )
    return out


INVARIANTS: Dict[str, Callable[[_Run], List[str]]] = {
    "no_failure_with_replacement": _inv_no_failure_with_replacement,
    "retry_discipline": _inv_retry_discipline,
    "drain_integrity": _inv_drain_integrity,
    "metrics_conservation": _inv_metrics_conservation,
    "script_replays": _inv_script_replays,
    "trace_complete": _inv_trace_complete,
    "convergence": _inv_convergence,
    "failures_only_while_ring_empty": _inv_failures_only_while_ring_empty,
}


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------
def shrink_plan(
    spec: Scenario,
    failing: Optional[Callable[[ScenarioResult], bool]] = None,
) -> Tuple[Scenario, ScenarioResult]:
    """Greedily minimize ``spec.plan`` while the scenario keeps failing.

    Re-runs the scenario without one fault at a time (each run fully fresh
    and deterministic) and keeps every removal that preserves the failure —
    the same discipline as :func:`repro.verify.fuzz.shrink_pair`. Returns
    the minimized scenario and its (still failing) result; a passing input
    comes back untouched.
    """
    is_failing = failing if failing is not None else (lambda result: not result.ok)
    result = run_scenario(spec)
    if not is_failing(result) or spec.plan is None:
        return spec, result
    plan = spec.plan.clone()
    progress = True
    while progress and len(plan) > 0:
        progress = False
        for index in range(len(plan)):
            candidate_plan = plan.without(index)
            candidate = _with_plan(spec, candidate_plan)
            trial = run_scenario(candidate)
            if is_failing(trial):
                plan = candidate_plan
                result = trial
                progress = True
                break
    final = _with_plan(spec, plan)
    return final, run_scenario(final)


def _with_plan(spec: Scenario, plan: FaultPlan) -> Scenario:
    return dataclasses.replace(spec, plan=plan.clone())
