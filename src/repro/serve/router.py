"""Cache-affinity routing for the cluster: consistent hashing + HTTP proxy.

The cluster's front process accepts every client connection and forwards
compute requests to one of N single-process :mod:`repro.serve.app` workers.
Which worker is not arbitrary: the router consistent-hashes a per-request
**affinity key** onto a ring of virtual nodes, so the same document pair
always lands on the same worker and its digest-keyed
:class:`~repro.service.cache.ScriptCache` entry stays warm *shard-locally*.
Without affinity a warm entry would exist on one worker while requests
round-robin across all of them, and the warm≥cold speedup gate would decay
by roughly the worker count.

Affinity key, in precedence order:

1. the ``X-Affinity-Key`` request header (set by
   :class:`~repro.serve.client.DiffServiceClient` from the job id);
2. the SHA-1 of the raw body bytes (of the path when there is no body) —
   identical snapshot pairs hash identically, so even anonymous repeat
   traffic stays cache-affine.

The router never decodes a body: every dict-format tree carries ``"id"``
keys, so finding a job id there would take a full JSON decode per
request, far dearer than the hash.

Failover: every compute endpoint is a pure function of its body, so a
request whose backend dies mid-flight (connection refused, reset, or a
truncated response) is **replayed** on the next distinct worker along the
ring. The ring handles re-ranging naturally — removing a worker reassigns
only that worker's arc to its ring successors, everything else keeps its
shard (and its warm cache).

The replay chain (:meth:`Router._proxy`) is transport-agnostic: each
attempt goes through ``Router.transport``, a socket exchange in
production and a direct call into an in-process worker in the simulator.

The socket leg keeps its connections: an :class:`UpstreamPool` holds up
to :data:`MAX_IDLE_PER_WORKER` idle keep-alive connections per worker, so
a proxied request reuses one instead of paying a TCP connect, a worker
connection task and a teardown. Idle sockets are filed under the port
they were opened to, so a worker respawned on a new port never gets the
old port's sockets, and a socket whose worker left the port map while
its request was in flight is closed, not returned. The supervisor's
down notice (suspect, restart, rolling restart) closes a worker's idle
sockets, and the router's drain closes all of them.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from bisect import bisect_left, insort
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from ..obs.export import merge_spans
from ..obs.trace import (
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    Tracer,
    extract_trace_context,
    is_valid_trace_id,
)
from ..simtest.clock import SYSTEM_CLOCK, Clock
from .lifecycle import Lifecycle
from .protocol import (
    PROTOCOL,
    HttpError,
    HttpFront,
    NoResponse,
    Response,
    close_quietly,
    encode_request,
    fetch_json,
    require_method,
    roundtrip,
)

#: Request headers forwarded verbatim to the backend worker.
FORWARDED_HEADERS = ("x-client-id", "x-deadline-ms", "x-affinity-key", "accept")

#: One forwarding attempt:
#: ``(worker_id, method, path, headers, body, trace) -> (status, body)``.
Transport = Callable[
    [str, str, str, Dict[str, str], bytes, Optional[Tuple[str, str]]],
    Awaitable[Tuple[int, bytes]],
]


#: Idle keep-alive connections kept per worker. A burst wider than this
#: opens extra connections, which close after their response. The value
#: is a guess: the one benchmark workload through the router has a single
#: client, so it never holds more than one idle socket per worker, and no
#: concurrent run has measured this bound.
MAX_IDLE_PER_WORKER = 8

#: One open upstream connection.
Upstream = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class UpstreamPool:
    """Idle keep-alive connections to the workers, per worker and port.

    A worker's idle list is tagged with the port its sockets were opened
    to; taking or returning a connection under another port closes the
    old ones first. The most recently returned connection is reused
    first. After :meth:`close` every returned connection is closed.
    """

    def __init__(self) -> None:
        self._closed = False
        self._idle: Dict[str, Tuple[int, List[Upstream]]] = {}

    def take(self, worker_id: str, port: int) -> Optional[Upstream]:
        """An idle connection to *worker_id* on *port*, or None."""
        entry = self._idle.get(worker_id)
        if entry is None:
            return None
        if entry[0] != port:
            self.drop(worker_id)
            return None
        return entry[1].pop() if entry[1] else None

    def put(self, worker_id: str, port: int, conn: Upstream) -> None:
        """File *conn* as idle; close it if the pool is closed or full."""
        if self._closed:
            conn[1].close()
            return
        entry = self._idle.get(worker_id)
        if entry is None or entry[0] != port:
            self.drop(worker_id)
            entry = self._idle[worker_id] = (port, [])
        if len(entry[1]) < MAX_IDLE_PER_WORKER:
            entry[1].append(conn)
        else:
            conn[1].close()

    def drop(self, worker_id: str) -> None:
        """Close every idle connection to *worker_id*."""
        _, conns = self._idle.pop(worker_id, (0, []))
        for _, writer in conns:
            writer.close()

    async def close(self) -> None:
        """Close every idle connection; later returns are closed too."""
        self._closed = True
        writers = [writer for _, conns in self._idle.values() for _, writer in conns]
        self._idle.clear()
        await asyncio.gather(*(close_quietly(writer) for writer in writers))


def says_draining(status: int, body: bytes) -> bool:
    """Whether a worker's answer is the 503 it gives while it drains."""
    if status != 503:
        return False
    try:
        return json.loads(body).get("error") == "draining"
    except (ValueError, AttributeError):
        return False


def forwarded_headers(
    headers: Dict[str, str], trace: Optional[Tuple[str, str]]
) -> Dict[str, str]:
    """What a proxied request carries to its worker (lowercased names).

    The trace id travels verbatim; the parent span becomes the proxy leg
    so the worker hangs beneath it.
    """
    out = {name: headers[name] for name in FORWARDED_HEADERS if name in headers}
    if trace is not None:
        out[TRACE_ID_HEADER.lower()] = trace[0]
        out[SPAN_ID_HEADER.lower()] = trace[1]
    return out


def hash_key(key: str) -> int:
    """Stable 64-bit ring position of *key* (SHA-1 prefix, not ``hash()``)."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring over worker ids with virtual nodes.

    Each member contributes ``replicas`` points so arcs stay balanced; a
    key is assigned to the owner of the first point at or clockwise after
    the key's own hash. Adding or removing one member only moves the keys
    of that member's arcs — the *minimal movement* property the failover
    and rolling-restart paths rely on to keep caches warm elsewhere.
    """

    def __init__(self, replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = []  # sorted (hash, worker_id)
        self._members: set = set()

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._members

    def members(self) -> List[str]:
        return sorted(self._members)

    def add(self, worker_id: str) -> None:
        """Insert a member's virtual nodes (idempotent)."""
        if worker_id in self._members:
            return
        self._members.add(worker_id)
        for replica in range(self.replicas):
            insort(self._points, (hash_key(f"{worker_id}#{replica}"), worker_id))

    def remove(self, worker_id: str) -> None:
        """Drop a member; its arcs fall to the ring successors (idempotent)."""
        if worker_id not in self._members:
            return
        self._members.discard(worker_id)
        self._points = [point for point in self._points if point[1] != worker_id]

    def assign(self, key: str) -> Optional[str]:
        """The owning worker for *key*, or None when the ring is empty."""
        chain = self.assign_chain(key, count=1)
        return chain[0] if chain else None

    def assign_chain(self, key: str, count: Optional[int] = None) -> List[str]:
        """Up to *count* distinct workers in ring order starting at *key*.

        The first entry is :meth:`assign`'s answer; the rest are the
        deterministic failover order — exactly the workers that would
        inherit the key if earlier entries left the ring.
        """
        if not self._points:
            return []
        if count is None:
            count = len(self._members)
        position = bisect_left(self._points, (hash_key(key), ""))
        total = len(self._points)
        out: List[str] = []
        seen: set = set()
        for step in range(total):
            worker_id = self._points[(position + step) % total][1]
            if worker_id not in seen:
                seen.add(worker_id)
                out.append(worker_id)
                if len(out) >= count:
                    break
        return out


def affinity_key(path: str, headers: Dict[str, str], body: bytes) -> str:
    """The routing key of one request (header > body hash > path hash)."""
    explicit = headers.get("x-affinity-key")
    if explicit:
        return explicit
    return hashlib.sha1(body if body else path.encode("utf-8")).hexdigest()


class Router(HttpFront):
    """The cluster's front listener: parse, route, proxy, fail over.

    GET ``/healthz`` and ``/metrics`` are answered by the router itself
    (cluster topology / merged per-worker snapshots via the injected
    callbacks); everything else is proxied to the affinity-assigned worker
    with replay-on-failure across the ring chain.
    """

    def __init__(
        self,
        ring: HashRing,
        ports: Dict[str, int],
        lifecycle: Lifecycle,
        health_payload: Callable[[], Dict[str, Any]],
        merge_metrics: Callable[[Dict[str, Dict[str, Any]]], Dict[str, Any]],
        on_backend_failure: Optional[Callable[[str], None]] = None,
        backend_host: str = "127.0.0.1",
        max_body_bytes: int = 1 << 20,
        connect_timeout: float = 5.0,
        proxy_timeout: float = 120.0,
        clock: Clock = SYSTEM_CLOCK,
        tracer: Optional[Tracer] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        super().__init__(max_body_bytes)
        self.ring = ring
        self.ports = ports
        self.lifecycle = lifecycle
        self.health_payload = health_payload
        self.merge_metrics = merge_metrics
        self.on_backend_failure = on_backend_failure
        self.backend_host = backend_host
        self.connect_timeout = connect_timeout
        self.proxy_timeout = proxy_timeout
        self.clock = clock
        # Propagate-only by default: the router never originates traces,
        # it records one ``router.proxy`` span per forwarding attempt for
        # requests that arrive with a valid X-Trace-Id.
        self.tracer = tracer if tracer is not None else Tracer(clock=self.clock)
        #: How each forwarding attempt reaches its worker (the socket leg
        #: unless one is passed in).
        self.transport: Transport = transport if transport is not None else self._forward
        #: Idle keep-alive connections of the socket leg.
        self.upstream = UpstreamPool()
        #: Loop-thread-only counters surfaced under ``cluster.router``.
        self.counters: Dict[str, int] = {}
        self._started = self.clock.monotonic()

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes, peer: str
    ) -> Response:
        if path == "/healthz":
            require_method(method, "GET", path)
            return 200, self.health_payload(), {}
        if path == "/metrics":
            require_method(method, "GET", path)
            return 200, await self.aggregate_metrics(), {}
        if path.startswith("/v1/trace/"):
            require_method(method, "GET", path)
            return 200, await self.aggregate_trace(path[len("/v1/trace/"):]), {}
        if self.lifecycle.draining:
            self.count("rejected_draining")
            raise HttpError(
                503, "draining", "cluster is draining; retry elsewhere", retry_after=1.0
            )
        return await self._proxy(method, path, headers, body)

    async def _proxy(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Response:
        key = affinity_key(path, headers, body)
        chain = self.ring.assign_chain(key)
        last_error = "no live workers"
        ctx = extract_trace_context(headers)
        for position, worker_id in enumerate(chain):
            # One span per forwarding attempt: a replayed request shows its
            # whole failover chain. The worker's parent becomes this proxy
            # span, while the trace id passes through verbatim.
            span = self.tracer.span(
                "router.proxy",
                kind="router",
                ctx=ctx,
                meta={"worker": worker_id, "position": position},
            )
            try:
                status, resp_body = await self.transport(
                    worker_id, method, path, headers, body, span.context
                )
            except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError) as exc:
                # The backend died under the request. Compute endpoints are
                # pure functions of the body, so replaying on the next ring
                # successor is safe — the client never sees the crash.
                self.count("proxy_failovers")
                last_error = f"{worker_id}: {type(exc).__name__}: {exc}"
                span.annotate(error=type(exc).__name__).close("failover")
                if self.on_backend_failure is not None:
                    self.on_backend_failure(worker_id)
                continue
            self.count("proxied")
            if position > 0:
                self.count("proxied_rerouted")
            span.annotate(status=status).close("ok")
            return status, resp_body, {"X-Worker-Id": worker_id}
        self.count("rejected_no_backend")
        raise HttpError(
            503,
            "no_backend",
            f"no worker could serve the request ({last_error})",
            retry_after=0.5,
        )

    async def _forward(
        self,
        worker_id: str,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        trace: Optional[Tuple[str, str]] = None,
    ) -> Tuple[int, bytes]:
        """The socket transport: one request on a keep-alive connection.

        An idle connection to the worker's current port is reused when
        the pool has one. If that connection ends before any response
        byte (:class:`~repro.serve.protocol.NoResponse`: the worker closed
        it while it sat idle), the request is sent once more on a fresh
        connection to the same worker, so that this is not counted as a
        backend failure. A 503 ``draining`` answer on a reused connection
        (the worker began draining while the socket sat idle) drops the
        worker's idle sockets and takes the same retry: the draining
        worker no longer accepts connections, so the fresh connect fails
        over as it would without a pool. Every other failure, a timeout
        included, propagates to :meth:`_proxy`'s failover.
        """
        port = self.ports.get(worker_id)
        if port is None:
            raise ConnectionRefusedError(111, f"{worker_id} has no port")
        request = encode_request(
            self.backend_host,
            port,
            method,
            path,
            {"Content-Type": "application/json", **forwarded_headers(headers, trace)},
            body,
            keep_alive=True,
        )
        conn = self.upstream.take(worker_id, port)
        if conn is not None:
            self.count("upstream_reuses")
            try:
                status, resp_body = await self._send(worker_id, port, conn, request)
            except NoResponse:
                pass
            else:
                if not says_draining(status, resp_body):
                    return status, resp_body
                self.upstream.drop(worker_id)
        conn = await asyncio.wait_for(
            asyncio.open_connection(self.backend_host, port), self.connect_timeout
        )
        self.count("upstream_connects")
        return await self._send(worker_id, port, conn, request)

    async def _send(
        self, worker_id: str, port: int, conn: Upstream, request: bytes
    ) -> Tuple[int, bytes]:
        """One framed exchange on *conn* under one ``proxy_timeout`` deadline.

        The connection goes back to the pool only after a complete
        Content-Length-framed response (``roundtrip`` raises on anything
        less) that does not say ``Connection: close``, and only while the
        worker still owns *port*: a worker that left the port map during
        the request gets no new idle socket, which would hold its drain
        open.
        """
        reader, writer = conn
        try:
            status, resp_headers, resp_body = await asyncio.wait_for(
                roundtrip(reader, writer, request), self.proxy_timeout
            )
        except BaseException:
            writer.close()  # a timeout or error leaves the stream mid-response
            raise
        if (
            self.ports.get(worker_id) == port
            and resp_headers.get("connection", "").lower() != "close"
        ):
            self.upstream.put(worker_id, port, conn)
        else:
            writer.close()
        return status, resp_body

    async def close_connections(self) -> None:
        """Cancel idle client connections, then close the idle upstream ones."""
        await super().close_connections()
        await self.upstream.close()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    async def _fan_out(self, path: str) -> List[Tuple[str, Dict[str, Any]]]:
        """``GET path`` on every worker: ``(worker_id, body)`` of each 200."""
        live = sorted(self.ports.items())
        results = await asyncio.gather(
            *(
                fetch_json(self.backend_host, port, path, timeout=self.connect_timeout)
                for _, port in live
            ),
            return_exceptions=True,
        )
        return [
            (worker_id, result[1])
            for (worker_id, _), result in zip(live, results)
            if not isinstance(result, BaseException) and result[0] == 200
        ]

    async def aggregate_metrics(self) -> Dict[str, Any]:
        """Fan ``GET /metrics`` out to every live worker and merge."""
        merged = self.merge_metrics(dict(await self._fan_out("/metrics")))
        merged["cluster"] = self.stats()
        merged["protocol"] = PROTOCOL
        return merged

    async def aggregate_trace(self, trace_id: str) -> Dict[str, Any]:
        """Merge one trace's spans across every shard plus the router's own.

        Workers only know their slice of a trace; the router fans
        ``GET /v1/trace/<id>`` out to all of them and merges the slices
        with its proxy spans into one deduplicated, stably-ordered list.
        """
        if not is_valid_trace_id(trace_id):
            raise HttpError(400, "bad_trace_id", f"not a trace id: {trace_id!r}")
        trace_id = trace_id.lower()
        slices = await self._fan_out(f"/v1/trace/{trace_id}")
        span_lists: List[List[Dict[str, Any]]] = [self.tracer.trace(trace_id)]
        workers: List[str] = []
        open_spans = self.tracer.open_count(trace_id)
        for worker_id, decoded in slices:
            if isinstance(decoded.get("spans"), list):
                span_lists.append(decoded["spans"])
                workers.append(worker_id)
                open_spans += int(decoded.get("open_spans", 0) or 0)
        merged = merge_spans(*span_lists)
        if not merged and open_spans == 0:
            raise HttpError(404, "unknown_trace", f"no spans for trace {trace_id}")
        return {
            "trace_id": trace_id,
            "spans": merged,
            "open_spans": open_spans,
            "complete": open_spans == 0,
            "workers": workers,
            "protocol": PROTOCOL,
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "router": dict(sorted(self.counters.items())),
            "live_workers": self.ring.members(),
            "draining": self.lifecycle.draining,
            "uptime_s": round(self.clock.monotonic() - self._started, 3),
            "trace": self.tracer.stats(),
        }
