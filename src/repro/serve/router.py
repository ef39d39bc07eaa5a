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
"""

from __future__ import annotations

import asyncio
import hashlib
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
    Response,
    fetch_json,
    parse_status_line,
    read_headers,
    require_method,
)

#: Request headers forwarded verbatim to the backend worker.
FORWARDED_HEADERS = ("x-client-id", "x-deadline-ms", "x-affinity-key", "accept")

#: One forwarding attempt:
#: ``(worker_id, method, path, headers, body, trace) -> (status, body)``.
Transport = Callable[
    [str, str, str, Dict[str, str], bytes, Optional[Tuple[str, str]]],
    Awaitable[Tuple[int, bytes]],
]


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
        clock: Optional[Clock] = None,
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
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        # Propagate-only by default: the router never originates traces,
        # it records one ``router.proxy`` span per forwarding attempt for
        # requests that arrive with a valid X-Trace-Id.
        self.tracer = tracer if tracer is not None else Tracer(clock=self.clock)
        #: How each forwarding attempt reaches its worker (the socket leg
        #: unless one is passed in).
        self.transport: Transport = transport if transport is not None else self._forward
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
        """The socket transport: one fully-framed exchange with a worker."""
        port = self.ports.get(worker_id)
        if port is None:
            raise ConnectionRefusedError(111, f"{worker_id} has no port")
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.backend_host, port), self.connect_timeout
        )
        try:
            head = [
                f"{method} {path} HTTP/1.1",
                f"Host: {self.backend_host}:{port}",
                "Connection: close",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
            ]
            head.extend(
                f"{name}: {value}"
                for name, value in forwarded_headers(headers, trace).items()
            )
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
            await writer.drain()
            status_line = await asyncio.wait_for(reader.readline(), self.proxy_timeout)
            if not status_line:
                raise asyncio.IncompleteReadError(b"", None)
            status = parse_status_line(status_line)
            resp_headers = await asyncio.wait_for(
                read_headers(reader), self.proxy_timeout
            )
            length = int(resp_headers.get("content-length", "0"))
            resp_body = await asyncio.wait_for(
                reader.readexactly(length), self.proxy_timeout
            )
            return status, resp_body
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    async def aggregate_metrics(self) -> Dict[str, Any]:
        """Fan ``GET /metrics`` out to every live worker and merge."""
        live = [(wid, port) for wid, port in sorted(self.ports.items())]
        fetches: List[Awaitable] = [
            fetch_json(self.backend_host, port, "/metrics", timeout=self.connect_timeout)
            for _, port in live
        ]
        results = await asyncio.gather(*fetches, return_exceptions=True)
        snapshots: Dict[str, Dict[str, Any]] = {}
        for (worker_id, _), result in zip(live, results):
            if isinstance(result, BaseException):
                continue
            status, decoded = result
            if status == 200:
                snapshots[worker_id] = decoded
        merged = self.merge_metrics(snapshots)
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
        live = [(wid, port) for wid, port in sorted(self.ports.items())]
        fetches: List[Awaitable] = [
            fetch_json(
                self.backend_host,
                port,
                f"/v1/trace/{trace_id}",
                timeout=self.connect_timeout,
            )
            for _, port in live
        ]
        results = await asyncio.gather(*fetches, return_exceptions=True)
        span_lists: List[List[Dict[str, Any]]] = [self.tracer.trace(trace_id)]
        workers: List[str] = []
        open_spans = self.tracer.open_count(trace_id)
        for (worker_id, _), result in zip(live, results):
            if isinstance(result, BaseException):
                continue
            status, decoded = result
            if status == 200 and isinstance(decoded.get("spans"), list):
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
