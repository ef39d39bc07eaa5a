"""A blocking stdlib client for the diff service, with disciplined retries.

Transient failures — 429 (admission refused), 5xx, dropped connections —
are retried with **capped exponential backoff and full jitter**: attempt
``k`` sleeps ``uniform(0, min(cap, base * 2**k))`` seconds, so a herd of
clients hammered off a restarting server does not re-synchronize into
thundering waves. When the server supplies its own estimate (the
``Retry-After`` header / ``retry_after_s`` body field the admission layer
emits), the client honors it as a *floor*: it never retries sooner than
the server asked, and still adds its jittered share on top of nothing.

Hard 4xx failures (bad request, not found, too large) are never retried —
resending a malformed body cannot fix it — and surface as
:class:`ServiceError` carrying the decoded error payload.

The clock and randomness are injectable (``clock=``, ``rng=``)
so retry schedules are unit-testable in microseconds, and the transport
accepts an optional :class:`~repro.simtest.faults.FaultInjector`
(``faults=``) that can refuse connects, reset responses mid-body, or slow
them down on a seeded schedule — a no-op unless armed.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.serialization import tree_to_dict
from ..core.tree import Tree
from ..obs.trace import Tracer, inject_trace_headers
from ..simtest.clock import SYSTEM_CLOCK, Clock
from .protocol import PROTOCOL, RETRYABLE_STATUSES

#: Wire form of a snapshot accepted by the helpers below.
TreeLike = Union[Tree, Dict[str, Any], str]


class ServiceError(Exception):
    """A definitive (non-retryable or retries-exhausted) request failure."""

    def __init__(self, status: int, payload: Dict[str, Any], attempts: int) -> None:
        reason = payload.get("error", "error")
        message = payload.get("message", "")
        super().__init__(
            f"HTTP {status} ({reason}) after {attempts} attempt(s): {message}"
        )
        self.status = status
        self.payload = payload
        self.attempts = attempts


class DiffServiceClient:
    """Blocking HTTP client for :mod:`repro.serve.app`.

    Parameters
    ----------
    host, port:
        Where the service listens.
    retries:
        Retry budget for *transient* failures (429/5xx/connection drops);
        the first attempt is not a retry, so up to ``retries + 1``
        requests go out.
    backoff_base, backoff_cap:
        Full-jitter schedule: attempt ``k`` waits
        ``uniform(0, min(backoff_cap, backoff_base * 2**k))`` seconds.
    connect_retries:
        A *separate* transparent budget for connection-refused failures.
        A refused TCP connect is the signature of a server (or cluster
        worker) mid-restart: nothing was ever sent, so retrying is always
        safe, and the outage is usually sub-second. These attempts sleep
        the base-jitter delay without escalating the exponential schedule
        and do not consume the main ``retries`` budget.
    max_retry_after:
        Upper bound honored for server-supplied ``Retry-After`` hints
        (a misbehaving server cannot park the client for an hour).
    timeout:
        Socket timeout per attempt, seconds.
    client_id:
        Sent as ``X-Client-Id`` so the server's per-client rate limiter
        sees a stable identity across reconnects.
    clock, rng:
        Injection points for tests and the simulation harness. ``clock``
        (a :class:`repro.simtest.clock.Clock`) supplies ``monotonic`` and
        ``sleep`` — a :class:`~repro.simtest.clock.SimClock` turns backoff
        waits into virtual time. Defaults: the real system clock and a
        private ``random.Random()``. Every wait and every jitter draw
        goes through these — there are no module-level ``time.``/
        ``random.`` calls left on the request path, so a seeded ``rng``
        plus a ``SimClock`` makes retry schedules fully reproducible.
    faults:
        Optional armed :class:`~repro.simtest.faults.FaultInjector`;
        ``None`` (production) short-circuits to zero overhead.
    trace_fraction, tracer:
        Distributed tracing. ``trace_fraction`` samples that share of
        ``request()`` calls deterministically; each sampled call mints a
        trace id, opens a ``client.request`` root span plus one
        ``client.attempt`` span per try, and propagates
        ``X-Trace-Id``/``X-Span-Id`` so the router and workers join the
        same trace. Pass ``tracer=`` to share a :class:`~repro.obs.Tracer`
        (the simulation harness does); otherwise one is built from the
        client's clock and rng, so seeded runs mint identical ids. The
        id of the last sampled trace lands in ``last_trace_id``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        retries: int = 4,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        connect_retries: int = 8,
        max_retry_after: float = 30.0,
        timeout: float = 30.0,
        client_id: Optional[str] = None,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
        faults: Optional[Any] = None,
        trace_fraction: float = 0.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if connect_retries < 0:
            raise ValueError(f"connect_retries must be >= 0, got {connect_retries}")
        self.host = host
        self.port = port
        self.retries = retries
        self.connect_retries = connect_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_retry_after = max_retry_after
        self.timeout = timeout
        self.client_id = client_id
        self._clock = clock if clock is not None else SYSTEM_CLOCK
        self._rng = rng if rng is not None else random.Random()
        self._faults = faults
        if tracer is not None:
            self.tracer = tracer
        elif trace_fraction > 0.0:
            # A derived rng keeps id minting from perturbing jitter draws.
            self.tracer = Tracer(
                fraction=trace_fraction,
                clock=self._clock,
                rng=random.Random(self._rng.getrandbits(64)),
            )
        else:
            self.tracer = Tracer(clock=self._clock)  # never samples
        #: Trace id of the most recent sampled request() call, if any.
        self.last_trace_id: Optional[str] = None
        self._conn: Optional[http.client.HTTPConnection] = None
        #: Backoff delays actually slept, newest last (observability/tests).
        self.sleeps: List[float] = []

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "DiffServiceClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        trace: Optional[Tuple[str, str]] = None,
        affinity_key: Optional[str] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """One attempt, no retries: ``(status, decoded body, headers)``.

        *affinity_key* is sent as ``X-Affinity-Key``, the cluster router's
        routing key (see :mod:`repro.serve.router`).

        Connection-level failures propagate as :class:`OSError` /
        ``http.client`` exceptions; the load generator in
        ``benchmarks/bench_serve.py`` uses this to observe raw 429s.
        """
        target = f"{self.host}:{self.port}"
        if self._faults is not None:
            if self._faults.fire("conn_refused", target=target) is not None:
                raise ConnectionRefusedError(
                    111, f"injected conn_refused to {target}"
                )
        conn = self._connection()
        headers = {"Content-Type": "application/json", "Accept": "application/json"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        if trace is not None:
            inject_trace_headers(headers, trace[0], trace[1])
        if affinity_key is not None:
            headers["X-Affinity-Key"] = affinity_key
        body = None
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        try:
            conn.request(method, path, body=body, headers=headers)
            if self._faults is not None:
                # The request went out: a reset here means the server may
                # have processed it, exactly the mid-body failure mode.
                if self._faults.fire("conn_reset_mid_body", target=target):
                    raise ConnectionResetError(
                        104, f"injected conn_reset_mid_body from {target}"
                    )
            response = conn.getresponse()
            raw = response.read()
        except Exception:
            self.close()  # a half-dead keep-alive socket must not be reused
            raise
        if self._faults is not None:
            fault = self._faults.fire("slow_response", target=target)
            if fault is not None:
                self._clock.sleep(fault.magnitude)
        if response.headers.get("Connection", "").lower() == "close":
            self.close()
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            decoded = {"error": "bad_response", "message": raw[:200].decode("latin-1")}
        if not isinstance(decoded, dict):
            decoded = {"value": decoded}
        return response.status, decoded, dict(response.headers)

    # ------------------------------------------------------------------
    # Retry policy
    # ------------------------------------------------------------------
    def _backoff(self, attempt: int, retry_after: float) -> float:
        jittered = self._rng.uniform(
            0.0, min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        )
        floor = min(max(retry_after, 0.0), self.max_retry_after)
        return max(floor, jittered)

    @staticmethod
    def _retry_after_hint(payload: Dict[str, Any], headers: Dict[str, str]) -> float:
        value = payload.get("retry_after_s")
        if value is None:
            value = headers.get("Retry-After", headers.get("retry-after"))
        try:
            return float(value) if value is not None else 0.0
        except (TypeError, ValueError):
            return 0.0

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        affinity_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Send with the retry policy; return the decoded 2xx body.

        Connection-refused failures (a server or cluster worker mid-restart)
        draw on the separate ``connect_retries`` budget with a flat jittered
        delay; everything else transient follows the capped exponential
        schedule against the main ``retries`` budget.
        """
        last_status, last_payload = 0, {"error": "unreachable", "message": ""}
        attempt = 0
        refused_left = self.connect_retries
        tries = 0
        root = self.tracer.root_span(
            "client.request", kind="client", meta={"method": method, "path": path}
        )
        self.last_trace_id = root.trace_id
        while True:
            retry_after = 0.0
            refused = False
            tries += 1
            try_span = root.child("client.attempt", kind="client").annotate(attempt=tries)
            trace_ctx = try_span.context
            # Only pass trace= / affinity_key= when set: subclasses and test
            # doubles that override request_once with the plain signature
            # keep working as long as they use neither.
            options: Dict[str, Any] = {}
            if trace_ctx is not None:
                options["trace"] = trace_ctx
            if affinity_key is not None:
                options["affinity_key"] = affinity_key
            try:
                status, decoded, headers = self.request_once(
                    method, path, payload, **options
                )
            except ConnectionRefusedError as exc:
                refused = True
                last_status = 0
                last_payload = {
                    "error": "connection",
                    "message": f"{type(exc).__name__}: {exc}",
                }
                try_span.annotate(error="conn_refused").close("error")
            except (OSError, socket.timeout, http.client.HTTPException) as exc:
                last_status = 0
                last_payload = {
                    "error": "connection",
                    "message": f"{type(exc).__name__}: {exc}",
                }
                try_span.annotate(error=type(exc).__name__).close("error")
            else:
                try_span.annotate(status=status).close("ok" if status < 400 else "error")
                if status < 400:
                    root.annotate(status=status, tries=tries).close("ok")
                    return decoded
                last_status, last_payload = status, decoded
                if status not in RETRYABLE_STATUSES:
                    root.annotate(status=status, tries=tries).close("error")
                    raise ServiceError(status, decoded, tries)
                retry_after = self._retry_after_hint(decoded, headers)
            if refused and refused_left > 0:
                # Restart window: flat base-jitter sleep, no escalation.
                refused_left -= 1
                delay = self._backoff(0, retry_after)
                self.sleeps.append(delay)
                self._clock.sleep(delay)
                continue
            if attempt < self.retries:
                delay = self._backoff(attempt, retry_after)
                self.sleeps.append(delay)
                self._clock.sleep(delay)
                attempt += 1
                continue
            root.annotate(status=last_status, tries=tries).close("error")
            raise ServiceError(last_status, last_payload, tries)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    @staticmethod
    def _wire_tree(tree: TreeLike) -> Union[Dict[str, Any], str, None]:
        return tree_to_dict(tree) if isinstance(tree, Tree) else tree

    def diff(
        self,
        old: TreeLike,
        new: TreeLike,
        deadline_ms: Optional[float] = None,
        include_script: bool = True,
        job_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "old": self._wire_tree(old),
            "new": self._wire_tree(new),
            "include_script": include_script,
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if job_id is not None:
            payload["id"] = job_id
        return self.request("POST", "/v1/diff", payload, affinity_key=job_id)

    def batch(
        self,
        pairs: List[Tuple[TreeLike, TreeLike]],
        deadline_ms: Optional[float] = None,
        include_script: bool = True,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "pairs": [
                {"old": self._wire_tree(old), "new": self._wire_tree(new)}
                for old, new in pairs
            ],
            "include_script": include_script,
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return self.request("POST", "/v1/batch", payload)

    def verify(
        self, old: TreeLike, new: TreeLike, algorithm: str = "both"
    ) -> Dict[str, Any]:
        return self.request(
            "POST",
            "/v1/verify",
            {
                "old": self._wire_tree(old),
                "new": self._wire_tree(new),
                "algorithm": algorithm,
            },
        )

    def healthz(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self.request("GET", "/metrics")

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> bool:
        """Poll ``/healthz`` until the server answers (startup races).

        Polls on the injected clock, so a ``SimClock`` makes it instant.
        """
        deadline = self._clock.monotonic() + timeout
        while self._clock.monotonic() < deadline:
            try:
                health = self.request_once("GET", "/healthz")[1]
                if health.get("protocol") == PROTOCOL:
                    return True
            except (OSError, http.client.HTTPException):
                pass
            self._clock.sleep(interval)
        return False
