"""Admission control: decide *whether* to run a request before running it.

Overload policy for the diff service, in the order the app applies it:

1. **Max body** — a request larger than ``max_body_bytes`` is refused with
   413 before its body is even read off the socket.
2. **Per-client rate limit** — a token bucket per client identity
   (``X-Client-Id`` header, else the peer address): sustained rate
   ``rate`` tokens/second with burst capacity ``burst``. An empty bucket
   means 429 with ``Retry-After`` set to when the next token accrues.
3. **Bounded queue** — at most ``queue_capacity`` compute requests may be
   in flight (queued or running) at once. When the queue is full the
   request is refused with 429 and a ``Retry-After`` estimated from the
   recent mean job latency — *backpressure*, not buffering: the server
   never accumulates unbounded work it cannot finish.
4. **Deadline** — every admitted request carries a deadline (its own
   ``deadline_ms``, capped by the server default). Work that has not
   produced a result by then is answered 504; a request that already
   spent its whole budget waiting in the queue is answered 504 without
   running at all.

Everything here is synchronous, lock-protected, and clock-injectable so
the policy is unit-testable without sockets or an event loop. Every
``clock=`` parameter takes a :class:`repro.simtest.clock.Clock`
(default :data:`~repro.simtest.clock.SYSTEM_CLOCK`), so the simulation
harness drives admission deadlines and token refill on virtual time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..simtest.clock import SYSTEM_CLOCK, Clock


@dataclass
class Decision:
    """Outcome of an admission check."""

    admitted: bool
    reason: str = "ok"  #: ``"ok"`` | ``"rate_limited"`` | ``"queue_full"``
    retry_after: float = 0.0  #: seconds a refused client should wait


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, at most ``burst`` banked."""

    def __init__(self, rate: float, burst: float, clock: Clock = SYSTEM_CLOCK) -> None:
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1.0:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._stamp = clock.monotonic()

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Take *tokens* if available; return 0.0, else seconds until refill."""
        now = self._clock.monotonic()
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens >= tokens:
            self._tokens -= tokens
            return 0.0
        return (tokens - self._tokens) / self.rate


class RateLimiter:
    """Per-client token buckets with a bounded client table (LRU).

    ``rate <= 0`` disables rate limiting entirely (every check admits),
    which is the server default — the bounded queue alone then provides
    global backpressure.
    """

    def __init__(
        self,
        rate: float = 0.0,
        burst: float = 10.0,
        max_clients: int = 1024,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        self.rate = rate
        self.burst = burst
        self.max_clients = max_clients
        self._clock = clock
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0

    def check(self, client: str) -> Decision:
        if not self.enabled:
            return Decision(admitted=True)
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, self._clock)
                self._buckets[client] = bucket
                while len(self._buckets) > self.max_clients:
                    self._buckets.popitem(last=False)
            else:
                self._buckets.move_to_end(client)
            wait = bucket.try_acquire()
        if wait <= 0.0:
            return Decision(admitted=True)
        return Decision(admitted=False, reason="rate_limited", retry_after=wait)


class Deadline:
    """A monotonic budget: how long this request may still take."""

    def __init__(self, budget_s: float, clock: Clock = SYSTEM_CLOCK) -> None:
        self._clock = clock
        self._expires = clock.monotonic() + budget_s
        self.budget_s = budget_s

    def remaining(self) -> float:
        return self._expires - self._clock.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0


class AdmissionController:
    """The service's bounded in-flight queue plus the checks around it.

    ``try_admit``/``release`` bracket every compute request; the in-flight
    count is what the drain sequence waits on and what ``/healthz``
    reports. ``retry_after`` for queue-full refusals is estimated as the
    time for the backlog to clear at the recent mean job latency — the
    injectable ``mean_wall_ms`` callable is wired to the shared
    :class:`~repro.service.metrics.ServiceMetrics` by the app.
    """

    def __init__(
        self,
        queue_capacity: int = 16,
        rate: float = 0.0,
        burst: float = 10.0,
        max_body_bytes: int = 1 << 20,
        default_deadline_ms: float = 30_000.0,
        mean_wall_ms: Optional[Callable[[], float]] = None,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
        if max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        if default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        self.queue_capacity = queue_capacity
        self.max_body_bytes = max_body_bytes
        self.default_deadline_ms = default_deadline_ms
        self._clock = clock
        self.limiter = RateLimiter(rate=rate, burst=burst, clock=clock)
        self._mean_wall_ms = mean_wall_ms
        self._lock = threading.Lock()
        self._in_flight = 0

    # ------------------------------------------------------------------
    # Checks (in the order the app applies them)
    # ------------------------------------------------------------------
    def body_allowed(self, content_length: int) -> bool:
        return content_length <= self.max_body_bytes

    def try_admit(self, client: str, span: Optional[Any] = None) -> Decision:
        """Rate-limit then queue check; on success one slot is held.

        ``span`` is an optional open :class:`repro.obs.Span`: the decision
        (and the queue depth it was made against) is annotated onto it so
        a trace shows *why* a request was admitted or refused.
        """
        decision = self.limiter.check(client)
        if decision.admitted:
            with self._lock:
                if self._in_flight >= self.queue_capacity:
                    decision = Decision(
                        admitted=False,
                        reason="queue_full",
                        retry_after=self._queue_retry_after(),
                    )
                else:
                    self._in_flight += 1
                    decision = Decision(admitted=True)
        if span is not None:
            span.annotate(
                decision=decision.reason,
                admitted=decision.admitted,
                in_flight=self.in_flight,
            )
        return decision

    def release(self) -> None:
        """Return the slot taken by a successful :meth:`try_admit`."""
        with self._lock:
            if self._in_flight <= 0:
                raise RuntimeError("release() without a matching try_admit()")
            self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def deadline(self, requested_ms: Optional[float] = None) -> Deadline:
        """The effective deadline: the request's ask, capped by the server's."""
        budget_ms = self.default_deadline_ms
        if requested_ms is not None and requested_ms > 0:
            budget_ms = min(budget_ms, requested_ms)
        return Deadline(budget_ms / 1000.0, self._clock)

    # ------------------------------------------------------------------
    def _queue_retry_after(self) -> float:
        """Seconds for a full queue to plausibly clear one slot."""
        mean_ms = self._mean_wall_ms() if self._mean_wall_ms is not None else 0.0
        if mean_ms <= 0.0:
            return 1.0
        # The whole backlog at mean latency, clamped to a sane window.
        estimate = (self.queue_capacity * mean_ms) / 1000.0
        return max(0.05, min(estimate, 30.0))

    def stats(self) -> Dict[str, object]:
        """JSON-friendly view for ``/healthz`` and ``/metrics``."""
        return {
            "queue_capacity": self.queue_capacity,
            "in_flight": self.in_flight,
            "rate_limit_enabled": self.limiter.enabled,
            "rate": self.limiter.rate,
            "burst": self.limiter.burst,
            "max_body_bytes": self.max_body_bytes,
            "default_deadline_ms": self.default_deadline_ms,
        }
