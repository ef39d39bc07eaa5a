"""Span records, the bounded Tracer, and trace-context header handling.

Design notes
------------
* Identifiers are lowercase hex drawn from an injectable ``random.Random``
  (16 chars for a trace, 8 for a span) so a seeded run mints the same ids
  every time.  Header validation is deliberately forgiving: a malformed or
  oversized value means "no trace context", never an error response.
* The :class:`Tracer` is process-local and lock-protected.  Closed spans
  land in a ring buffer (``capacity`` newest survive); open spans are
  tracked separately so an incomplete trace is detectable.
* Sampling uses one deterministic crossing rule, :func:`sampled`, shared
  with the engine's ``verify_fraction``: request ``n`` is sampled iff
  ``floor(n * f) > floor((n - 1) * f)``, which hits exactly ``f`` of
  requests with no RNG draw on the hot path.
* An unsampled request carries a :class:`NullSpan` instead of ``None``:
  it answers the same calls, records nothing, and still times itself, so
  no caller branches on whether tracing is on.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from math import floor
from random import Random
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.simtest.clock import Clock, SYSTEM_CLOCK

TRACE_ID_HEADER = "X-Trace-Id"
SPAN_ID_HEADER = "X-Span-Id"

#: Hard caps on inbound header values; anything longer is ignored.
MAX_TRACE_ID_LEN = 64
MAX_SPAN_ID_LEN = 32

_HEX = frozenset("0123456789abcdef")


def sampled(n: int, fraction: float) -> bool:
    """Whether call *n* (counted from 1) of a ``fraction`` sampler is taken."""
    return floor(n * fraction) > floor((n - 1) * fraction)


def _valid_hex_id(value: Any, max_len: int) -> bool:
    if not isinstance(value, str) or not value or len(value) > max_len:
        return False
    return all(ch in _HEX for ch in value.lower())


def is_valid_trace_id(value: Any) -> bool:
    """True if *value* is acceptable as an inbound trace id."""
    return _valid_hex_id(value, MAX_TRACE_ID_LEN)


def is_valid_span_id(value: Any) -> bool:
    """True if *value* is acceptable as an inbound parent-span id."""
    return _valid_hex_id(value, MAX_SPAN_ID_LEN)


def extract_trace_context(
    headers: Mapping[str, str],
) -> Optional[Tuple[str, Optional[str]]]:
    """Pull ``(trace_id, parent_span_id)`` out of lowercased headers.

    Returns ``None`` when there is no usable trace id.  A valid trace id
    with a malformed span id still yields a context (parent unknown) —
    dropping the whole trace because one hop mangled its span id would
    hide exactly the hop you want to see.
    """
    trace_id = headers.get(TRACE_ID_HEADER.lower())
    if not is_valid_trace_id(trace_id):
        return None
    span_id = headers.get(SPAN_ID_HEADER.lower())
    if not is_valid_span_id(span_id):
        span_id = None
    else:
        span_id = span_id.lower()
    return trace_id.lower(), span_id


def inject_trace_headers(
    headers: Dict[str, str], trace_id: str, span_id: Optional[str] = None
) -> Dict[str, str]:
    """Set the outbound trace headers on *headers* (mutates and returns it)."""
    headers[TRACE_ID_HEADER] = trace_id
    if span_id is not None:
        headers[SPAN_ID_HEADER] = span_id
    return headers


@dataclass
class SpanRecord:
    """One timed operation inside a trace."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    kind: str
    start: float
    seq: int
    end: Optional[float] = None
    status: str = "ok"
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def wall_ms(self) -> float:
        if self.end is None:
            return 0.0
        return (self.end - self.start) * 1000.0

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": round(self.start, 9),
            "end": round(self.end, 9) if self.end is not None else None,
            "wall_ms": round(self.wall_ms, 6),
            "status": self.status,
        }
        if self.meta:
            out["meta"] = dict(sorted(self.meta.items()))
        return out


class Span:
    """Handle for an open recorded span; close explicitly or use as a context manager."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record

    @property
    def trace_id(self) -> str:
        return self.record.trace_id

    @property
    def span_id(self) -> str:
        return self.record.span_id

    @property
    def context(self) -> Tuple[str, str]:
        """``(trace_id, span_id)``: what a downstream hop continues."""
        return self.record.trace_id, self.record.span_id

    @property
    def name(self) -> str:
        return self.record.name

    @property
    def meta(self) -> Dict[str, Any]:
        return self.record.meta

    @property
    def wall_ms(self) -> float:
        return self.record.wall_ms

    def annotate(self, **fields: Any) -> "Span":
        self.record.meta.update(fields)
        return self

    def child(self, name: str, kind: str = "internal") -> "Span":
        return self._tracer.start_span(
            name, kind=kind, trace_id=self.trace_id, parent_id=self.span_id
        )

    def close(self, status: str = "ok") -> SpanRecord:
        self._tracer._close(self.record, status)
        return self.record

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.record.closed:
            return
        self.close("error" if exc_type is not None else "ok")


class NullSpan:
    """The span of an unsampled request: timed, never recorded.

    It has no ids and no :attr:`context`, and its children are NullSpans on
    the same clock. Nothing it does reaches a tracer — no id is minted, no
    RNG draw made, no lock taken — yet each one still measures its own
    interval and keeps its annotations, because a pipeline stage under an
    unsampled request must still report its duration and counts.
    """

    __slots__ = ("name", "meta", "_clock", "_start", "_end")

    trace_id = None
    span_id = None
    context = None

    def __init__(self, name: str = "", clock: Clock = SYSTEM_CLOCK):
        self.name = name
        self.meta: Dict[str, Any] = {}
        self._clock = clock
        self._start = clock.monotonic()
        self._end: Optional[float] = None

    @property
    def wall_ms(self) -> float:
        if self._end is None:
            return 0.0
        return (self._end - self._start) * 1000.0

    def annotate(self, **fields: Any) -> "NullSpan":
        self.meta.update(fields)
        return self

    def child(self, name: str, kind: str = "internal") -> "NullSpan":
        return NullSpan(name, self._clock)

    def close(self, status: str = "ok") -> None:
        if self._end is None:
            self._end = self._clock.monotonic()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


#: Either kind of span; callers never need to tell them apart.
AnySpan = Union[Span, NullSpan]


class Tracer:
    """Bounded, clock-driven span recorder with deterministic sampling."""

    def __init__(
        self,
        fraction: float = 0.0,
        capacity: int = 2048,
        clock: Clock = SYSTEM_CLOCK,
        rng: Optional[Random] = None,
        on_close: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.fraction = min(1.0, max(0.0, float(fraction)))
        self.clock = clock
        self.rng = rng if rng is not None else Random()
        self.on_close = on_close
        self._lock = threading.Lock()
        self._closed: deque = deque(maxlen=capacity)
        self._open: Dict[str, SpanRecord] = {}
        self._seq = 0
        self._sample_calls = 0
        self._traces_started = 0
        self._dropped = 0

    # -- ids and sampling ---------------------------------------------------
    def maybe_trace(self) -> Optional[str]:
        """Sampling decision: a fresh trace id for sampled calls, else None."""
        with self._lock:
            self._sample_calls += 1
            if not sampled(self._sample_calls, self.fraction):
                return None
            self._traces_started += 1
            return f"{self.rng.getrandbits(64):016x}"

    # -- span lifecycle -----------------------------------------------------
    def start_span(
        self,
        name: str,
        kind: str = "internal",
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Span:
        with self._lock:
            self._seq += 1
            if trace_id is None:
                trace_id = f"{self.rng.getrandbits(64):016x}"
                self._traces_started += 1
            record = SpanRecord(
                trace_id=trace_id,
                span_id=f"{self.rng.getrandbits(32):08x}",
                parent_id=parent_id,
                name=name,
                kind=kind,
                start=self.clock.monotonic(),
                seq=self._seq,
                meta=dict(meta) if meta else {},
            )
            self._open[record.span_id] = record
        return Span(self, record)

    def span(
        self,
        name: str,
        kind: str = "internal",
        ctx: Optional[Tuple[str, Optional[str]]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> AnySpan:
        """A span continuing *ctx* ``(trace_id, parent_id)``; a
        :class:`NullSpan` on this tracer's clock when there is no context."""
        if ctx is None:
            return NullSpan(name, self.clock)
        return self.start_span(name, kind, trace_id=ctx[0], parent_id=ctx[1], meta=meta)

    def root_span(
        self,
        name: str,
        kind: str = "internal",
        ctx: Optional[Tuple[str, Optional[str]]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> AnySpan:
        """A request's outermost span: continues the caller's *ctx* when
        one arrived, otherwise samples a fresh trace (:meth:`maybe_trace`)."""
        if ctx is None:
            trace_id = self.maybe_trace()
            if trace_id is not None:
                ctx = (trace_id, None)
        return self.span(name, kind, ctx, meta)

    def _close(self, record: SpanRecord, status: str) -> None:
        with self._lock:
            if record.closed:
                return
            record.end = self.clock.monotonic()
            record.status = status
            self._open.pop(record.span_id, None)
            self._append(record)
        self._notify(record)

    def _append(self, record: SpanRecord) -> None:
        if self._closed.maxlen is not None and len(self._closed) == self._closed.maxlen:
            self._dropped += 1
        self._closed.append(record)

    def _notify(self, record: SpanRecord) -> None:
        if self.on_close is not None:
            self.on_close(record.to_dict())

    def abort_open(self, status: str = "lost") -> int:
        """Close every open span with *status* (worker death, shutdown)."""
        with self._lock:
            orphans = list(self._open.values())
            for record in orphans:
                record.end = self.clock.monotonic()
                record.status = status
                self._append(record)
            self._open.clear()
        for record in orphans:
            self._notify(record)
        return len(orphans)

    # -- queries ------------------------------------------------------------
    def trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Closed spans for *trace_id*, in deterministic (start, seq) order."""
        with self._lock:
            records = [r for r in self._closed if r.trace_id == trace_id]
        records.sort(key=lambda r: (r.start, r.seq))
        return [r.to_dict() for r in records]

    def open_count(self, trace_id: Optional[str] = None) -> int:
        with self._lock:
            if trace_id is None:
                return len(self._open)
            return sum(1 for r in self._open.values() if r.trace_id == trace_id)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "spans_recorded": len(self._closed) + self._dropped,
                "spans_dropped": self._dropped,
                "spans_open": len(self._open),
                "traces_started": self._traces_started,
            }

    def export_jsonl(self) -> str:
        """All buffered spans as sorted-keys JSONL (one span per line)."""
        with self._lock:
            records = sorted(self._closed, key=lambda r: (r.trace_id, r.start, r.seq))
        return "".join(
            json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            for r in records
        )

