"""Deterministic event log for simulation runs.

Every observable thing that happens during a scenario — requests,
retries, fault firings, worker state transitions, invariant violations —
is appended here as a plain dict with a virtual timestamp. Serialization
uses ``sort_keys=True`` and fixed float rounding so that two runs with
the same seed produce **byte-identical** logs (the acceptance criterion
for ``repro-diff simtest``), and a failing nightly seed can be replayed
locally from its uploaded artifact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional

#: Sub-microsecond float noise would break byte-identical comparison of
#: logs only if the underlying computation were non-deterministic; we
#: round anyway so logs stay short and diffable for humans.
_TIME_DECIMALS = 9


def _clean(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, _TIME_DECIMALS)
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


class EventLog:
    """Append-only, JSONL-serializable log of simulation events."""

    def __init__(self) -> None:
        self._events: List[Dict[str, Any]] = []

    def emit(self, kind: str, t: float, **fields: Any) -> Dict[str, Any]:
        event = {"kind": kind, "t": round(float(t), _TIME_DECIMALS)}
        for key, value in fields.items():
            event[key] = _clean(value)
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self._events)

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        return [e for e in self._events if e["kind"] == kind]

    def last(self, kind: Optional[str] = None) -> Optional[Dict[str, Any]]:
        if kind is None:
            return self._events[-1] if self._events else None
        for event in reversed(self._events):
            if event["kind"] == kind:
                return event
        return None

    def to_jsonl(self) -> str:
        """One event per line, keys sorted: stable bytes for a given run."""
        return "".join(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            for event in self._events
        )
