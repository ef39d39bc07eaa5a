"""Seeded fault plans and the injector that fires them.

A :class:`FaultPlan` is a list of :class:`Fault` records — *which* named
injection point misbehaves, *when* (virtual time), against *which* target,
*how many* times, and how hard. A :class:`FaultInjector` is armed with a
plan and handed to the components under test; each instrumented call site
asks ``injector.fire("point", target=...)`` and acts only when a matching
fault is due. Call sites hold ``faults=None`` by default, so production
code pays a single ``is None`` check and nothing else.

Injection points (the full registry is :data:`INJECTION_POINTS`):

====================  ======================================================
``conn_refused``      transport raises ``ConnectionRefusedError`` before the
                      request is written (client ``request_once``; the sim
                      router transport ``SimCluster._forward``)
``conn_reset_mid_body``  peer drops the connection after the request went
                      out, mid-response (client ``request_once``)
``slow_response``     service time inflated by ``magnitude`` seconds
                      (client ``request_once``; ``SimServer._offload``)
``worker_crash``      the sim worker dies halfway through its service time
                      (``SimServer._offload``)
``corrupt_cache_entry``  a ScriptCache hit is detected as corrupt, dropped,
                      and recomputed (self-healing miss)
``clock_jump``        the clock steps forward ``magnitude`` seconds (fired
                      by the scenario runner between steps)
====================  ======================================================

Plans are either hand-written (scenario builders) or generated from a seed
(:meth:`FaultPlan.generate`) — same seed, same plan, same event log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from .clock import Clock
from .events import EventLog

INJECTION_POINTS = (
    "conn_refused",
    "conn_reset_mid_body",
    "slow_response",
    "worker_crash",
    "corrupt_cache_entry",
    "clock_jump",
)


@dataclass
class Fault:
    """One scheduled misbehavior at a named injection point."""

    point: str
    at: float = 0.0  # earliest virtual time this fault may fire
    hits: int = 1  # firings before the fault disarms; -1 = unlimited
    target: Optional[str] = None  # worker id / endpoint / key; None = any
    magnitude: float = 0.0  # seconds, for slow_response / clock_jump

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; "
                f"known: {', '.join(INJECTION_POINTS)}"
            )

    def matches(self, point: str, target: Optional[str], now: float) -> bool:
        if self.point != point or self.hits == 0 or now < self.at:
            return False
        return self.target is None or target is None or self.target == target

    def describe(self) -> Dict[str, Any]:
        return {
            "point": self.point,
            "at": self.at,
            "hits": self.hits,
            "target": self.target,
            "magnitude": self.magnitude,
        }


@dataclass
class FaultPlan:
    """An ordered set of faults, optionally generated from a seed."""

    faults: List[Fault] = field(default_factory=list)
    seed: Optional[int] = None

    @classmethod
    def generate(
        cls,
        seed: int,
        count: int = 4,
        horizon: float = 30.0,
        points: Sequence[str] = INJECTION_POINTS,
        targets: Sequence[Optional[str]] = (None,),
    ) -> "FaultPlan":
        """Seeded random plan: same arguments → identical plan, always."""
        rng = random.Random(seed)
        faults = []
        for _ in range(count):
            point = rng.choice(list(points))
            faults.append(
                Fault(
                    point=point,
                    at=round(rng.uniform(0.0, horizon), 6),
                    hits=rng.randint(1, 3),
                    target=rng.choice(list(targets)),
                    magnitude=round(rng.uniform(0.05, 2.0), 6)
                    if point in ("slow_response", "clock_jump")
                    else 0.0,
                )
            )
        faults.sort(key=lambda f: (f.at, f.point, f.target or ""))
        return cls(faults=faults, seed=seed)

    def without(self, index: int) -> "FaultPlan":
        """Copy of the plan minus one fault — the shrinking primitive."""
        kept = [replace(f) for i, f in enumerate(self.faults) if i != index]
        return FaultPlan(faults=kept, seed=self.seed)

    def clone(self) -> "FaultPlan":
        return FaultPlan(faults=[replace(f) for f in self.faults], seed=self.seed)

    def describe(self) -> List[Dict[str, Any]]:
        return [f.describe() for f in self.faults]

    def __len__(self) -> int:
        return len(self.faults)


class FaultInjector:
    """Armed with a plan, fires faults at instrumented call sites.

    ``fire(point, target=...)`` returns the matching :class:`Fault` (and
    decrements its remaining hits) or ``None``. Every firing is recorded —
    in ``self.fired`` and, when a log is attached, as a ``fault`` event —
    so a run's injected history is part of its deterministic event log.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        clock: Optional[Clock] = None,
        log: Optional[EventLog] = None,
    ) -> None:
        self.plan = plan
        self.clock = clock
        self.log = log
        self.fired: List[Dict[str, Any]] = []

    @property
    def armed(self) -> bool:
        return self.plan is not None and any(f.hits != 0 for f in self.plan.faults)

    def _now(self) -> float:
        return self.clock.monotonic() if self.clock is not None else 0.0

    def fire(self, point: str, target: Optional[str] = None) -> Optional[Fault]:
        if self.plan is None:
            return None
        now = self._now()
        for fault in self.plan.faults:
            if fault.matches(point, target, now):
                if fault.hits > 0:
                    fault.hits -= 1
                record = {
                    "point": point,
                    "target": target,
                    "t": now,
                    "magnitude": fault.magnitude,
                }
                self.fired.append(record)
                if self.log is not None:
                    self.log.emit(
                        "fault",
                        now,
                        point=point,
                        target=target,
                        magnitude=fault.magnitude,
                    )
                return fault
        return None
