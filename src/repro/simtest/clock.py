"""Injectable clocks: real time for production, virtual time for simulation.

Every time-dependent component of the serving stack (client backoff,
admission deadlines, supervisor health ticks, drain polls) takes an
injectable clock defaulting to the real one, so production behavior is
unchanged while tests and the :mod:`repro.simtest.scenario` runner
substitute a :class:`SimClock` and replay hours of failure timeline in
milliseconds, deterministically.

Two implementations of the same small surface:

* :class:`SystemClock` — thin delegation to :mod:`time` (and
  ``threading.Timer`` for scheduled callbacks).
* :class:`SimClock` — virtual time. ``sleep`` *advances* the clock instead
  of waiting, firing any timers that fall inside the skipped interval in
  deterministic ``(due time, registration order)`` order. ``jump`` models
  a suspend/resume or NTP step: time leaps forward and timers that became
  due during the gap all fire "late" at the new now.

There is one convention: a component that reads time takes a ``Clock``
(default :data:`SYSTEM_CLOCK`), never a bare callable or ``None``, and
reads one time, ``monotonic()``, for deadlines and durations alike. A
coroutine waits through ``sleep_async``: real ``asyncio.sleep`` on the
system clock, an advance plus one loop yield on a ``SimClock``.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import threading
import time
from typing import Any, Callable, List, Optional, Tuple


class Timer:
    """Handle for one scheduled callback; ``cancel()`` disarms it."""

    __slots__ = ("when", "callback", "args", "cancelled")

    def __init__(self, when: float, callback: Callable[..., None], args: Tuple) -> None:
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Clock:
    """The injectable time surface shared by both implementations."""

    def monotonic(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError

    async def sleep_async(self, seconds: float) -> None:
        """Wait *seconds* inside a coroutine, on this clock's time."""
        raise NotImplementedError

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        raise NotImplementedError


class SystemClock(Clock):
    """The real clock: delegates straight to :mod:`time`.

    ``call_later`` uses a daemon ``threading.Timer`` — a convenience for
    tests; production code never schedules through the clock.
    """

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    async def sleep_async(self, seconds: float) -> None:
        # The default event loop's time() is time.monotonic(), the clock
        # monotonic() reads, so loop waits and clock readings agree.
        await asyncio.sleep(seconds)

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        handle = Timer(self.monotonic() + delay, callback, args)

        def fire() -> None:
            if not handle.cancelled:
                callback(*args)

        timer = threading.Timer(max(0.0, delay), fire)
        timer.daemon = True
        timer.start()
        return handle


#: Shared production default; stateless, so one instance is enough.
SYSTEM_CLOCK = SystemClock()


class SimClock(Clock):
    """Deterministic virtual time for the simulation harness.

    ``sleep(s)`` advances ``now`` by ``s``; any timer whose due time falls
    inside the advanced window fires *at its due time* (the clock shows
    exactly the timer's deadline inside the callback), in deterministic
    order: earlier deadline first, ties broken by registration order.
    Callbacks may schedule further timers or sleep recursively — nested
    advancement composes, which is what lets a scripted drain or restart
    fire "in the middle of" a simulated service delay.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: List[Tuple[float, int, Timer]] = []
        self._seq = itertools.count()
        #: Total virtual seconds slept/advanced (observability for tests).
        self.elapsed = 0.0
        #: Number of timer callbacks fired so far.
        self.fired = 0

    # ------------------------------------------------------------------
    # Reading time
    # ------------------------------------------------------------------
    def monotonic(self) -> float:
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        return self.call_at(self._now + max(0.0, delay), callback, *args)

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> Timer:
        handle = Timer(float(when), callback, args)
        heapq.heappush(self._heap, (handle.when, next(self._seq), handle))
        return handle

    def pending(self) -> int:
        """Live (un-cancelled) timers still waiting to fire."""
        return sum(1 for _, _, timer in self._heap if not timer.cancelled)

    def next_deadline(self) -> Optional[float]:
        """Due time of the earliest live timer, or None."""
        for when, _, timer in sorted(self._heap):
            if not timer.cancelled:
                return when
        return None

    # ------------------------------------------------------------------
    # Advancing time
    # ------------------------------------------------------------------
    def sleep(self, seconds: float) -> None:
        self.advance(max(0.0, seconds))

    async def sleep_async(self, seconds: float) -> None:
        """Advance virtual time, then yield once so other coroutines on the
        loop observe the new time."""
        self.sleep(seconds)
        await asyncio.sleep(0)

    def advance(self, seconds: float) -> None:
        """Move time forward, firing due timers at their own deadlines."""
        target = self._now + max(0.0, seconds)
        self.elapsed += max(0.0, seconds)
        self._run_until(target)
        self._now = target

    def jump(self, seconds: float) -> None:
        """A clock step (suspend/resume, NTP slew): time leaps forward and
        everything that became due in the gap fires *late*, at the new now —
        the failure mode the ``clock_jump`` injection point exists to test.
        """
        self._now += max(0.0, seconds)
        self.elapsed += max(0.0, seconds)
        self._run_until(self._now, late=True)

    def run_until_idle(self, limit: float = 3600.0) -> float:
        """Advance through every pending timer (bounded); returns now."""
        deadline = self._now + limit
        while True:
            due = self.next_deadline()
            if due is None or due > deadline:
                break
            self.advance(due - self._now)
        return self._now

    def _run_until(self, target: float, late: bool = False) -> None:
        while self._heap and self._heap[0][0] <= target:
            when, _, timer = heapq.heappop(self._heap)
            if timer.cancelled:
                continue
            # Inside the callback the clock reads the timer's own deadline
            # (or the post-jump now when firing late after a clock step).
            self._now = target if late else max(self._now, when)
            self.fired += 1
            timer.callback(*timer.args)
