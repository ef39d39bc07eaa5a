"""Unit tests for the injectable clocks (repro.simtest.clock)."""

import asyncio
import threading
import time

import pytest

from repro.pipeline import DiffPipeline
from repro.serve.admission import AdmissionController, Deadline
from repro.serve.lifecycle import Lifecycle
from repro.service.engine import DiffEngine
from repro.simtest.clock import SYSTEM_CLOCK, SimClock, SystemClock


class TestSimClockTime:
    def test_starts_at_start(self):
        assert SimClock().monotonic() == 0.0
        assert SimClock(start=5.0).monotonic() == 5.0

    def test_sleep_advances(self):
        clock = SimClock()
        clock.sleep(1.5)
        clock.sleep(0.5)
        assert clock.monotonic() == pytest.approx(2.0)
        assert clock.elapsed == pytest.approx(2.0)

    def test_negative_sleep_is_a_noop(self):
        clock = SimClock()
        clock.sleep(-3.0)
        assert clock.monotonic() == 0.0


class TestSimClockTimers:
    def test_timer_fires_at_its_deadline(self):
        clock = SimClock()
        seen = []
        clock.call_later(1.0, lambda: seen.append(clock.monotonic()))
        clock.sleep(0.5)
        assert seen == []
        clock.sleep(1.0)
        # Inside the callback the clock read the timer's own deadline.
        assert seen == [pytest.approx(1.0)]
        assert clock.monotonic() == pytest.approx(1.5)
        assert clock.fired == 1

    def test_ordering_earlier_deadline_first(self):
        clock = SimClock()
        order = []
        clock.call_later(2.0, order.append, "late")
        clock.call_later(1.0, order.append, "early")
        clock.sleep(3.0)
        assert order == ["early", "late"]

    def test_ties_fire_in_registration_order(self):
        clock = SimClock()
        order = []
        for name in ("a", "b", "c"):
            clock.call_later(1.0, order.append, name)
        clock.sleep(1.0)
        assert order == ["a", "b", "c"]

    def test_cancel_disarms(self):
        clock = SimClock()
        seen = []
        timer = clock.call_later(1.0, seen.append, "x")
        assert clock.pending() == 1
        timer.cancel()
        assert clock.pending() == 0
        assert clock.next_deadline() is None
        clock.sleep(2.0)
        assert seen == []
        assert clock.fired == 0

    def test_next_deadline_skips_cancelled(self):
        clock = SimClock()
        first = clock.call_later(1.0, lambda: None)
        clock.call_later(2.0, lambda: None)
        first.cancel()
        assert clock.next_deadline() == pytest.approx(2.0)

    def test_callback_may_schedule_within_the_window(self):
        # A timer at t=1 schedules another at t=1.5; a single sleep(2)
        # must fire both, each at its own deadline.
        clock = SimClock()
        seen = []

        def first():
            seen.append(("first", clock.monotonic()))
            clock.call_later(0.5, lambda: seen.append(("second", clock.monotonic())))

        clock.call_later(1.0, first)
        clock.sleep(2.0)
        assert seen == [("first", pytest.approx(1.0)), ("second", pytest.approx(1.5))]

    def test_nested_sleep_composes(self):
        # A callback that itself sleeps (a simulated service delay) moves
        # time forward beneath the outer advance.
        clock = SimClock()
        seen = []

        def busy():
            clock.sleep(0.25)
            seen.append(clock.monotonic())

        clock.call_later(1.0, busy)
        clock.sleep(2.0)
        assert seen == [pytest.approx(1.25)]
        assert clock.monotonic() == pytest.approx(2.0)

    def test_jump_fires_skipped_timers_late(self):
        clock = SimClock()
        seen = []
        clock.call_later(1.0, lambda: seen.append(clock.monotonic()))
        clock.jump(10.0)
        # The timer became due during the gap and fired at the *new* now.
        assert seen == [pytest.approx(10.0)]

    def test_run_until_idle_drains_chains(self):
        clock = SimClock()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                clock.call_later(1.0, chain, n + 1)

        clock.call_later(1.0, chain, 0)
        end = clock.run_until_idle()
        assert seen == [0, 1, 2, 3]
        assert end == pytest.approx(4.0)
        assert clock.pending() == 0

    def test_run_until_idle_respects_limit(self):
        clock = SimClock()
        clock.call_later(100.0, lambda: None)
        clock.run_until_idle(limit=10.0)
        assert clock.pending() == 1
        assert clock.monotonic() < 100.0


class TestSystemClock:
    def test_reads_real_time(self):
        clock = SystemClock()
        assert abs(clock.monotonic() - time.monotonic()) < 1.0

    def test_zero_sleep_returns_immediately(self):
        SYSTEM_CLOCK.sleep(0.0)
        SYSTEM_CLOCK.sleep(-1.0)

    def test_call_later_fires_on_a_thread(self):
        done = threading.Event()
        SystemClock().call_later(0.0, done.set)
        assert done.wait(timeout=2.0)

    def test_call_later_cancel(self):
        done = threading.Event()
        timer = SystemClock().call_later(0.05, done.set)
        timer.cancel()
        assert not done.wait(timeout=0.2)


class TestClockConvention:
    """Everything that reads time takes a Clock, defaulting to the system one."""

    def test_defaults_are_the_system_clock(self):
        deadline = Deadline(60.0)
        assert 59.0 < deadline.remaining() <= 60.0

    def test_sim_clock_drives_every_component(self, figure1_trees):
        clock = SimClock(start=7.0)
        admission = AdmissionController(default_deadline_ms=2000.0, clock=clock)
        deadline = admission.deadline()
        clock.sleep(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        # Stage and job timings read the injected clock: no virtual time
        # passes inside a diff, so every measured duration is zero.
        old, new = figure1_trees
        trace = DiffPipeline(clock=clock).run(old, new).trace
        assert set(trace.stage_ms().values()) == {0.0}
        result = DiffEngine(workers=1, cache=None, clock=clock).diff(old, new)
        assert result.ok and result.wall_ms == 0.0

    def test_drains_wait_through_the_clock(self):
        assert Lifecycle().clock is SYSTEM_CLOCK
        clock = SimClock()
        fired = []
        clock.call_later(0.05, fired.append, "tick")
        pending = [3]

        def in_flight():
            pending[0] -= 1
            return pending[0]

        lifecycle = Lifecycle(drain_timeout=10.0, clock=clock)
        assert asyncio.run(lifecycle.drain(None, in_flight, poll_s=0.04)) is True
        # Two virtual polls passed; the timer fired inside the second one.
        assert clock.monotonic() == pytest.approx(0.08)
        assert fired == ["tick"]
