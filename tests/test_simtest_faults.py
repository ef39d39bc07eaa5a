"""Unit tests for seeded fault plans (repro.simtest.faults)."""

import pytest

from repro.simtest.clock import SimClock
from repro.simtest.events import EventLog
from repro.simtest.faults import INJECTION_POINTS, Fault, FaultInjector, FaultPlan


class TestFault:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            Fault(point="disk_full")

    def test_not_due_before_at(self):
        fault = Fault(point="conn_refused", at=5.0)
        assert not fault.matches("conn_refused", None, 4.9)
        assert fault.matches("conn_refused", None, 5.0)

    def test_exhausted_hits_never_match(self):
        fault = Fault(point="conn_refused", hits=0)
        assert not fault.matches("conn_refused", None, 100.0)

    def test_target_gating(self):
        fault = Fault(point="worker_crash", target="w1")
        assert fault.matches("worker_crash", "w1", 0.0)
        assert not fault.matches("worker_crash", "w2", 0.0)
        # Either side None means "any".
        assert fault.matches("worker_crash", None, 0.0)
        assert Fault(point="worker_crash").matches("worker_crash", "w2", 0.0)

    def test_wrong_point_never_matches(self):
        fault = Fault(point="slow_response")
        assert not fault.matches("conn_refused", None, 0.0)


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(seed=11, count=6)
        b = FaultPlan.generate(seed=11, count=6)
        assert a.describe() == b.describe()
        assert len(a) == 6
        assert all(f.point in INJECTION_POINTS for f in a.faults)

    def test_generate_varies_with_seed(self):
        assert (
            FaultPlan.generate(seed=1, count=6).describe()
            != FaultPlan.generate(seed=2, count=6).describe()
        )

    def test_generate_sorted_by_time(self):
        plan = FaultPlan.generate(seed=3, count=8)
        ats = [f.at for f in plan.faults]
        assert ats == sorted(ats)

    def test_without_removes_one_fault(self):
        plan = FaultPlan.generate(seed=4, count=3)
        smaller = plan.without(1)
        assert len(smaller) == 2
        assert smaller.describe() == [plan.describe()[0], plan.describe()[2]]
        assert len(plan) == 3  # original untouched

    def test_clone_is_deep(self):
        plan = FaultPlan(faults=[Fault(point="conn_refused", hits=2)])
        clone = plan.clone()
        clone.faults[0].hits = 0
        assert plan.faults[0].hits == 2


class TestFaultInjector:
    def test_unarmed_is_a_noop(self):
        injector = FaultInjector()
        assert not injector.armed
        assert injector.fire("conn_refused") is None
        assert injector.fired == []

    def test_hits_count_down(self):
        plan = FaultPlan(faults=[Fault(point="conn_refused", hits=2)])
        injector = FaultInjector(plan=plan)
        assert injector.fire("conn_refused") is not None
        assert injector.fire("conn_refused") is not None
        assert injector.fire("conn_refused") is None
        assert not injector.armed

    def test_unlimited_hits(self):
        plan = FaultPlan(faults=[Fault(point="conn_refused", hits=-1)])
        injector = FaultInjector(plan=plan)
        for _ in range(10):
            assert injector.fire("conn_refused") is not None
        assert injector.armed

    def test_virtual_time_gates_firing(self):
        clock = SimClock()
        plan = FaultPlan(faults=[Fault(point="worker_crash", at=2.0)])
        injector = FaultInjector(plan=plan, clock=clock)
        assert injector.fire("worker_crash") is None
        clock.sleep(2.0)
        assert injector.fire("worker_crash") is not None

    def test_bare_callable_clock_accepted(self):
        injector = FaultInjector(
            plan=FaultPlan(faults=[Fault(point="worker_crash", at=1.0)]),
            clock=SimClock(start=5.0),
        )
        assert injector.fire("worker_crash") is not None

    def test_firings_are_logged(self):
        log = EventLog()
        clock = SimClock(start=3.0)
        plan = FaultPlan(
            faults=[Fault(point="slow_response", target="w0", magnitude=0.5)]
        )
        injector = FaultInjector(plan=plan, clock=clock, log=log)
        injector.fire("slow_response", target="w0")
        assert len(injector.fired) == 1
        assert injector.fired[0]["point"] == "slow_response"
        events = log.of_kind("fault")
        assert len(events) == 1
        assert events[0]["target"] == "w0"
        assert events[0]["magnitude"] == 0.5
        assert events[0]["t"] == 3.0

    def test_same_seed_same_event_log(self):
        # Determinism end to end: replaying a generated plan against the
        # same firing sequence yields byte-identical logs.
        def replay():
            log = EventLog()
            clock = SimClock()
            injector = FaultInjector(
                plan=FaultPlan.generate(seed=9, count=5, horizon=4.0),
                clock=clock,
                log=log,
            )
            for _ in range(10):
                clock.sleep(0.5)
                for point in INJECTION_POINTS:
                    injector.fire(point, target="w0")
            return log.to_jsonl()

        assert replay() == replay()
