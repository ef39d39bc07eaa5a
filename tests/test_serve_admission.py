"""Unit tests for the admission layer (repro.serve.admission).

Everything runs against an injected virtual clock — no sockets, no sleeps.
"""

import threading

import pytest

from repro.serve.admission import (
    AdmissionController,
    Deadline,
    RateLimiter,
    TokenBucket,
)
from repro.simtest.clock import SimClock


class TestTokenBucket:
    def test_burst_then_refusal(self):
        clock = SimClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(1.0)  # one token accrues per second

    def test_refill_is_time_proportional(self):
        clock = SimClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        bucket.try_acquire()
        bucket.try_acquire()
        assert bucket.try_acquire() == pytest.approx(0.5)
        clock.advance(0.5)  # exactly one token at 2/s
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == pytest.approx(0.5)

    def test_tokens_cap_at_burst(self):
        clock = SimClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)  # a long idle period banks at most `burst`
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestRateLimiter:
    def test_disabled_by_default(self):
        limiter = RateLimiter(rate=0.0)
        assert not limiter.enabled
        for _ in range(1000):
            assert limiter.check("anyone").admitted

    def test_per_client_isolation(self):
        clock = SimClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        assert limiter.check("a").admitted
        refused = limiter.check("a")
        assert not refused.admitted
        assert refused.reason == "rate_limited"
        assert refused.retry_after == pytest.approx(1.0)
        # a different client has its own bucket
        assert limiter.check("b").admitted

    def test_client_table_is_bounded(self):
        clock = SimClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, max_clients=4, clock=clock)
        for n in range(32):
            limiter.check(f"client-{n}")
        assert len(limiter._buckets) <= 4
        # the evicted client starts fresh (a full burst again)
        assert limiter.check("client-0").admitted


class TestDeadline:
    def test_remaining_counts_down(self):
        clock = SimClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        clock.advance(2.5)
        assert deadline.remaining() == pytest.approx(-0.5)
        assert deadline.expired


class TestAdmissionController:
    def make(self, **kwargs):
        kwargs.setdefault("clock", SimClock())
        return AdmissionController(**kwargs)

    def test_queue_capacity_enforced(self):
        ctrl = self.make(queue_capacity=2)
        assert ctrl.try_admit("a").admitted
        assert ctrl.try_admit("a").admitted
        refused = ctrl.try_admit("a")
        assert not refused.admitted
        assert refused.reason == "queue_full"
        assert refused.retry_after > 0.0
        ctrl.release()
        assert ctrl.try_admit("a").admitted
        assert ctrl.in_flight == 2

    def test_release_without_admit_raises(self):
        ctrl = self.make(queue_capacity=1)
        with pytest.raises(RuntimeError):
            ctrl.release()

    def test_retry_after_tracks_mean_latency(self):
        ctrl = self.make(queue_capacity=4, mean_wall_ms=lambda: 250.0)
        for _ in range(4):
            ctrl.try_admit("a")
        refused = ctrl.try_admit("a")
        # 4 slots * 250ms = 1s for the backlog to clear
        assert refused.retry_after == pytest.approx(1.0)

    def test_retry_after_clamped(self):
        ctrl = self.make(queue_capacity=100, mean_wall_ms=lambda: 60_000.0)
        for _ in range(100):
            ctrl.try_admit("a")
        assert ctrl.try_admit("a").retry_after == 30.0

    def test_rate_limit_checked_before_queue(self):
        clock = SimClock()
        ctrl = self.make(queue_capacity=10, rate=1.0, burst=1.0, clock=clock)
        assert ctrl.try_admit("a").admitted
        refused = ctrl.try_admit("a")
        assert refused.reason == "rate_limited"
        assert ctrl.in_flight == 1  # the refused request took no slot

    def test_body_limit(self):
        ctrl = self.make(max_body_bytes=1000)
        assert ctrl.body_allowed(1000)
        assert not ctrl.body_allowed(1001)

    def test_deadline_capped_by_server_default(self):
        clock = SimClock()
        ctrl = self.make(default_deadline_ms=1000.0, clock=clock)
        assert ctrl.deadline().budget_s == pytest.approx(1.0)
        assert ctrl.deadline(250.0).budget_s == pytest.approx(0.25)
        # a request cannot ask for more than the server allows
        assert ctrl.deadline(10_000.0).budget_s == pytest.approx(1.0)
        # nonsense asks fall back to the default
        assert ctrl.deadline(-5.0).budget_s == pytest.approx(1.0)

    def test_thread_safety_of_slot_accounting(self):
        ctrl = self.make(queue_capacity=8)
        admitted = []

        def worker():
            for _ in range(200):
                if ctrl.try_admit("x").admitted:
                    admitted.append(1)
                    ctrl.release()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ctrl.in_flight == 0  # every admit matched by a release

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(queue_capacity=0)
        with pytest.raises(ValueError):
            AdmissionController(max_body_bytes=0)
        with pytest.raises(ValueError):
            AdmissionController(default_deadline_ms=0.0)

    def test_stats_shape(self):
        stats = self.make(queue_capacity=3, rate=2.0).stats()
        assert stats["queue_capacity"] == 3
        assert stats["in_flight"] == 0
        assert stats["rate_limit_enabled"] is True
