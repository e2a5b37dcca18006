"""Unit tests for the virtual-time engine: task time and ServicePoint."""

from __future__ import annotations

import pytest

from repro.runtime.clock import ServicePoint
from repro.runtime.context import TaskContext
from repro.runtime.tasking import TaskGroup


class TestTaskTime:
    """A task's virtual time is its context's ``now``; ``resume`` is the
    one join step of every parallel construct."""

    def test_starts_at_given_time(self, rt):
        assert TaskContext(rt, 0, 2.5, 1).now == 2.5

    def test_resume_jumps_to_a_later_finish(self, rt):
        ctx = TaskContext(rt, 0, 1.0, 1)
        ctx.resume(5.0, 0.0)
        assert ctx.now == 5.0

    def test_resume_adds_overhead(self, rt):
        ctx = TaskContext(rt, 0, 0.0, 1)
        ctx.resume(4.0, 1.0)
        assert ctx.now == 5.0

    def test_resume_never_moves_backward(self, rt):
        ctx = TaskContext(rt, 0, 10.0, 1)
        ctx.resume(2.0, 0.0)
        assert ctx.now == 10.0

    def test_join_with_no_children_keeps_time(self, rt):
        ctx = TaskContext(rt, 0, 9.0, 1)
        ctx.resume(TaskGroup(rt).join(), 0.0)
        assert ctx.now == 9.0


class TestServicePoint:
    def test_idle_server_serves_immediately(self):
        p = ServicePoint("t")
        assert p.serve_locked(arrival=10.0, service=1.0) == 11.0

    def test_back_to_back_requests_queue(self):
        p = ServicePoint("t")
        assert p.serve_locked(0.0, 1.0) == 1.0
        # Arrives while busy, no banked idle: queues at the tail.
        assert p.serve_locked(0.5, 1.0) == 2.0

    def test_idle_gap_is_banked_for_late_real_arrivals(self):
        """An op that is virtually early slots into a banked gap."""
        p = ServicePoint("t")
        p.serve_locked(0.0, 1.0)  # busy [0,1]
        p.serve_locked(10.0, 1.0)  # busy [10,11]; banks 9s of idle
        # A virtually-early request (arrival 2.0) fits in the 1..10 gap.
        assert p.serve_locked(2.0, 1.0) == 3.0

    def test_capacity_is_conserved_under_saturation(self):
        """N ops of service s arriving at once finish no earlier than N*s."""
        p = ServicePoint("t")
        finish = 0.0
        for _ in range(100):
            finish = max(finish, p.serve_locked(0.0, 1.0))
        assert finish >= 100.0

    def test_bank_drains_before_queueing(self):
        p = ServicePoint("t")
        p.serve_locked(0.0, 1.0)  # busy [0,1]
        p.serve_locked(3.0, 1.0)  # busy [3,4]; bank = 2
        # service 3 > bank 2: the bank is consumed and the deficit queues,
        # but completion can never precede arrival + service (6.5).
        assert p.serve_locked(3.5, 3.0) == 6.5
        assert p.idle_bank == 0.0

    def test_deficit_queueing_without_physical_floor(self):
        p = ServicePoint("t")
        p.serve_locked(0.0, 10.0)  # busy [0,10], bank 0
        # Arrives early, no bank: queues at the tail for its full service.
        assert p.serve_locked(1.0, 2.0) == 12.0

    def test_busy_time_and_served_counters(self):
        p = ServicePoint("t")
        p.serve_locked(0.0, 1.0)
        p.serve_locked(5.0, 2.0)
        assert p.busy_time == pytest.approx(3.0)
        assert p.served == 2

    def test_reset_zeroes_everything(self):
        p = ServicePoint("t")
        p.serve_locked(0.0, 5.0)
        p.reset()
        assert p.next_free == 0.0
        assert p.busy_time == 0.0
        assert p.served == 0
        assert p.idle_bank == 0.0

    def test_utilization_bounded_by_one(self):
        p = ServicePoint("t")
        for _ in range(10):
            p.serve_locked(0.0, 1.0)
        assert p.utilization() == pytest.approx(1.0)

    def test_utilization_with_horizon(self):
        p = ServicePoint("t")
        p.serve_locked(0.0, 1.0)
        assert p.utilization(horizon=4.0) == pytest.approx(0.25)

    def test_utilization_of_fresh_server_is_zero(self):
        assert ServicePoint("t").utilization() == 0.0
