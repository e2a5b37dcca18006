"""Tests for the lock-based baselines and the hot-counter read side."""

from __future__ import annotations

import pytest

from repro.baselines import GlobalLockReclaimer, LockedMap, LockedQueue, SpinLock
from repro.errors import EmptyStructureError
from repro.runtime import Runtime


class TestSpinLock:
    def test_mutual_exclusion(self, rt):
        lock = SpinLock(rt)
        counter = {"v": 0}

        def body(i):
            with lock:
                v = counter["v"]
                counter["v"] = v + 1

        rt.run(lambda: rt.forall(range(300), body))
        assert counter["v"] == 300

    def test_acquire_release_counts(self, rt):
        lock = SpinLock(rt)

        def main():
            for _ in range(5):
                lock.acquire()
                lock.release()

        rt.run(main)
        assert lock.acquisitions == 5
        assert lock.attempts >= 5

    def test_hold_time_serializes_in_virtual_time(self):
        """Lock capacity bounds throughput regardless of task count."""
        rt = Runtime(num_locales=1, network="none", tasks_per_locale=8)
        lock = SpinLock(rt)
        c = rt.config.costs

        def main():
            def body(i):
                lock.acquire()
                # Critical section: one simulated local atomic of work.
                rt.atomic_int(0, locale=0).read()
                lock.release()

            with rt.timed() as t:
                rt.forall(range(256), body, tasks_per_locale=8)
            return t.elapsed

        elapsed = rt.run(main)
        # 256 critical sections of >= one atomic each must serialize.
        assert elapsed >= 256 * c.cpu_atomic_latency

    def test_remote_lock_costs_more(self):
        """The lock lives on locale 0: taking it from locale 1 is remote."""
        rt = Runtime(num_locales=2, network="ugni")
        lock = SpinLock(rt)

        def main():
            costs = []
            for locale in (0, 1):
                with rt.on(locale):
                    with rt.timed() as t:
                        lock.acquire()
                        lock.release()
                costs.append(t.elapsed)
            return costs

        local, remote = rt.run(main)
        assert remote > local


class TestLockedQueue:
    def test_fifo(self, rt):
        def main():
            q = LockedQueue(rt)
            for i in range(5):
                q.enqueue(i)
            assert [q.dequeue() for _ in range(5)] == list(range(5))

        rt.run(main)

    def test_empty_dequeue(self, rt):
        def main():
            with pytest.raises(EmptyStructureError):
                LockedQueue(rt).dequeue()
            assert LockedQueue(rt).try_dequeue() is None

        rt.run(main)

    def test_len(self, rt):
        def main():
            q = LockedQueue(rt)
            q.enqueue(1)
            q.enqueue(2)
            assert len(q) == 2

        rt.run(main)


class TestLockedMap:
    def test_get_and_update(self, rt):
        def main():
            m = LockedMap(rt)
            assert m.get("n", "dflt") == "dflt"
            assert m.update("n", lambda v: v + 5, default=0) == 5
            assert m.update("x", lambda v: 1) == 1
            assert m.get("n") == 5
            assert len(m) == 2

        rt.run(main)

    def test_concurrent_updates_are_atomic(self, rt):
        def main():
            m = LockedMap(rt)

            def body(i):
                m.update("c", lambda v: v + 1, default=0)

            rt.forall(range(300), body)
            return m.get("c")

        assert rt.run(main) == 300


class TestGlobalLockReclaimer:
    def test_guard_interface_matches_tokens(self, rt):
        def main():
            glr = GlobalLockReclaimer(rt)
            guard = glr.register()
            guard.pin()
            assert glr.readers.peek() == 1
            guard.unpin()
            assert glr.readers.peek() == 0
            guard.unregister()
            assert not guard.needs_protect

        rt.run(main)

    def test_pin_costs_grow_remote(self):
        """Every pin is a remote atomic: the design flaw being ablated."""
        rt = Runtime(num_locales=4, network="ugni")
        glr = GlobalLockReclaimer(rt)

        def main():
            g = glr.register()
            with rt.on(3):
                rt.reset_measurements()
                g.pin()
                g.unpin()
            return rt.comm_totals()["amo"]

        assert rt.run(main) == 2  # one remote AMO per pin and unpin
