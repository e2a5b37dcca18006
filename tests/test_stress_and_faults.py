"""Heavier concurrency stress and failure-injection tests.

These push the building blocks harder than the per-module unit tests:
more tasks per locale, hotter contention, mixed operations, and deliberate
faults (rug-pulled memory, dying workloads) to verify the manager's
election flags and limbo state survive exceptions.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import AtomicObject, EpochManager
from repro.errors import DoubleFreeError, MemoryError_
from repro.runtime import Runtime
from repro.structures import InterlockedHashTable, LockFreeQueue, LockFreeStack
from conftest import is_live, table_items


@pytest.fixture
def rt():
    return Runtime(num_locales=4, network="ugni", tasks_per_locale=4)


class TestHotContention:
    def test_single_atomic_object_hammered_from_all_locales(self, rt):
        """CAS-increment a counter-through-pointer 600 times: exact count."""

        def main():
            em = EpochManager(rt)
            cell = AtomicObject(rt, locale=0)
            first = rt.new_obj(0, locale=0)
            cell.write(first)

            def body(i, tok):
                tok.pin()
                while True:
                    snap = cell.read_aba()
                    cur = rt.deref(snap.get_object())
                    nxt = rt.new_obj(cur + 1)
                    if cell.compare_and_swap_aba(snap, nxt):
                        tok.defer_delete(snap.get_object())
                        break
                    rt.free(nxt)  # lost the race; our candidate never escaped
                tok.unpin()
                if i % 128 == 0:
                    tok.try_reclaim()

            rt.forall(range(600), body, task_init=em.register)
            final = rt.deref(cell.read())
            em.clear()
            return final

        assert rt.run(main) == 600

    def test_stack_and_queue_ping_pong(self, rt):
        """Elements bounce stack->queue->stack; nothing lost or duplicated."""

        def main():
            em = EpochManager(rt)
            st = LockFreeStack(rt)
            q = LockFreeQueue(rt)
            for i in range(120):
                st.push(i)

            def body(i, tok):
                tok.pin()
                if i % 2 == 0:
                    v = st.try_pop(tok)
                    if v is not None:
                        q.enqueue(v, tok)
                else:
                    v = q.try_dequeue(tok)
                    if v is not None:
                        st.push(v)
                tok.unpin()

            rt.forall(range(480), body, task_init=em.register)
            everything = sorted(st.drain() + q.drain())
            em.clear()
            return everything

        assert rt.run(main) == list(range(120))

    def test_hash_table_mixed_churn_with_reclaim(self, rt):
        def main():
            em = EpochManager(rt)
            t = InterlockedHashTable(rt, buckets=8, reclaimer=em)

            def body(i, tok):
                tok.pin()
                k = i % 25
                if i % 3 == 0:
                    t.put(k, i, guard=tok)
                elif i % 3 == 1:
                    t.get(k)
                else:
                    t.remove(k, guard=tok)
                tok.unpin()
                if i % 100 == 0:
                    tok.try_reclaim()

            rt.forall(range(600), body, task_init=em.register)
            # Table must still be internally consistent.
            items = dict(table_items(t))
            assert len(items) == len(table_items(t))  # no duplicate keys
            for k in items:
                assert t.get(k) == items[k]
            em.clear()

        rt.run(main)


class TestFailureInjection:
    def test_reclaim_survives_rug_pulled_memory(self, rt):
        """A double-free during the drain must not wedge the manager.

        We defer an address and then free it behind the manager's back;
        the drain raises DoubleFreeError — and the election flags must
        still be cleared (the finally path), leaving the manager usable.
        """

        def main():
            em = EpochManager(rt)
            tok = em.register()
            addr = rt.new_obj("x")
            tok.pin()
            tok.defer_delete(addr)
            tok.unpin()
            rt.free(addr)  # rug pull

            with pytest.raises(DoubleFreeError):
                # Two advances bring the poisoned limbo list up for drain.
                em.try_reclaim()
                em.try_reclaim()

            # Flags must be clear: a healthy reclaim can run again.
            assert not em.global_epoch.is_setting_epoch.peek()
            assert not em.get_privatized_instance(0).is_setting_epoch.peek()
            assert em.try_reclaim()

        rt.run(main)

    def test_worker_exception_does_not_leak_tokens(self, rt):
        """Dying workers' tokens are auto-unregistered (close hook)."""

        def main():
            em = EpochManager(rt)

            def body(i, tok):
                tok.pin()
                tok.unpin()
                if i == 13:
                    raise RuntimeError("worker died")

            with pytest.raises(RuntimeError):
                rt.forall(range(64), body, task_init=em.register)
            # Every token was released: nothing can block advancement.
            for _ in range(3):
                assert em.try_reclaim()

        rt.run(main)

    def test_worker_dying_while_pinned_blocks_but_does_not_corrupt(self, rt):
        """The documented EBR liveness caveat, exercised."""

        def main():
            em = EpochManager(rt)
            zombie = em.register()
            zombie.pin()  # simulates a task that died mid-operation
            em.try_reclaim()  # ok: zombie is in the current epoch

            tok = em.register()
            addr = rt.new_obj("x")
            tok.pin()
            tok.defer_delete(addr)
            tok.unpin()

            # The zombie (now stale) pins the epoch forever...
            for _ in range(4):
                assert not em.try_reclaim()
            assert is_live(rt, addr)
            # ...but other tasks' operations still complete (no blocking),
            # and an operator clear() can reclaim after quiescing.
            zombie.unregister()
            assert em.try_reclaim()

        rt.run(main)

    def test_heap_errors_propagate_out_of_forall(self, rt):
        def main():
            addr = rt.new_obj("x", locale=0)
            rt.free(addr)

            def body(i):
                rt.deref(addr)  # guaranteed UAF

            with pytest.raises(MemoryError_):
                rt.forall(range(4), body)

        rt.run(main)


class TestManyTasksPerLocale:
    def test_oversubscribed_forall(self, rt):
        """More worker tasks than items per locale still terminates clean."""

        def main():
            hits = []
            lock = threading.Lock()

            def body(i):
                with lock:
                    hits.append(i)

            rt.forall(range(6), body, tasks_per_locale=8)
            return sorted(hits)

        assert rt.run(main) == list(range(6))

    def test_sixteen_tasks_per_locale_epoch_churn(self, rt):
        def main():
            em = EpochManager(rt)

            def body(i, tok):
                tok.pin()
                tok.defer_delete(rt.new_obj(i))
                tok.unpin()
                if i % 64 == 0:
                    tok.try_reclaim()

            rt.forall(range(512), body, task_init=em.register,
                      tasks_per_locale=16)
            em.clear()
            return em.stats()["objects_reclaimed"]

        assert rt.run(main) == 512
