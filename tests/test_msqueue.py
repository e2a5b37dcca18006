"""Tests for the distributed Michael-Scott lock-free queue."""

from __future__ import annotations

import threading

import pytest

from repro.core import EpochManager
from repro.errors import EmptyStructureError
from repro.structures import LockFreeQueue


@pytest.fixture
def em(rt):
    return EpochManager(rt)


@pytest.fixture(params=[True, False], ids=["aba", "plain+ebr"])
def make_queue(rt, request):
    """Queue factory covering both ABA strategies."""

    def make():
        return LockFreeQueue(rt, aba_protection=request.param)

    return make


class TestSequentialSemantics:
    def test_fifo_order(self, rt, make_queue):
        def main():
            q = make_queue()
            for i in range(6):
                q.enqueue(i)
            assert [q.dequeue() for _ in range(6)] == list(range(6))

        rt.run(main)

    def test_dequeue_empty_raises(self, rt, make_queue):
        def main():
            with pytest.raises(EmptyStructureError):
                make_queue().dequeue()

        rt.run(main)

    def test_try_dequeue_empty_returns_none(self, rt, make_queue):
        def main():
            assert make_queue().try_dequeue() is None

        rt.run(main)

    def test_is_empty_transitions(self, rt, make_queue):
        def main():
            q = make_queue()
            assert q.is_empty()
            q.enqueue("a")
            assert not q.is_empty()
            q.dequeue()
            assert q.is_empty()

        rt.run(main)

    def test_interleaved_enqueue_dequeue(self, rt, make_queue):
        def main():
            q = make_queue()
            q.enqueue(1)
            q.enqueue(2)
            assert q.dequeue() == 1
            q.enqueue(3)
            assert q.dequeue() == 2
            assert q.dequeue() == 3

        rt.run(main)

    def test_unsafe_len(self, rt, make_queue):
        def main():
            q = make_queue()
            assert q.unsafe_len() == 0
            for i in range(5):
                q.enqueue(i)
            assert q.unsafe_len() == 5

        rt.run(main)

    def test_values_can_be_arbitrary_objects(self, rt, make_queue):
        def main():
            q = make_queue()
            payload = {"k": [1, 2, 3]}
            q.enqueue(payload)
            assert q.dequeue() is payload

        rt.run(main)


class TestReclamation:
    def test_dequeue_with_token_defers_the_old_dummy(self, rt, em):
        def main():
            q = LockFreeQueue(rt)
            q.enqueue("v")
            tok = em.register()
            tok.pin()
            assert q.dequeue(tok) == "v"
            tok.unpin()
            assert em.pending_count() == 1  # exactly one node retired
            em.clear()

        rt.run(main)

    def test_drain_then_queue_still_usable(self, rt, em):
        def main():
            q = LockFreeQueue(rt)
            tok = em.register()
            for i in range(8):
                q.enqueue(i)
            tok.pin()
            assert q.drain(tok) == list(range(8))
            tok.unpin()
            q.enqueue("after")
            assert q.dequeue() == "after"
            em.clear()

        rt.run(main)


class TestConcurrent:
    def test_concurrent_enqueues_lose_nothing(self, rt, em, make_queue):
        def main():
            q = make_queue()

            def body(i, tok):
                tok.pin()
                q.enqueue(i, tok)
                tok.unpin()

            rt.forall(range(300), body, task_init=em.register)
            got = q.drain()
            assert sorted(got) == list(range(300))
            em.clear()

        rt.run(main)

    def test_per_producer_fifo_order(self, rt, em):
        """MS queue guarantee: each producer's items stay in order."""

        def main():
            q = LockFreeQueue(rt)

            def body(i, tok):
                tok.pin()
                q.enqueue((rt._own_context().task_id, i), tok)
                tok.unpin()

            rt.forall(range(400), body, task_init=em.register)
            got = q.drain()
            assert len(got) == 400
            by_task = {}
            for tid, i in got:
                by_task.setdefault(tid, []).append(i)
            for seq in by_task.values():
                assert seq == sorted(seq)
            em.clear()

        rt.run(main)

    def test_concurrent_mixed_conserves_elements(self, rt, em, make_queue):
        def main():
            q = make_queue()
            got = []
            lock = threading.Lock()

            def body(i, tok):
                tok.pin()
                if i % 2 == 0:
                    q.enqueue(i, tok)
                else:
                    v = q.try_dequeue(tok)
                    if v is not None:
                        with lock:
                            got.append(v)
                tok.unpin()

            rt.forall(range(400), body, task_init=em.register)
            rest = q.drain()
            pushed = [i for i in range(400) if i % 2 == 0]
            assert sorted(got + rest) == pushed
            assert len(set(got)) == len(got)
            em.clear()

        rt.run(main)

    def test_helping_keeps_queue_consistent_under_contention(self, rt, em):
        """Hammer a single queue from all locales; verify count + order."""

        def main():
            q = LockFreeQueue(rt)

            def producer(i, tok):
                tok.pin()
                q.enqueue(i, tok)
                tok.unpin()

            rt.forall(range(256), producer, task_init=em.register,
                      tasks_per_locale=4)
            assert q.unsafe_len() == 256
            got = q.drain()
            assert sorted(got) == list(range(256))
            em.clear()

        rt.run(main)
