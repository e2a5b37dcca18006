"""Tests for the distributed Treiber stack (paper Listing 1)."""

from __future__ import annotations

import threading

import pytest

from repro.core import EpochManager
from repro.errors import EmptyStructureError
from repro.structures import LockFreeStack
from conftest import is_live


@pytest.fixture
def em(rt):
    return EpochManager(rt)


class TestSequentialSemantics:
    def test_lifo_order(self, rt):
        def main():
            st = LockFreeStack(rt)
            for i in range(5):
                st.push(i)
            assert [st.pop() for _ in range(5)] == [4, 3, 2, 1, 0]

        rt.run(main)

    def test_pop_empty_raises(self, rt):
        def main():
            with pytest.raises(EmptyStructureError):
                LockFreeStack(rt).pop()

        rt.run(main)

    def test_try_pop_empty_returns_none(self, rt):
        def main():
            assert LockFreeStack(rt).try_pop() is None

        rt.run(main)

    def test_peek_and_is_empty(self, rt):
        def main():
            st = LockFreeStack(rt)
            assert st.is_empty()
            assert st.peek() is None
            st.push("x")
            assert st.peek() == "x"
            assert not st.is_empty()
            st.pop()
            assert st.is_empty()

        rt.run(main)

    def test_nodes_allocated_on_pushing_locale(self, rt):
        def main():
            st = LockFreeStack(rt)
            with rt.on(2):
                addr = st.push("from-2")
            assert addr.locale == 2

        rt.run(main)

    def test_plain_cas_mode_works_sequentially(self, rt):
        def main():
            st = LockFreeStack(rt, aba_protection=False)
            st.push(1)
            st.push(2)
            assert st.pop() == 2
            assert st.pop() == 1

        rt.run(main)

    def test_unsafe_iter_sees_all(self, rt):
        def main():
            st = LockFreeStack(rt)
            for i in range(4):
                st.push(i)
            assert list(st.unsafe_iter()) == [3, 2, 1, 0]

        rt.run(main)

    def test_drain(self, rt):
        def main():
            st = LockFreeStack(rt)
            for i in range(6):
                st.push(i)
            assert sorted(st.drain()) == list(range(6))
            assert st.is_empty()

        rt.run(main)


class TestReclamationIntegration:
    def test_pop_with_token_defers_the_node(self, rt, em):
        def main():
            st = LockFreeStack(rt)
            addr = st.push("v")
            tok = em.register()
            tok.pin()
            assert st.pop(tok) == "v"
            tok.unpin()
            assert is_live(rt, addr)  # deferred, not freed
            em.clear()
            assert not is_live(rt, addr)

        rt.run(main)

    def test_pop_without_token_leaks_by_default(self, rt):
        def main():
            st = LockFreeStack(rt)
            addr = st.push("v")
            st.pop()
            assert is_live(rt, addr)  # leak is the safe default

        rt.run(main)

    def test_unsafe_free_mode_frees_immediately(self, rt):
        def main():
            st = LockFreeStack(rt, unsafe_free=True)
            addr = st.push("v")
            st.pop()
            assert not is_live(rt, addr)

        rt.run(main)


class TestConcurrent:
    def test_concurrent_pushes_preserve_every_element(self, rt, em):
        def main():
            st = LockFreeStack(rt)

            def body(i, tok):
                tok.pin()
                st.push(i)
                tok.unpin()

            rt.forall(range(400), body, task_init=em.register)
            got = st.drain()
            assert sorted(got) == list(range(400))

        rt.run(main)

    def test_concurrent_push_pop_conserves_elements(self, rt, em):
        def main():
            st = LockFreeStack(rt)
            popped = []
            lock = threading.Lock()

            def pusher(i, tok):
                tok.pin()
                st.push(i)
                tok.unpin()

            def popper(i, tok):
                tok.pin()
                v = st.try_pop(tok)
                tok.unpin()
                if v is not None:
                    with lock:
                        popped.append(v)

            rt.forall(range(300), pusher, task_init=em.register)
            rt.forall(range(300), popper, task_init=em.register)
            rest = st.drain()
            assert sorted(popped + rest) == list(range(300))
            # No duplicates: each element popped at most once.
            assert len(set(popped)) == len(popped)
            em.clear()

        rt.run(main)

    def test_mixed_producers_consumers_same_forall(self, rt, em):
        def main():
            st = LockFreeStack(rt)
            popped = []
            lock = threading.Lock()

            def body(i, tok):
                tok.pin()
                if i % 2 == 0:
                    st.push(i)
                else:
                    v = st.try_pop(tok)
                    if v is not None:
                        with lock:
                            popped.append(v)
                tok.unpin()

            rt.forall(range(500), body, task_init=em.register)
            rest = st.drain()
            pushed = [i for i in range(500) if i % 2 == 0]
            assert sorted(popped + rest) == pushed
            em.clear()

        rt.run(main)

    def test_ebr_protected_plain_cas_stack_is_safe(self, rt, em):
        """Plain CAS + EBR: the paper's fast path, hammered concurrently.

        Every pop defers through a pinned token, so addresses can't recycle
        under a peer's snapshot; the checked heap would raise on any ABA
        corruption or use-after-free.
        """

        def main():
            st = LockFreeStack(rt, aba_protection=False)

            def body(i, tok):
                tok.pin()
                st.push(i)
                st.try_pop(tok)
                tok.unpin()
                if i % 32 == 0:
                    tok.try_reclaim()

            rt.forall(range(600), body, task_init=em.register)
            st.drain()
            em.clear()

        rt.run(main)
