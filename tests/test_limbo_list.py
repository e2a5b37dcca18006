"""Tests for the wait-free limbo list and its node-recycling pool."""

from __future__ import annotations

import pytest

from repro.core.limbo_list import LimboList, NodePool
from repro.memory import GlobalAddress
from repro.runtime import Runtime


@pytest.fixture
def rt():
    return Runtime(num_locales=1, network="none")


@pytest.fixture
def pool(rt):
    return NodePool(rt, 0)


@pytest.fixture
def limbo(rt, pool):
    return LimboList(rt, 0, pool)


def A(i: int) -> GlobalAddress:
    return GlobalAddress(0, 0x1000 + 16 * i)


class TestNodePool:
    def test_get_allocates_when_empty(self, pool):
        node = pool.get("v")
        assert node.val == "v"
        assert node.next is None
        assert pool.allocated == 1

    def test_drained_node_is_recycled(self, pool, limbo):
        limbo.push(A(0))
        node = limbo._head.peek()
        limbo.drain()
        again = pool.get("b")
        assert again is node
        assert again.val == "b"
        assert pool.allocated == 1  # no second allocation

    def test_recycled_node_is_clean(self, pool, limbo):
        limbo.push(A(0))
        limbo.push(A(1))  # the second node links to the first
        limbo.drain()
        got = pool.get("c")
        assert got.next is None  # stale link scrubbed
        assert pool._head.peek().val is None  # drained values dropped

    def test_drain_count(self, pool, limbo):
        for i in range(5):
            limbo.push(A(i))
        limbo.drain()
        assert pool.drain_count() == 5

    def test_concurrent_get_and_drain_conserve_nodes(self, rt, pool):
        """No node is ever handed to two owners at once: every task's
        list drains exactly the values it pushed, through one pool."""
        errors = []

        def worker(wid):
            mine = LimboList(rt, 0, pool)
            try:
                pushed = []
                for i in range(200):
                    mine.push((wid, i))
                    pushed.append((wid, i))
                    if len(pushed) >= 4:
                        assert mine.drain() == pushed[::-1]
                        pushed = []
                assert mine.drain() == pushed[::-1]
            except AssertionError as exc:  # pragma: no cover
                errors.append(exc)

        rt.run(lambda: rt.forall(range(8), worker, tasks_per_locale=8))
        assert not errors
        assert pool.drain_count() == pool.allocated


class TestLimboListSequential:
    def test_push_then_collect(self, limbo):
        for i in range(10):
            limbo.push(A(i))
        got = limbo.drain()
        # LIFO order: last pushed first.
        assert got == [A(i) for i in reversed(range(10))]

    def test_pop_all_empties_the_list(self, limbo):
        limbo.push(A(0))
        assert limbo.pop_all() is not None
        assert limbo.pop_all() is None
        assert limbo.is_empty_snapshot()

    def test_drain_recycles_nodes(self, limbo, pool):
        for i in range(8):
            limbo.push(A(i))
        limbo.drain()
        # All 8 nodes back in the pool.
        assert pool.drain_count() == 8
        # The next 8 pushes allocate nothing new.
        before = pool.allocated
        for i in range(8):
            limbo.push(A(i))
        assert pool.allocated == before

    def test_push_is_one_exchange_no_retry(self, rt, limbo):
        """Wait-freedom witness: each push costs a bounded op count."""

        def main():
            rt.reset_measurements()
            limbo.push(A(1))
            return rt.comm_totals()["local_amo"]

        ops = rt.run(main)
        # pool get (<=2 atomics) + head exchange (1) — strictly bounded.
        assert ops <= 4

    def test_interleaved_push_collect_phases(self, limbo):
        limbo.push(A(0))
        assert limbo.drain() == [A(0)]
        limbo.push(A(1))
        limbo.push(A(2))
        assert limbo.drain() == [A(2), A(1)]


class TestLimboListConcurrent:
    def test_concurrent_pushes_lose_nothing(self, rt):
        """The disjoint-phase contract: push concurrently, drain after."""
        pool = NodePool(rt, 0)
        limbo = LimboList(rt, 0, pool)
        N, T = 300, 8

        def worker(wid):
            for i in range(N):
                limbo.push((wid, i))

        rt.run(lambda: rt.forall(range(T), worker, tasks_per_locale=T))
        got = limbo.drain()
        assert len(got) == N * T
        assert set(got) == {(w, i) for w in range(T) for i in range(N)}

    def test_per_producer_lifo_order_is_preserved(self, rt):
        """Within one producer, later pushes appear earlier in the chain."""
        pool = NodePool(rt, 0)
        limbo = LimboList(rt, 0, pool)

        def worker(wid):
            for i in range(100):
                limbo.push((wid, i))

        rt.run(lambda: rt.forall(range(4), worker, tasks_per_locale=4))
        got = limbo.drain()
        for wid in range(4):
            seq = [i for (w, i) in got if w == wid]
            assert seq == sorted(seq, reverse=True)
