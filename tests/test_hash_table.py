"""Tests for the distributed InterlockedHashTable."""

from __future__ import annotations

import threading

import pytest

from repro.core import EpochManager
from repro.reclaim import EBRReclaimer
from repro.structures import InterlockedHashTable


@pytest.fixture
def em(rt):
    return EpochManager(rt)


@pytest.fixture
def table(rt, em):
    return InterlockedHashTable(rt, buckets=16, reclaimer=EBRReclaimer(rt, manager=em))


class TestMapSemantics:
    def test_put_get(self, rt, table):
        def main():
            assert table.put("a", 1)  # new key
            assert not table.put("a", 2)  # update
            assert table.get("a") == 2

        rt.run(main)

    def test_get_missing_returns_default(self, rt, table):
        def main():
            assert table.get("nope") is None
            assert table.get("nope", 42) == 42

        rt.run(main)

    def test_contains(self, rt, table):
        def main():
            table.put("k", None)  # None values are real values
            assert table.contains("k")
            assert not table.contains("other")

        rt.run(main)

    def test_remove(self, rt, table):
        def main():
            table.put("k", 1)
            assert table.remove("k")
            assert not table.remove("k")
            assert not table.contains("k")

        rt.run(main)

    def test_idempotent_put_publishes_nothing(self, rt, table):
        """put(k, same_value) short-circuits without a CAS."""

        def main():
            table.put("k", 7)
            before = sum(loc.heap.live_count for loc in rt.locales)
            table.put("k", 7)
            after = sum(loc.heap.live_count for loc in rt.locales)
            assert after == before

        rt.run(main)

    def test_update_read_modify_write(self, rt, table):
        def main():
            assert table.update("n", lambda v: v + 1, default=0) == 1
            assert table.update("n", lambda v: v + 1, default=0) == 2
            assert table.get("n") == 2

        rt.run(main)

    def test_many_keys_and_items(self, rt, table):
        def main():
            for i in range(100):
                table.put(f"k{i}", i)
            assert table.size() == 100
            assert dict(table.items()) == {f"k{i}": i for i in range(100)}

        rt.run(main)

    def test_heterogeneous_key_types(self, rt, table):
        def main():
            table.put(1, "int")
            table.put("1", "str")
            table.put((1, 2), "tuple")
            assert table.get(1) == "int"
            assert table.get("1") == "str"
            assert table.get((1, 2)) == "tuple"

        rt.run(main)

    def test_bucket_count_rounds_to_power_of_two(self, rt, em):
        t = InterlockedHashTable(rt, buckets=20, reclaimer=EBRReclaimer(rt, manager=em))
        assert t.bucket_count == 32

    def test_buckets_distributed_cyclically(self, rt, em):
        t = InterlockedHashTable(rt, buckets=16, reclaimer=EBRReclaimer(rt, manager=em))
        homes = {h.home for h in t._headers}
        assert homes == set(range(rt.num_locales))

    def test_owner_locale_is_stable(self, rt, table):
        assert table.owner_locale("key") == table.owner_locale("key")


class TestResizeAndDestroy:
    def test_resize_preserves_contents(self, rt, em):
        def main():
            t = InterlockedHashTable(rt, buckets=4, reclaimer=EBRReclaimer(rt, manager=em))
            for i in range(50):
                t.put(i, i * i)
            t.resize(64)
            assert t.bucket_count == 64
            for i in range(50):
                assert t.get(i) == i * i
            assert t.size() == 50

        rt.run(main)

    def test_destroy_frees_snapshots(self, rt):
        def main():
            t = InterlockedHashTable(rt, buckets=8)
            tok = t.reclaimer.register()
            tok.pin()
            for i in range(20):
                # With a token, replaced snapshots retire via the manager;
                # destroy() then drains both the headers and the manager.
                t.put(i, i, guard=tok)
            tok.unpin()
            tok.unregister()
            before = sum(loc.heap.live_count for loc in rt.locales)
            assert before > 0
            t.destroy()
            after = sum(loc.heap.live_count for loc in rt.locales)
            assert after == 0

        rt.run(main)


class TestReclamation:
    def test_old_snapshots_retired_through_token(self, rt, em, table):
        def main():
            tok = em.register()
            tok.pin()
            table.put("k", 1, guard=tok)
            table.put("k", 2, guard=tok)  # retires the first snapshot
            tok.unpin()
            assert em.pending_count() >= 1
            em.clear()
            assert table.get("k") == 2

        rt.run(main)

    def test_without_token_old_snapshots_leak_safely(self, rt, table):
        def main():
            table.put("k", 1)
            table.put("k", 2)
            assert table.get("k") == 2  # correct, just leaky

        rt.run(main)


class TestConcurrent:
    def test_concurrent_disjoint_puts(self, rt, em, table):
        def main():
            def body(i, tok):
                tok.pin()
                table.put(i, i, guard=tok)
                tok.unpin()

            rt.forall(range(300), body, task_init=em.register)
            assert table.size() == 300
            for i in range(300):
                assert table.get(i) == i
            em.clear()

        rt.run(main)

    def test_concurrent_counter_updates_are_linearizable(self, rt, em, table):
        """The RCU update loop must not lose increments."""

        def main():
            def body(i, tok):
                tok.pin()
                table.update("counter", lambda v: v + 1, default=0, guard=tok)
                tok.unpin()

            rt.forall(range(256), body, task_init=em.register)
            em.clear()
            return table.get("counter")

        assert rt.run(main) == 256

    def test_concurrent_puts_and_removes(self, rt, em, table):
        def main():
            for i in range(100):
                table.put(i, "seed")

            def body(i, tok):
                tok.pin()
                if i % 2 == 0:
                    table.remove(i % 100, guard=tok)
                else:
                    table.put(1000 + i, i, guard=tok)
                tok.unpin()

            rt.forall(range(200), body, task_init=em.register)
            for k in range(0, 100, 2):
                assert not table.contains(k)
            for k in range(1, 100, 2):
                assert table.contains(k)
            em.clear()

        rt.run(main)

    def test_plain_cas_mode_with_ebr_is_correct(self, rt, em):
        """aba_protection=False + pinned tokens: the RDMA fast path."""

        def main():
            t = InterlockedHashTable(
                rt, buckets=8, reclaimer=EBRReclaimer(rt, manager=em), aba_protection=False
            )

            def body(i, tok):
                tok.pin()
                t.update("hot", lambda v: v + 1, default=0, guard=tok)
                tok.unpin()
                if i % 64 == 0:
                    tok.try_reclaim()

            rt.forall(range(256), body, task_init=em.register)
            em.clear()
            return t.get("hot")

        assert rt.run(main) == 256

    def test_wait_free_reads_under_write_storm(self, rt, em, table):
        """Readers always see a consistent snapshot while writers churn."""

        def main():
            table.put("k", 0)
            seen_bad = []
            lock = threading.Lock()

            def body(i, tok):
                tok.pin()
                if i % 4 == 0:
                    table.put("k", i, guard=tok)
                else:
                    v = table.get("k")
                    if not (isinstance(v, int) and 0 <= v < 400):
                        with lock:
                            seen_bad.append(v)
                tok.unpin()

            rt.forall(range(400), body, task_init=em.register)
            assert not seen_bad
            em.clear()

        rt.run(main)
