"""Tests for the lock-free ordered list (Harris/Michael with mark bits)."""

from __future__ import annotations

import threading

import pytest

from repro.core import EpochManager
from repro.structures import LockFreeOrderedList
from repro.structures.harris_list import _pack, _unpack
from repro.memory import NIL, GlobalAddress


@pytest.fixture
def em(rt):
    return EpochManager(rt)


class TestMarkPacking:
    def test_pack_unpack_roundtrip(self):
        a = GlobalAddress(3, 0x1230)
        for marked in (False, True):
            addr, m = _unpack(_pack(a, marked))
            assert addr == a
            assert m is marked

    def test_mark_bit_is_bit_zero(self):
        a = GlobalAddress(0, 0x1000)
        assert _pack(a, True) == _pack(a, False) | 1

    def test_nil_packs_cleanly(self):
        assert _unpack(_pack(NIL, False)) == (NIL, False)
        assert _unpack(_pack(NIL, True)) == (NIL, True)


class TestSequentialSetSemantics:
    def test_insert_contains_remove(self, rt):
        def main():
            lst = LockFreeOrderedList(rt)
            assert lst.insert(5)
            assert lst.contains(5)
            assert not lst.contains(4)
            assert lst.remove(5)
            assert not lst.contains(5)
            assert not lst.remove(5)

        rt.run(main)

    def test_duplicate_insert_rejected(self, rt):
        def main():
            lst = LockFreeOrderedList(rt)
            assert lst.insert(1)
            assert not lst.insert(1)

        rt.run(main)

    def test_keys_kept_sorted(self, rt):
        def main():
            lst = LockFreeOrderedList(rt)
            for k in (5, 1, 9, 3, 7):
                lst.insert(k)
            assert lst.unsafe_keys() == [1, 3, 5, 7, 9]

        rt.run(main)

    def test_values_stored_and_fetched(self, rt):
        def main():
            lst = LockFreeOrderedList(rt)
            lst.insert(1, "one")
            lst.insert(2, "two")
            assert lst.get(1) == "one"
            assert lst.get(2) == "two"
            assert lst.get(3, "default") == "default"

        rt.run(main)

    def test_remove_middle_and_ends(self, rt):
        def main():
            lst = LockFreeOrderedList(rt)
            for k in range(5):
                lst.insert(k)
            assert lst.remove(2)  # middle
            assert lst.remove(0)  # head
            assert lst.remove(4)  # tail
            assert lst.unsafe_keys() == [1, 3]

        rt.run(main)

    def test_reinsert_after_remove(self, rt):
        def main():
            lst = LockFreeOrderedList(rt)
            lst.insert(1)
            lst.remove(1)
            assert lst.insert(1)
            assert lst.contains(1)

        rt.run(main)

    def test_failed_insert_does_not_leak(self, rt):
        """A lost-CAS retry frees its unpublished node."""

        def main():
            lst = LockFreeOrderedList(rt)
            before = sum(loc.heap.live_count for loc in rt.locales)
            lst.insert(1)
            lst.insert(1)  # duplicate: no node should stick around
            after = sum(loc.heap.live_count for loc in rt.locales)
            return after - before

        assert rt.run(main) == 1  # exactly the one successful node

    def test_unsafe_items_skips_marked_nodes(self, rt):
        def main():
            lst = LockFreeOrderedList(rt)
            lst.insert(1, "a")
            lst.insert(2, "b")
            lst.remove(1)
            assert dict(lst.unsafe_items()) == {2: "b"}

        rt.run(main)


class TestReclamation:
    def test_removed_nodes_deferred_through_token(self, rt, em):
        def main():
            lst = LockFreeOrderedList(rt)
            tok = em.register()
            lst.insert(7, guard=None)
            tok.pin()
            assert lst.remove(7, guard=tok)
            tok.unpin()
            assert em.pending_count() >= 1
            em.clear()

        rt.run(main)

    def test_traversal_helps_unlink_marked_nodes(self, rt, em):
        """A find() passing a marked node unlinks and defers it."""

        def main():
            lst = LockFreeOrderedList(rt)
            for k in range(4):
                lst.insert(k)
            tok = em.register()
            tok.pin()
            lst.remove(1, guard=tok)
            lst.remove(2, guard=tok)
            # A later insert traverses and must not trip over marked nodes.
            assert lst.insert(10, guard=tok)
            tok.unpin()
            assert lst.unsafe_keys() == [0, 3, 10]
            em.clear()

        rt.run(main)


class TestConcurrent:
    def test_disjoint_concurrent_inserts(self, rt, em):
        def main():
            lst = LockFreeOrderedList(rt)

            def body(i, tok):
                tok.pin()
                assert lst.insert(i, i * 10, guard=tok)
                tok.unpin()

            rt.forall(range(200), body, task_init=em.register)
            assert lst.unsafe_keys() == list(range(200))
            assert lst.get(137) == 1370
            em.clear()

        rt.run(main)

    def test_competing_inserts_of_same_keys(self, rt, em):
        """Exactly one winner per key under racing inserts."""

        def main():
            lst = LockFreeOrderedList(rt)
            wins = []
            lock = threading.Lock()

            def body(i, tok):
                key = i % 50  # 4+ tasks race per key
                tok.pin()
                if lst.insert(key, guard=tok):
                    with lock:
                        wins.append(key)
                tok.unpin()

            rt.forall(range(200), body, task_init=em.register)
            assert sorted(wins) == list(range(50))
            assert lst.unsafe_keys() == list(range(50))
            em.clear()

        rt.run(main)

    def test_concurrent_insert_remove_mix(self, rt, em):
        def main():
            lst = LockFreeOrderedList(rt)
            for k in range(100):
                lst.insert(k)

            def body(i, tok):
                tok.pin()
                if i % 2 == 0:
                    lst.remove(i % 100, guard=tok)
                else:
                    lst.insert(100 + i, guard=tok)
                tok.unpin()

            rt.forall(range(200), body, task_init=em.register)
            keys = lst.unsafe_keys()
            assert keys == sorted(set(keys))  # sorted, no duplicates
            # Every even key 0..98 removed; odd survivors intact.
            for k in range(0, 100, 2):
                assert k not in keys
            for k in range(1, 100, 2):
                assert k in keys
            em.clear()

        rt.run(main)

    def test_remove_returns_true_exactly_once_per_key(self, rt, em):
        def main():
            lst = LockFreeOrderedList(rt)
            for k in range(40):
                lst.insert(k)
            removed = []
            lock = threading.Lock()

            def body(i, tok):
                tok.pin()
                if lst.remove(i % 40, guard=tok):
                    with lock:
                        removed.append(i % 40)
                tok.unpin()

            rt.forall(range(160), body, task_init=em.register)
            assert sorted(removed) == list(range(40))
            assert lst.unsafe_keys() == []
            em.clear()

        rt.run(main)
