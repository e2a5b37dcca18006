"""Tests for the RCUArray extension (reference [15]'s construction)."""

from __future__ import annotations

import threading

import pytest

from repro.core import EpochManager
from repro.core.atomic_object import AtomicObject
from repro.errors import StructureError
from repro.structures import RCUArray


@pytest.fixture
def em(rt):
    return EpochManager(rt)


class TestBasics:
    def test_initial_length_and_fill(self, rt):
        def main():
            arr = RCUArray(rt, 10, fill=0)
            assert len(arr) == 10
            assert arr.snapshot() == [0] * 10

        rt.run(main)

    def test_read_write(self, rt):
        def main():
            arr = RCUArray(rt, 8)
            arr.write(3, "x")
            assert arr.read(3) == "x"
            assert arr.read(0) is None

        rt.run(main)

    def test_out_of_range_raises(self, rt):
        def main():
            arr = RCUArray(rt, 4)
            with pytest.raises(StructureError):
                arr.read(4)
            with pytest.raises(StructureError):
                arr.write(-1, 0)
            with pytest.raises(StructureError):
                arr.read(-1)

        rt.run(main)

    def test_blocks_distributed_round_robin(self, rt):
        def main():
            arr = RCUArray(rt, 4 * 16, block_size=16)
            assert arr.block_locales() == [0, 1, 2, 3]

        rt.run(main)

    def test_block_size_validation(self, rt):
        with pytest.raises(ValueError):
            RCUArray(rt, 4, block_size=0)

    def test_zero_length_array(self, rt):
        def main():
            arr = RCUArray(rt)
            assert len(arr) == 0
            assert arr.snapshot() == []

        rt.run(main)


class TestResize:
    def test_grow_preserves_contents(self, rt):
        def main():
            arr = RCUArray(rt, 5, block_size=4, fill=0)
            for i in range(5):
                arr.write(i, i)
            arr.resize(11)
            assert len(arr) == 11
            assert arr.snapshot()[:5] == [0, 1, 2, 3, 4]
            arr.write(10, "tail")
            assert arr.read(10) == "tail"

        rt.run(main)

    def test_shrink_drops_tail(self, rt):
        def main():
            arr = RCUArray(rt, 10, block_size=4)
            for i in range(10):
                arr.write(i, i)
            arr.resize(3)
            assert len(arr) == 3
            assert arr.snapshot() == [0, 1, 2]
            with pytest.raises(StructureError):
                arr.read(3)

        rt.run(main)

    def test_resize_retires_old_metadata_through_token(self, rt, em):
        def main():
            arr = RCUArray(rt, 8, block_size=4)
            tok = em.register()
            tok.pin()
            arr.resize(4, guard=tok)  # drops one block + old descriptor
            tok.unpin()
            assert em.pending_count() >= 2
            em.clear()
            # The array still works after reclamation.
            arr.write(0, "ok")
            assert arr.read(0) == "ok"

        rt.run(main)

    def test_shared_blocks_survive_old_descriptor_reclaim(self, rt, em):
        """Blocks reused by the new descriptor must NOT be retired."""

        def main():
            arr = RCUArray(rt, 8, block_size=4)
            arr.write(1, "keep")
            tok = em.register()
            tok.pin()
            arr.resize(12, guard=tok)  # grows: all old blocks survive
            tok.unpin()
            em.clear()
            assert arr.read(1) == "keep"

        rt.run(main)

    def test_append_returns_indices(self, rt):
        def main():
            arr = RCUArray(rt, 0, block_size=2)
            for i in range(7):
                assert arr.append(i * 10) == i
            assert arr.snapshot() == [i * 10 for i in range(7)]

        rt.run(main)

    def test_negative_resize_rejected(self, rt):
        def main():
            with pytest.raises(ValueError):
                RCUArray(rt, 1).resize(-1)

        rt.run(main)

    def test_destroy_frees_everything(self, rt):
        def main():
            before = sum(loc.heap.live_count for loc in rt.locales)
            arr = RCUArray(rt, 20, block_size=4)
            arr.destroy()
            after = sum(loc.heap.live_count for loc in rt.locales)
            assert after == before

        rt.run(main)


class TestConcurrent:
    def test_readers_survive_concurrent_resizes(self, rt, em):
        """RCU's whole point: readers never see a torn structure."""

        def main():
            arr = RCUArray(rt, 64, block_size=8, fill=0)
            errors = []
            lock = threading.Lock()

            def body(i, tok):
                tok.pin()
                try:
                    if i % 16 == 0:
                        arr.resize(64 + (i % 64), guard=tok)
                    else:
                        v = arr.read(i % 32)  # always within bounds
                        if not (v == 0 or isinstance(v, int)):
                            with lock:
                                errors.append(v)
                except StructureError:
                    pass  # racing a shrink below our index is legal
                finally:
                    tok.unpin()

            rt.forall(range(400), body, task_init=em.register)
            assert not errors
            em.clear()

        rt.run(main)

    def test_concurrent_disjoint_writes(self, rt, em):
        def main():
            arr = RCUArray(rt, 256, block_size=16)

            def body(i, tok):
                tok.pin()
                arr.write(i, i * 3)
                tok.unpin()

            rt.forall(range(256), body, task_init=em.register)
            assert arr.snapshot() == [i * 3 for i in range(256)]
            em.clear()

        rt.run(main)

    def test_append_racing_a_publish_keeps_both_elements(
        self, rt, monkeypatch
    ):
        """An append whose CAS loses to another append must take the next
        slot, not republish the length it read before the race."""
        real_cas = AtomicObject.compare_and_swap_aba

        def main():
            arr = RCUArray(rt, 3, block_size=2, fill=0)
            armed = [True]
            rival = []

            def cas(obj, expected, desired):
                # The first CAS on the root lands after another append's.
                if obj is arr._root and armed:
                    armed.clear()
                    rival.append(arr.append("rival"))
                return real_cas(obj, expected, desired)

            monkeypatch.setattr(AtomicObject, "compare_and_swap_aba", cas)
            idx = arr.append("mine")
            monkeypatch.undo()
            assert rival == [3]
            assert idx == 4
            assert len(arr) == 5
            assert arr.snapshot() == [0, 0, 0, "rival", "mine"]

        rt.run(main)

    def test_wait_free_reads_cost_constant_ops(self, rt):
        """A read is one root atomic + two GETs, independent of history."""

        def main():
            arr = RCUArray(rt, 64, block_size=8)
            for _ in range(10):
                arr.resize(len(arr) + 8)
            rt.reset_measurements()
            arr.read(0)
            t = rt.comm_totals()
            # Bounded op count: the root DCAS read plus <= 2 GETs.
            return t["get"] + t["amo"] + t["local_amo"] + t["am"]

        assert rt.run(main) <= 4
