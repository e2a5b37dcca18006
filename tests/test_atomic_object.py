"""Tests for AtomicObject / LocalAtomicObject / ABA wrapper / descriptors."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import ABA, AtomicObject, GlobalAtomicObject, LocalAtomicObject
from repro.core.atomic_object import DescriptorTable
from repro.errors import LocaleError, RuntimeStateError
from repro.memory import NIL, GlobalAddress
from repro.runtime import Runtime


@pytest.fixture
def rt():
    return Runtime(num_locales=4, network="ugni")


def _addr(rt, locale=0, payload="obj"):
    return rt.locale(locale).heap.alloc(payload)


class TestABAWrapper:
    def test_value_and_count(self):
        a = ABA(GlobalAddress(1, 16), 7)
        assert a.value == GlobalAddress(1, 16)
        assert a.count == 7
        assert a.get_object() == GlobalAddress(1, 16)
        assert a.getObject() == GlobalAddress(1, 16)

    def test_equality_includes_counter(self):
        x = GlobalAddress(0, 32)
        assert ABA(x, 1) == ABA(x, 1)
        assert ABA(x, 1) != ABA(x, 2)

    def test_equality_against_bare_value_ignores_counter(self):
        x = GlobalAddress(0, 32)
        assert ABA(x, 5) == x

    def test_hashable(self):
        x = GlobalAddress(0, 32)
        assert len({ABA(x, 1), ABA(x, 1), ABA(x, 2)}) == 2

    def test_truthiness_forwards_nil(self):
        assert not ABA(NIL, 3)
        assert ABA(GlobalAddress(1, 16), 0)

    def test_attribute_forwarding(self):
        a = ABA(GlobalAddress(2, 16), 0)
        assert a.locale == 2  # forwarded to the wrapped GlobalAddress
        assert a.offset == 16


class TestAtomicObjectModes:
    def test_auto_mode_picks_compressed_for_small_machines(self, rt):
        assert AtomicObject(rt).mode == "compressed"

    def test_explicit_modes(self, rt):
        for mode in ("compressed", "dcas", "descriptor"):
            assert AtomicObject(rt, mode=mode).mode == mode

    def test_unknown_mode_rejected(self, rt):
        with pytest.raises(ValueError):
            AtomicObject(rt, mode="quantum")

    def test_global_alias(self):
        assert GlobalAtomicObject is AtomicObject

    @pytest.mark.parametrize("mode", ["compressed", "dcas", "descriptor"])
    def test_read_write_exchange_cas(self, rt, mode):
        obj = AtomicObject(rt, mode=mode)
        a, b = _addr(rt, 1), _addr(rt, 2)

        def main():
            assert obj.read() == NIL
            obj.write(a)
            assert obj.read() == a
            assert obj.exchange(b) == a
            assert obj.compare_and_swap(b, a)
            assert not obj.compare_and_swap(b, a)
            ok, seen = obj.compare_exchange(a, b)
            assert ok and seen == a

        rt.run(main)

    def test_rejects_non_address_values(self, rt):
        with pytest.raises(TypeError):
            AtomicObject(rt).write("not an address")  # type: ignore[arg-type]

    def test_compressed_mode_validates_representability(self, rt):
        obj = AtomicObject(rt, mode="compressed")
        bad = GlobalAddress(1 << 16, 0x1000)  # locale needs 17 bits
        from repro.errors import TooManyLocalesError

        with pytest.raises(TooManyLocalesError):
            obj.write(bad)

    def test_dcas_mode_accepts_any_locale_id(self, rt):
        obj = AtomicObject(rt, mode="dcas")
        big = GlobalAddress(1 << 20, 0x1000)
        obj.write(big)
        assert obj.peek() == big


class TestAtomicObjectABAOps:
    def test_read_aba_snapshot(self, rt):
        obj = AtomicObject(rt)
        a = _addr(rt)

        def main():
            snap = obj.read_aba()
            assert snap.value == NIL and snap.count == 0
            obj.write_aba(a)
            snap2 = obj.read_aba()
            assert snap2.value == a and snap2.count == 1

        rt.run(main)

    def test_cas_aba_requires_matching_counter(self, rt):
        obj = AtomicObject(rt)
        a, b = _addr(rt, 1), _addr(rt, 2)

        def main():
            stale = obj.read_aba()
            obj.write_aba(a)  # bumps the counter
            assert not obj.compare_and_swap_aba(stale, b)
            fresh = obj.read_aba()
            assert obj.compare_and_swap_aba(fresh, b)
            assert obj.read() == b

        rt.run(main)

    def test_aba_defeats_recycled_address(self, rt):
        """Same pointer bits, advanced counter: stale DCAS must fail."""
        obj = AtomicObject(rt)
        heap = rt.locale(0).heap
        a = heap.alloc("first")

        def main():
            obj.write_aba(a)
            stale = obj.read_aba()
            obj.exchange_aba(NIL)  # unlink
            heap.free(a.offset)
            again = heap.alloc("second")
            assert again == a  # LIFO recycling: identical bits
            obj.write_aba(again)
            assert not obj.compare_and_swap_aba(stale, NIL)

        rt.run(main)

    def test_exchange_aba_returns_snapshot_and_bumps(self, rt):
        obj = AtomicObject(rt)
        a = _addr(rt)

        def main():
            old = obj.exchange_aba(a)
            assert old.value == NIL and old.count == 0
            assert obj.read_aba().count == 1

        rt.run(main)

    def test_plain_cas_ignores_counter(self, rt):
        """Mixing normal and ABA variants is allowed (advanced users)."""
        obj = AtomicObject(rt)
        a = _addr(rt)

        def main():
            obj.write_aba(a)  # counter = 1
            assert obj.compare_and_swap(a, NIL)  # pointer-only CAS

        rt.run(main)

    def test_disabled_aba_raises(self, rt):
        obj = AtomicObject(rt, aba_protection=False)
        with pytest.raises(RuntimeStateError):
            obj.read_aba()
        with pytest.raises(RuntimeStateError):
            obj.write_aba(NIL)

    def test_chapel_spelling_aliases(self, rt):
        obj = AtomicObject(rt)
        a = _addr(rt)

        def main():
            snap = obj.readABA()
            assert obj.compareAndSwapABA(snap, a)
            assert obj.readABA().getObject() == a

        rt.run(main)


class TestAtomicObjectCosts:
    def test_compressed_remote_is_rdma_dcas_remote_is_am(self):
        rt = Runtime(num_locales=2, network="ugni")
        comp = AtomicObject(rt, locale=1, mode="compressed")
        dcas = AtomicObject(rt, locale=1, mode="dcas")

        def cost(fn):
            def main():
                with rt.timed() as t:
                    fn()
                return t.elapsed

            return rt.run(main)

        assert cost(dcas.read) > 3 * cost(comp.read)

    def test_aba_ops_cost_wide_even_in_compressed_mode(self):
        rt = Runtime(num_locales=2, network="ugni")
        obj = AtomicObject(rt, locale=1, mode="compressed")

        def cost(fn):
            def main():
                with rt.timed() as t:
                    fn()
                return t.elapsed

            return rt.run(main)

        assert cost(obj.read_aba) > 3 * cost(obj.read)


class TestDescriptorTable:
    def test_register_resolve_roundtrip(self, rt):
        table = DescriptorTable(rt, home=0)
        a = _addr(rt, 2)
        desc = table.register(a)
        assert desc != 0
        assert table.resolve(desc) == a

    def test_nil_is_descriptor_zero(self, rt):
        table = DescriptorTable(rt, home=0)
        assert table.register(NIL) == 0
        assert table.resolve(0) == NIL

    def test_unknown_descriptor_raises(self, rt):
        with pytest.raises(RuntimeStateError):
            DescriptorTable(rt, home=0).resolve(999)

    def test_resolution_cache_avoids_repeat_gets(self):
        rt = Runtime(num_locales=2, network="ugni")
        table = DescriptorTable(rt, home=1)
        a = rt.locale(1).heap.alloc("x")
        desc = table.register(a)

        def main():
            table.resolve(desc)  # miss: one GET
            rt.reset_measurements()
            table.resolve(desc)  # hit: free
            return rt.comm_totals()["get"]

        assert rt.run(main) == 0


    def test_descriptor_read_resolves_the_pointer_it_returns(self, rt, monkeypatch):
        """A descriptor-mode read captures the pointer and its descriptor
        in one critical section: with a writer racing it, every descriptor
        the read resolves maps to the address the read returns."""
        obj = AtomicObject(rt, locale=0, mode="descriptor")
        table = obj._descriptors
        addrs = [_addr(rt, 0, i) for i in range(4)]
        obj.write(addrs[0])
        resolved = []
        real_resolve = table.resolve

        def spy(desc):
            resolved.append(desc)
            return real_resolve(desc)

        monkeypatch.setattr(table, "resolve", spy)

        def writer():
            for i in range(20000):
                obj.write(addrs[i & 3])

        torn = reads = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=writer)
        try:
            thread.start()
            while thread.is_alive():
                addr = obj.read()
                reads += 1
                torn += table._table[resolved[-1]] != addr
        finally:
            thread.join()
            sys.setswitchinterval(interval)
        assert reads > 0
        assert torn == 0


class TestLocalAtomicObject:
    def test_basic_ops(self, rt):
        obj = LocalAtomicObject(rt, locale=1)
        a = _addr(rt, 1)

        def main():
            obj.write(a)
            assert obj.read() == a
            assert obj.exchange(NIL) == a
            assert obj.compare_and_swap(NIL, a)

        rt.run(main)

    def test_rejects_remote_objects(self, rt):
        obj = LocalAtomicObject(rt, locale=1)
        remote = _addr(rt, 2)
        with pytest.raises(LocaleError):
            obj.write(remote)

    def test_nil_is_always_acceptable(self, rt):
        obj = LocalAtomicObject(rt, locale=1)
        obj.write(NIL)
        assert obj.peek() == NIL

    def test_aba_variants(self, rt):
        obj = LocalAtomicObject(rt, locale=0)
        a = _addr(rt, 0)

        def main():
            snap = obj.read_aba()
            assert obj.compare_and_swap_aba(snap, a)
            assert not obj.compare_and_swap_aba(snap, NIL)  # counter moved

        rt.run(main)

    def test_opts_out_of_network_atomics(self):
        """LocalAtomicObject pays CPU prices even under ugni."""
        rt = Runtime(num_locales=1, network="ugni")
        local = LocalAtomicObject(rt, locale=0)
        netw = AtomicObject(rt, locale=0)

        def cost(fn):
            def main():
                with rt.timed() as t:
                    fn()
                return t.elapsed

            return rt.run(main)

        assert cost(netw.read) > 5 * cost(local.read)

    def test_disabled_aba_raises(self, rt):
        obj = LocalAtomicObject(rt, aba_protection=False)
        with pytest.raises(RuntimeStateError):
            obj.read_aba()
        with pytest.raises(RuntimeStateError, match="this LocalAtomicObject"):
            obj.write_aba(NIL)

    def test_narrow_cpu_route_at_2_16_locales(self):
        """Same-locale pointers need no compression: where AtomicObject
        falls back to DCAS, LocalAtomicObject keeps the narrow opted-out
        CPU route — same price and counters as on a one-locale machine."""

        def run(num_locales):
            rt = Runtime(num_locales=num_locales, network="ugni")
            try:
                obj = LocalAtomicObject(rt, locale=0)
                a = _addr(rt, 0)
                assert obj.mode == "local" and obj._plan is rt.network.cell_plan(0, True)

                def main():
                    with rt.timed() as t:
                        obj.write(a)
                        assert obj.exchange(a) == a
                        assert obj.compare_and_swap(a, NIL)
                        assert obj.read() == NIL
                    return t.elapsed

                return rt.run(main), rt.network.diags.totals(), AtomicObject(rt).mode
            finally:
                rt.close()

        huge, small = run(1 << 16), run(1)
        assert huge[2] == "dcas" and small[2] == "compressed"
        assert huge[:2] == small[:2]
        assert huge[1]["local_amo"] == 4 and huge[1]["am"] == 0
