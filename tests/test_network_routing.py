"""Tests for the network model's routing rules (the table in
:mod:`repro.comm.network`).

Every row of the routing table is pinned down by comparing virtual costs
and counter movements between configurations: local vs remote, ugni vs
none, narrow vs wide, opted-out vs network atomics.
"""

from __future__ import annotations

from repro.core import AtomicObject
from repro.runtime import Runtime


def _cost_of(rt: Runtime, fn) -> float:
    """Virtual seconds one call costs inside a fresh root task."""

    def main():
        with rt.timed() as t:
            fn()
        return t.elapsed

    return rt.run(main)


def _totals(rt: Runtime):
    return rt.comm_totals()


class TestAtomicRouting:
    def test_ugni_local_atomic_pays_nic_price(self):
        """Under ugni even locale-local atomics ride the (incoherent) NIC."""
        ugni = Runtime(num_locales=2, network="ugni")
        none = Runtime(num_locales=2, network="none")
        c_ugni = _cost_of(ugni, lambda: ugni.atomic_int(0, locale=0).read())
        c_none = _cost_of(none, lambda: none.atomic_int(0, locale=0).read())
        assert c_ugni > 5 * c_none  # the order-of-magnitude local penalty

    def test_remote_atomic_ugni_is_rdma_none_is_am(self):
        ugni = Runtime(num_locales=2, network="ugni")
        none = Runtime(num_locales=2, network="none")
        c_ugni = _cost_of(ugni, lambda: ugni.atomic_int(0, locale=1).read())
        c_none = _cost_of(none, lambda: none.atomic_int(0, locale=1).read())
        assert c_none > 3 * c_ugni  # AM round trip dwarfs an RDMA atomic

    def test_remote_atomic_counters(self):
        ugni = Runtime(num_locales=2, network="ugni")

        def main():
            ugni.atomic_int(0, locale=1).read()

        ugni.run(main)
        t = _totals(ugni)
        assert t["amo"] == 1 and t["am"] == 0

        none = Runtime(num_locales=2, network="none")

        def main2():
            none.atomic_int(0, locale=1).read()

        none.run(main2)
        t = _totals(none)
        assert t["am"] == 1 and t["amo"] == 0

    def test_local_atomic_counter_is_local_amo(self):
        for net in ("ugni", "none"):
            rt = Runtime(num_locales=2, network=net)

            def main():
                rt.atomic_int(0, locale=0).read()

            rt.run(main)
            t = _totals(rt)
            assert t["local_amo"] == 1
            assert t["amo"] == 0 and t["am"] == 0

    def test_wide_op_is_never_rdma(self):
        """A remote DCAS costs the AM price even under ugni."""
        ugni = Runtime(num_locales=2, network="ugni")
        wide = AtomicObject(ugni, locale=1, mode="dcas")
        c_wide = _cost_of(ugni, wide.read)
        c_narrow = _cost_of(ugni, lambda: ugni.atomic_int(0, locale=1).read())
        assert c_wide > 3 * c_narrow

        ugni.reset_measurements()
        ugni.run(AtomicObject(ugni, locale=1).read_aba)
        assert _totals(ugni)["am"] == 1  # remote execution, not RDMA

    def test_local_wide_op_is_cpu_dcas(self):
        ugni = Runtime(num_locales=2, network="ugni")
        c = _cost_of(ugni, AtomicObject(ugni, locale=0, mode="dcas").read)
        assert c < ugni.config.costs.nic_atomic_local_latency

    def test_opt_out_avoids_the_nic_locally(self):
        """Opted-out atomics are CPU-priced even under ugni."""
        from repro.atomics import AtomicUInt64

        ugni = Runtime(num_locales=2, network="ugni")
        cell = AtomicUInt64(ugni, 0, 0, opt_out=True)
        c = _cost_of(ugni, cell.read)
        assert c <= 2 * ugni.config.costs.cpu_atomic_latency

    def test_opt_out_remote_still_pays_am(self):
        from repro.atomics import AtomicUInt64

        ugni = Runtime(num_locales=2, network="ugni")
        cell = AtomicUInt64(ugni, 1, 0, opt_out=True)
        c = _cost_of(ugni, cell.read)
        assert c >= 2 * ugni.config.costs.am_latency


class TestDataRouting:
    def test_local_get_is_cheap(self):
        rt = Runtime(num_locales=2, network="ugni")
        addr = rt.locale(0).heap.alloc("x")

        def main():
            with rt.timed() as t:
                rt.deref(addr)
            return t.elapsed

        assert rt.run(main) < 10e-9

    def test_remote_get_counts_and_costs(self):
        rt = Runtime(num_locales=2, network="ugni")
        addr = rt.locale(1).heap.alloc("x")

        def main():
            with rt.timed() as t:
                rt.deref(addr)
            return t.elapsed

        elapsed = rt.run(main)
        assert elapsed >= rt.config.costs.rdma_small_latency
        assert _totals(rt)["get"] == 1

    def test_remote_put_counts(self):
        rt = Runtime(num_locales=2, network="ugni")

        def main():
            rt.network.write(rt._own_context(), 1, nbytes=64)

        rt.run(main)
        assert _totals(rt)["put"] == 1

    def test_bulk_scales_with_bytes(self):
        rt = Runtime(num_locales=2, network="ugni")

        def cost(nbytes):
            def main():
                ctx = rt._own_context()
                with rt.timed() as t:
                    rt.network.bulk(ctx, 1, nbytes)
                return t.elapsed

            return rt.run(main)

        small = cost(64)
        large = cost(1 << 20)
        assert large > small
        # Dominated by the byte cost at 1 MiB.
        assert large > (1 << 20) * rt.config.costs.rdma_byte_cost

    def test_bulk_free_beats_individual_frees(self):
        rt = Runtime(num_locales=2, network="ugni")
        addrs1 = [rt.locale(1).heap.alloc(i) for i in range(50)]
        addrs2 = [rt.locale(1).heap.alloc(i) for i in range(50)]

        def individual():
            with rt.timed() as t:
                for a in addrs1:
                    rt.free(a)
            return t.elapsed

        def bulk():
            with rt.timed() as t:
                rt.free_bulk(1, [a.offset for a in addrs2])
            return t.elapsed

        assert rt.run(bulk) < rt.run(individual) / 5


class TestRemoteExecutionRouting:
    def test_on_statement_charges_fork(self):
        rt = Runtime(num_locales=2, network="ugni")

        def main():
            with rt.on(1):
                assert rt.here() == 1
            assert rt.here() == 0

        rt.run(main)
        t = _totals(rt)
        assert t["fork"] == 1

    def test_on_same_locale_is_free(self):
        rt = Runtime(num_locales=2, network="ugni")

        def main():
            with rt.timed() as t:
                with rt.on(0):
                    pass
            return t.elapsed

        assert rt.run(main) == 0.0

    def test_remote_alloc_is_an_rpc(self):
        rt = Runtime(num_locales=2, network="ugni")

        def local_alloc():
            with rt.timed() as t:
                rt.new_obj("x", locale=0)
            return t.elapsed

        def remote_alloc():
            with rt.timed() as t:
                rt.new_obj("x", locale=1)
            return t.elapsed

        assert rt.run(remote_alloc) > 5 * rt.run(local_alloc)

    def test_reset_measurements_clears_counters_and_points(self):
        rt = Runtime(num_locales=2, network="ugni")

        def main():
            rt.atomic_int(0, locale=1).read()

        rt.run(main)
        assert _totals(rt)["amo"] == 1
        rt.reset_measurements()
        assert _totals(rt)["amo"] == 0
        assert all(p.next_free == 0.0 for p in rt.network.nic)
