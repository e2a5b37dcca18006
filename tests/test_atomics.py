"""Unit tests for the primitive atomics: integers, bools, refs."""

from __future__ import annotations

import pytest

from repro.atomics import AtomicBool, AtomicUInt64
from repro.core import ABA, AtomicObject
from repro.memory import NIL
from repro.runtime import Runtime


@pytest.fixture
def rt():
    return Runtime(num_locales=2, network="none")


class TestAtomicUInt64:
    def test_read_write(self, rt):
        a = AtomicUInt64(rt, 0, 7)
        assert a.read() == 7
        a.write(9)
        assert a.read() == 9

    def test_wraps_to_64_bits(self, rt):
        a = AtomicUInt64(rt, 0, (1 << 64) - 1)
        a.add(1)
        assert a.read() == 0

    def test_cas_success_and_failure(self, rt):
        a = AtomicUInt64(rt, 0, 5)
        assert a.compare_and_swap(5, 6)
        assert not a.compare_and_swap(5, 7)
        assert a.read() == 6

    def test_fetch_add_sub(self, rt):
        a = AtomicUInt64(rt, 0, 10)
        assert a.fetch_add(3) == 10
        a.sub(5)
        assert a.read() == 8

    def test_peek_poke_do_not_charge(self, rt):
        a = AtomicUInt64(rt, 0, 0)
        a.poke(42)
        assert a.peek() == 42

    def test_concurrent_fetch_add_is_atomic(self, rt):
        a = AtomicUInt64(rt, 0, 0)
        N, T = 500, 8

        def worker(_):
            for _ in range(N):
                a.fetch_add(1)

        # T scheduler tasks over both locales, every op charged.
        rt.run(lambda: rt.forall(range(T), worker, tasks_per_locale=T))
        assert a.peek() == N * T


class TestAtomicInt64:
    def test_signed_interpretation(self, rt):
        a = rt.atomic_int(-1)
        assert a.read() == -1

    def test_negative_arithmetic(self, rt):
        a = rt.atomic_int(0)
        a.sub(5)
        assert a.read() == -5
        assert a.fetch_add(3) == -5
        assert a.read() == -2

    def test_wrap_at_min_int(self, rt):
        a = rt.atomic_int(-(1 << 63))
        a.sub(1)
        assert a.read() == (1 << 63) - 1

    def test_exchange_signed(self, rt):
        a = rt.atomic_int(-7)
        assert a.exchange(7) == -7

    @pytest.mark.parametrize(
        "op",
        [
            lambda a: a.read(),
            lambda a: a.exchange(1),
            lambda a: a.fetch_add(1),
        ],
        ids=[
            "read",
            "exchange",
            "fetch_add",
        ],
    )
    def test_ops_return_previous_value_signed(self, rt, op):
        a = rt.atomic_int(-5)
        assert op(a) == -5


class TestAtomicBool:
    def test_test_and_set_returns_previous(self, rt):
        f = AtomicBool(rt, 0, False)
        assert f.test_and_set() is False  # caller won
        assert f.test_and_set() is True  # already held
        f.clear()
        assert f.test_and_set() is False

    def test_write_exchange(self, rt):
        f = AtomicBool(rt, 0, True)
        assert f.exchange(False) is True
        f.write(True)
        assert f.peek() is True

    def test_only_one_thread_wins_test_and_set(self, rt):
        f = AtomicBool(rt, 0, False)
        wins = []

        def worker(_):
            if not f.test_and_set():
                wins.append(1)

        rt.run(lambda: rt.forall(range(8), worker, tasks_per_locale=8))
        assert len(wins) == 1


class TestAtomicRef:
    def test_identity_cas(self, rt):
        from repro.atomics import AtomicRef

        x, y = object(), object()
        r = AtomicRef(rt, 0, x)
        assert r.compare_and_swap(x, y)
        assert not r.compare_and_swap(x, y)
        assert r.read() is y

    def test_equal_but_not_identical_fails(self, rt):
        """CAS is pointer semantics: equality is not identity."""
        from repro.atomics import AtomicRef

        a, b = [1], [1]
        r = AtomicRef(rt, 0, a)
        assert a == b
        assert not r.compare_and_swap(b, None)

class TestCellHomeValidation:
    """A cell's home is checked before its plan is memoised, so a bad home
    can neither raise a raw ``IndexError`` nor wrap around into (and
    poison) another locale's plan slot."""

    @staticmethod
    def _local_read_on_last_locale(rt):
        from repro.atomics import AtomicUInt64

        last = rt.num_locales - 1
        cell = AtomicUInt64(rt, last)

        def main():
            rt.reset_measurements()
            with rt.timed() as t:
                cell.read()
            return t.elapsed, rt.comm_totals()

        return rt.run(main, locale=last)

    @pytest.mark.parametrize("cls_name", ["AtomicUInt64", "AtomicRef", "AtomicBool"])
    @pytest.mark.parametrize("home", [-1, 4])
    def test_out_of_range_home_raises(self, cls_name, home):
        import repro.atomics
        from repro.errors import LocaleError

        rt = Runtime(num_locales=4, network="none")
        with pytest.raises(LocaleError, match="out of range"):
            getattr(repro.atomics, cls_name)(rt, home)

    def test_rejected_home_does_not_poison_last_locale(self):
        from repro.atomics import AtomicUInt64
        from repro.errors import LocaleError

        rt = Runtime(num_locales=4, network="none")
        with pytest.raises(LocaleError):
            AtomicUInt64(rt, -1)
        elapsed, comm = self._local_read_on_last_locale(rt)
        assert comm["local_amo"] == 1 and comm["am"] == 0
        clean, _ = self._local_read_on_last_locale(
            Runtime(num_locales=4, network="none")
        )
        assert elapsed == clean


class TestChargingOutsideTasks:
    def test_atomics_work_without_a_task_context(self, rt):
        """Pure-semantics use outside Runtime.run must not raise."""
        a = rt.atomic_int(1)
        assert a.read() == 1
        a.fetch_add(1)
        w = AtomicObject(rt, mode="dcas")
        assert w.compare_and_swap(NIL, NIL)

    def test_charging_happens_inside_tasks(self, rt):
        a = rt.atomic_int(0, locale=1)

        def main():
            with rt.timed() as t:
                a.read()
            return t.elapsed

        elapsed = rt.run(main)
        assert elapsed > 0.0


def _cells(rt, home):
    """One cell of each kind on ``home``, with values the ops below expect."""
    from repro.atomics import AtomicInt64, AtomicRef

    return {
        "uint": AtomicUInt64(rt, home, 5),
        "int": AtomicInt64(rt, home, -5),
        "bool": AtomicBool(rt, home),
        "ref": AtomicRef(rt, home),
        "uint-opted": AtomicUInt64(rt, home, 5, opt_out=True),
        "object": AtomicObject(rt, locale=home, mode="compressed"),
        "object-dcas": AtomicObject(rt, locale=home, mode="dcas"),
    }


#: (cell, op, route) for every operation the cells keep.  ``narrow`` is
#: the 64-bit network-atomic route, ``wide`` the 128-bit DCAS route and
#: ``opted`` the narrow route with network atomics opted out.
_OPS = [
    ("uint", lambda c: c.read(), "narrow"),
    ("uint", lambda c: c.write(1), "narrow"),
    ("uint", lambda c: c.compare_and_swap(5, 6), "narrow"),
    ("uint", lambda c: c.fetch_add(1), "narrow"),
    ("uint", lambda c: c.add(1), "narrow"),
    ("uint", lambda c: c.sub(1), "narrow"),
    ("int", lambda c: c.read(), "narrow"),
    ("int", lambda c: c.exchange(1), "narrow"),
    ("int", lambda c: c.fetch_add(1), "narrow"),
    ("int", lambda c: c.sub(1), "narrow"),
    ("bool", lambda c: c.write(True), "narrow"),
    ("bool", lambda c: c.exchange(True), "narrow"),
    ("bool", lambda c: c.test_and_set(), "narrow"),
    ("bool", lambda c: c.clear(), "narrow"),
    ("object", lambda c: c.read(), "narrow"),
    ("object", lambda c: c.write(NIL), "narrow"),
    ("object", lambda c: c.exchange(NIL), "narrow"),
    ("object", lambda c: c.compare_and_swap(NIL, NIL), "narrow"),
    ("object-dcas", lambda c: c.read(), "wide"),
    ("object-dcas", lambda c: c.write(NIL), "wide"),
    ("object-dcas", lambda c: c.exchange(NIL), "wide"),
    ("object-dcas", lambda c: c.compare_and_swap(NIL, NIL), "wide"),
    ("object", lambda c: c.read_aba(), "wide"),
    ("object", lambda c: c.write_aba(NIL), "wide"),
    ("object", lambda c: c.exchange_aba(NIL), "wide"),
    ("object", lambda c: c.compare_and_swap_aba(ABA(NIL, 0), NIL), "wide"),
    ("ref", lambda c: c.read(), "opted"),
    ("ref", lambda c: c.compare_and_swap(None, None), "opted"),
    ("uint-opted", lambda c: c.read(), "opted"),
    ("uint-opted", lambda c: c.compare_and_swap(5, 6), "opted"),
]
_OP_IDS = [
    "uint.read", "uint.write", "uint.compare_and_swap", "uint.fetch_add",
    "uint.add", "uint.sub",
    "int.read", "int.exchange", "int.fetch_add", "int.sub",
    "bool.write", "bool.exchange", "bool.test_and_set", "bool.clear",
    "object.read", "object.write", "object.exchange", "object.compare_and_swap",
    "dcas.read", "dcas.write", "dcas.exchange", "dcas.compare_and_swap",
    "object.read_aba", "object.write_aba", "object.exchange_aba",
    "object.compare_and_swap_aba",
    "ref.read", "ref.compare_and_swap",
    "uint_opted.read", "uint_opted.compare_and_swap",
]
#: The reference op of each route: every op on the route costs what it does.
_ROUTE_REFERENCE = {
    "narrow": ("uint", lambda c: c.read()),
    "wide": ("object-dcas", lambda c: c.read()),
    "opted": ("ref", lambda c: c.read()),
}
#: The one counter an op of each route bumps, on its home (0) and from
#: another locale (1), under ugni.
_ROUTE_COUNTER = {
    "narrow": {0: "local_amo", 1: "amo"},
    "wide": {0: "local_amo", 1: "am"},
    "opted": {0: "local_amo", 1: "am"},
}


class TestOneChargePerOp:
    """Every op the cells keep charges exactly one op of its route, at
    the route's price, wherever the cell lives."""

    @staticmethod
    def _measure(home, cell, op):
        rt = Runtime(num_locales=2, network="ugni")
        try:
            target = _cells(rt, home)[cell]

            def main():
                rt.reset_measurements()
                with rt.timed() as t:
                    op(target)
                return t.elapsed, {k: v for k, v in rt.comm_totals().items() if v}

            return rt.run(main)
        finally:
            rt.close()

    @pytest.mark.parametrize("home", [0, 1], ids=["local", "remote"])
    @pytest.mark.parametrize("cell,op,route", _OPS, ids=_OP_IDS)
    def test_op_charges_one_op_of_its_route(self, home, cell, op, route):
        elapsed, counted = self._measure(home, cell, op)
        assert counted == {_ROUTE_COUNTER[route][home]: 1}
        assert elapsed == self._measure(home, *_ROUTE_REFERENCE[route])[0]
        assert elapsed > 0.0

    @pytest.mark.parametrize("cell", ["uint", "int", "bool", "ref", "object"])
    def test_peek_charges_nothing(self, cell):
        elapsed, counted = self._measure(1, cell, lambda c: c.peek())
        assert counted == {} and elapsed == 0.0
