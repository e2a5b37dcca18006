"""Unit tests for the primitive atomics: integers, bools, DCAS, refs."""

from __future__ import annotations

import pytest

from repro.runtime import Runtime


@pytest.fixture
def rt():
    return Runtime(num_locales=2, network="none")


class TestAtomicUInt64:
    def test_read_write(self, rt):
        a = rt.atomic_uint(7)
        assert a.read() == 7
        a.write(9)
        assert a.read() == 9

    def test_wraps_to_64_bits(self, rt):
        a = rt.atomic_uint((1 << 64) - 1)
        a.add(1)
        assert a.read() == 0

    def test_exchange_returns_old(self, rt):
        a = rt.atomic_uint(1)
        assert a.exchange(2) == 1
        assert a.read() == 2

    def test_cas_success_and_failure(self, rt):
        a = rt.atomic_uint(5)
        assert a.compare_and_swap(5, 6)
        assert not a.compare_and_swap(5, 7)
        assert a.read() == 6

    def test_compare_exchange_reports_observed(self, rt):
        a = rt.atomic_uint(5)
        ok, seen = a.compare_exchange(4, 9)
        assert not ok and seen == 5
        ok, seen = a.compare_exchange(5, 9)
        assert ok and seen == 5

    def test_fetch_add_sub(self, rt):
        a = rt.atomic_uint(10)
        assert a.fetch_add(3) == 10
        assert a.fetch_sub(5) == 13
        assert a.read() == 8

    def test_bitwise_ops(self, rt):
        a = rt.atomic_uint(0b1100)
        assert a.fetch_or(0b0011) == 0b1100
        assert a.read() == 0b1111
        assert a.fetch_and(0b1010) == 0b1111
        assert a.read() == 0b1010
        assert a.fetch_xor(0b1111) == 0b1010
        assert a.read() == 0b0101

    def test_peek_poke_do_not_charge(self, rt):
        a = rt.atomic_uint(0)
        a.poke(42)
        assert a.peek() == 42

    def test_concurrent_fetch_add_is_atomic(self, rt):
        a = rt.atomic_uint(0)
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

    def test_compare_exchange_signed_observed(self, rt):
        a = rt.atomic_int(-3)
        ok, seen = a.compare_exchange(0, 1)
        assert not ok and seen == -3

    @pytest.mark.parametrize(
        "op",
        [
            lambda a: a.read(),
            lambda a: a.exchange(1),
            lambda a: a.compare_exchange(0, 1)[1],
            lambda a: a.fetch_add(1),
            lambda a: a.fetch_sub(1),
            lambda a: a.fetch_or(0),
            lambda a: a.fetch_and(-1),
            lambda a: a.fetch_xor(0),
        ],
        ids=[
            "read",
            "exchange",
            "compare_exchange",
            "fetch_add",
            "fetch_sub",
            "fetch_or",
            "fetch_and",
            "fetch_xor",
        ],
    )
    def test_ops_return_previous_value_signed(self, rt, op):
        a = rt.atomic_int(-5)
        assert op(a) == -5


class TestAtomicBool:
    def test_test_and_set_returns_previous(self, rt):
        f = rt.atomic_bool(False)
        assert f.test_and_set() is False  # caller won
        assert f.test_and_set() is True  # already held
        f.clear()
        assert f.test_and_set() is False

    def test_read_write_exchange(self, rt):
        f = rt.atomic_bool(True)
        assert f.read() is True
        assert f.exchange(False) is True
        assert f.read() is False

    def test_cas(self, rt):
        f = rt.atomic_bool(False)
        assert f.compare_and_swap(False, True)
        assert not f.compare_and_swap(False, True)

    def test_only_one_thread_wins_test_and_set(self, rt):
        f = rt.atomic_bool(False)
        wins = []

        def worker(_):
            if not f.test_and_set():
                wins.append(1)

        rt.run(lambda: rt.forall(range(8), worker, tasks_per_locale=8))
        assert len(wins) == 1


class TestAtomicWide128:
    def test_read_write_pairs(self, rt):
        w = rt.atomic_wide((1, 2))
        assert w.read() == (1, 2)
        w.write((3, 4))
        assert w.read() == (3, 4)

    def test_halves_truncate_to_64_bits(self, rt):
        w = rt.atomic_wide((1 << 65, 1 << 64))
        assert w.read() == (0, 0)

    def test_exchange(self, rt):
        w = rt.atomic_wide((1, 1))
        assert w.exchange((2, 2)) == (1, 1)

    def test_dcas_checks_both_halves(self, rt):
        w = rt.atomic_wide((10, 0))
        assert not w.compare_and_swap((10, 1), (11, 2))  # counter mismatch
        assert not w.compare_and_swap((9, 0), (11, 2))  # value mismatch
        assert w.compare_and_swap((10, 0), (11, 1))
        assert w.read() == (11, 1)

    def test_compare_exchange_reports_pair(self, rt):
        w = rt.atomic_wide((1, 2))
        ok, seen = w.compare_exchange((0, 0), (5, 5))
        assert not ok and seen == (1, 2)

    def test_bump_exchange_lo_increments_counter(self, rt):
        w = rt.atomic_wide((5, 7))
        old = w.bump_exchange_lo(9)
        assert old == (5, 7)
        assert w.read() == (9, 8)


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

    def test_exchange_and_none(self, rt):
        from repro.atomics import AtomicRef

        r = AtomicRef(rt, 0, None)
        tok = object()
        assert r.exchange(tok) is None
        assert r.exchange(None) is tok


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
        w = rt.atomic_wide((0, 0))
        w.compare_and_swap((0, 0), (1, 1))

    def test_charging_happens_inside_tasks(self, rt):
        a = rt.atomic_int(0, locale=1)

        def main():
            with rt.timed() as t:
                a.read()
            return t.elapsed

        elapsed = rt.run(main)
        assert elapsed > 0.0
