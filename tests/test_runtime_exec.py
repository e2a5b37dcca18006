"""Tests for the execution constructs: run/on/forall/coforall/timed."""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    LocaleError,
    NoTaskContextError,
    RuntimeStateError,
)
from repro.memory import GlobalAddress
from repro.runtime import Runtime, snapshot


class TestRun:
    def test_run_installs_context(self, rt):
        def main():
            ctx = rt._own_context()
            assert ctx.locale_id == 0
            assert ctx.now == 0.0
            return "done"

        assert rt.run(main) == "done"

    def test_run_on_other_locale(self, rt):
        assert rt.run(lambda: rt.here(), locale=2) == 2

    def test_run_cannot_nest(self, rt):
        def main():
            rt.run(lambda: None)

        with pytest.raises(RuntimeStateError):
            rt.run(main)

    def test_another_runtimes_run_may_nest_in_a_task(self, rt):
        """The nesting check reads this runtime's own slot: a task of
        another runtime may run a whole job on this one."""
        other = Runtime(num_locales=2)

        def main():
            inner = rt.run(lambda: rt._own_context().task_id)
            return inner, other._own_context().task_id

        assert other.run(main) == (1, 1)
        assert rt._ctx is None and other._ctx is None

    def test_context_cleared_after_run(self, rt):
        rt.run(lambda: None)
        assert rt._ctx is None

    def test_operations_outside_tasks_raise_where_required(self, rt):
        with pytest.raises(NoTaskContextError):
            rt.new_obj("x")  # no explicit locale and no task context

    def test_here_outside_task_raises(self, rt):
        with pytest.raises(NoTaskContextError):
            rt.here()


class TestOn:
    def test_on_rebinds_here_and_restores(self, rt):
        def main():
            assert rt.here() == 0
            with rt.on(3):
                assert rt.here() == 3
                with rt.on(1):
                    assert rt.here() == 1
                assert rt.here() == 3
            assert rt.here() == 0

        rt.run(main)

    def test_on_restores_after_exception(self, rt):
        def main():
            try:
                with rt.on(2):
                    raise ValueError("boom")
            except ValueError:
                pass
            assert rt.here() == 0

        rt.run(main)

    def test_on_validates_locale(self, rt):
        def main():
            with rt.on(99):
                pass

        with pytest.raises(LocaleError):
            rt.run(main)


class TestForall:
    def test_all_items_processed_exactly_once(self, rt):
        seen = []
        lock = threading.Lock()

        def body(i):
            with lock:
                seen.append(i)

        rt.run(lambda: rt.forall(range(100), body))
        assert sorted(seen) == list(range(100))

    def test_items_run_on_their_cyclic_owner(self, rt):
        owners = {}
        lock = threading.Lock()

        def body(i):
            with lock:
                owners[i] = rt.here()

        rt.run(lambda: rt.forall(range(16), body))
        for i, loc in owners.items():
            assert loc == i % rt.num_locales

    def test_task_init_runs_once_per_task_on_task_locale(self, rt):
        created = []
        lock = threading.Lock()

        class Tls:
            def __init__(self):
                with lock:
                    created.append(rt.here())

        rt.run(
            lambda: rt.forall(range(32), lambda i, tls: None, task_init=Tls,
                              tasks_per_locale=2)
        )
        # 4 locales x 2 tasks = 8 task-private values, 2 per locale.
        assert len(created) == 8
        for lid in range(rt.num_locales):
            assert created.count(lid) == 2

    def test_task_init_close_called(self, rt):
        closed = []
        lock = threading.Lock()

        class Tls:
            def close(self):
                with lock:
                    closed.append(1)

        rt.run(lambda: rt.forall(range(8), lambda i, t: None, task_init=Tls,
                                 tasks_per_locale=1))
        assert len(closed) == rt.num_locales

    def test_task_init_close_called_even_on_error(self, rt):
        closed = []

        class Tls:
            def close(self):
                closed.append(1)

        def body(i, tls):
            raise RuntimeError("body failure")

        with pytest.raises(RuntimeError, match="body failure"):
            rt.run(lambda: rt.forall([1], body, task_init=Tls))
        assert closed == [1]

    def test_empty_iterable_is_a_noop(self, rt):
        rt.run(lambda: rt.forall([], lambda i: None))

    def test_exceptions_propagate(self, rt):
        def body(i):
            if i == 7:
                raise ValueError("seven")

        with pytest.raises(ValueError, match="seven"):
            rt.run(lambda: rt.forall(range(16), body))

    def test_forall_advances_parent_clock(self, rt):
        def main():
            before = rt._own_context().now
            rt.forall(range(8), lambda i: rt.atomic_int(0, locale=rt.here()).read())
            return rt._own_context().now - before

        assert rt.run(main) > 0.0

    def test_negative_tasks_per_locale_rejected(self, rt):
        seen = []
        with pytest.raises(ValueError, match="tasks_per_locale"):
            rt.run(lambda: rt.forall(range(8), seen.append, tasks_per_locale=-1))
        assert seen == []

    def test_zero_tasks_per_locale_rejected_not_defaulted(self, rt):
        seen = []
        with pytest.raises(ValueError, match="tasks_per_locale"):
            rt.run(lambda: rt.forall(range(8), seen.append, tasks_per_locale=0))
        assert seen == []

    @pytest.mark.parametrize("bad", [1.5, "2", True])
    def test_non_integer_tasks_per_locale_rejected(self, rt, bad):
        with pytest.raises(ValueError, match="tasks_per_locale"):
            rt.run(lambda: rt.forall(range(8), lambda i: None, tasks_per_locale=bad))

    def test_none_tasks_per_locale_takes_config_default(self, rt):
        tasks = set()

        def body(i):
            tasks.add(rt._own_context().task_id)

        rt.run(lambda: rt.forall(range(64), body, tasks_per_locale=None))
        assert len(tasks) == rt.num_locales * rt.config.tasks_per_locale


class TestCoforallLocales:
    def test_one_task_per_locale(self, rt):
        hits = []
        lock = threading.Lock()

        def body(lid):
            assert rt.here() == lid
            with lock:
                hits.append(lid)

        rt.run(lambda: rt.coforall_locales(body))
        assert sorted(hits) == list(range(rt.num_locales))

    def test_subset_of_locales(self, rt):
        hits = []
        lock = threading.Lock()

        def body(lid):
            with lock:
                hits.append(lid)

        rt.run(lambda: rt.coforall_locales(body, locales=[1, 3]))
        assert sorted(hits) == [1, 3]

    @pytest.mark.parametrize("bad", [99, -1])
    def test_invalid_locale_rejected_before_any_spawn(self, rt, bad):
        hits = []

        def main():
            before = rt._own_context().now
            with pytest.raises(LocaleError):
                rt.coforall_locales(hits.append, locales=[1, bad])
            return rt._own_context().now - before

        assert rt.run(main) == 0.0
        assert hits == []
        assert rt.comm_totals()["fork"] == 0

    def test_a_priced_coforall_charges_alike_and_still_validates(self, rt):
        """A repeat of a ``(source, ids)`` pair reuses its price: the
        same spawn overhead and FORK count.  An equal bool or float id is
        still refused."""

        def main():
            ctx = rt._own_context()
            spans = []
            for _ in range(2):
                before = ctx.now
                rt.coforall_locales(lambda lid: None, locales=[1, 3])
                spans.append(ctx.now - before)
            for bad in (True, 1.0):
                with pytest.raises(LocaleError):
                    rt.coforall_locales(lambda lid: None, locales=[bad, 3])
            return spans

        first, second = rt.run(main)
        assert first == second > 0.0
        assert rt.comm_totals()["fork"] == 4

    def test_parent_clock_absorbs_slowest_child(self, rt):
        def main():
            def body(lid):
                # Unequal work: locale 3 does extra atomic ops.
                n = 100 if lid == 3 else 1
                c = rt.atomic_int(0, locale=lid)
                for _ in range(n):
                    c.read()

            before = rt._own_context().now
            rt.coforall_locales(body)
            return rt._own_context().now - before

        elapsed = rt.run(main)
        # Must cover at least locale 3's 100 NIC-local atomics.
        assert elapsed >= 100 * rt.config.costs.nic_atomic_local_latency

    def test_exception_propagates(self, rt):
        def body(lid):
            if lid == 2:
                raise KeyError("locale two")

        with pytest.raises(KeyError):
            rt.run(lambda: rt.coforall_locales(body))


class TestTimedAndDiagnostics:
    def test_timed_measures_virtual_not_wall(self, rt):
        import time

        def main():
            with rt.timed() as t:
                time.sleep(0.01)  # real time must not count
            return t.elapsed

        assert rt.run(main) == 0.0

    def test_timed_nests(self, rt):
        def main():
            a = rt.atomic_int(0, locale=1)
            with rt.timed() as outer:
                a.read()
                with rt.timed() as inner:
                    a.read()
            return outer.elapsed, inner.elapsed

        outer, inner = rt.run(main)
        assert outer > inner > 0

    def test_snapshot_shape(self, rt):
        def main():
            rt.atomic_int(0, locale=1).read()

        rt.run(main)
        s = snapshot(rt)
        assert len(s.nic_busy) == rt.num_locales
        assert len(s.heap_stats) == rt.num_locales
        assert s.comm_totals["amo"] == 1


class TestGlobalMemoryLocaleValidation:
    """A bad locale raises ``LocaleError`` before any network charge."""

    CALLS = {
        "deref": lambda rt, lid: rt.deref(GlobalAddress(lid, 0x1000)),
        "free": lambda rt, lid: rt.free(GlobalAddress(lid, 0x1000)),
        "free_bulk": lambda rt, lid: rt.free_bulk(lid, [0x1000, 0x1010]),
    }

    @pytest.mark.parametrize("locale_id", [-1, 4])
    @pytest.mark.parametrize("method", sorted(CALLS))
    def test_bad_locale_raises_without_charging(self, rt, method, locale_id):
        call = self.CALLS[method]

        def main():
            with pytest.raises(LocaleError, match="out of range"):
                call(rt, locale_id)
            return rt._own_context().now

        assert rt.run(main) == 0.0
        assert sum(rt.comm_totals().values()) == 0


class TestNonIntegerLocaleIds:
    """A bool or non-``int`` locale id raises ``LocaleError`` naming it."""

    CALLS = {
        "locale": lambda rt, lid: rt.locale(lid),
        "atomic_int": lambda rt, lid: rt.atomic_int(locale=lid),
        "coforall_locales": lambda rt, lid: rt.run(
            lambda: rt.coforall_locales(lambda i: None, locales=[lid])
        ),
        "run": lambda rt, lid: rt.run(lambda: None, locale=lid),
    }

    @pytest.mark.parametrize("locale_id", [1.0, 2.5, True])
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_rejected(self, rt, entry, locale_id):
        with pytest.raises(LocaleError, match=f"got {locale_id!r}$"):
            self.CALLS[entry](rt, locale_id)
        assert sum(rt.comm_totals().values()) == 0


class TestPrivatizationRegistry:
    def test_register_and_resolve(self, rt):
        insts = [f"inst{i}" for i in range(rt.num_locales)]
        pid = rt.register_privatized(insts)

        def main():
            with rt.on(2):
                assert rt.privatized_instance(pid) == "inst2"
            return rt.privatized_instance(pid)

        assert rt.run(main) == "inst0"

    def test_register_requires_one_instance_per_locale(self, rt):
        with pytest.raises(LocaleError):
            rt.register_privatized(["only-one"])

    def test_resolution_is_communication_free(self, rt):
        pid = rt.register_privatized(list(range(rt.num_locales)))

        def main():
            rt.reset_measurements()
            with rt.timed() as t:
                for _ in range(100):
                    rt.privatized_instance(pid)
            return t.elapsed

        assert rt.run(main) == 0.0
        assert not any(rt.comm_totals().values())

    def test_drop_privatized(self, rt):
        pid = rt.register_privatized(list(range(rt.num_locales)))
        rt.drop_privatized(pid)

        def main():
            with pytest.raises(TypeError):
                rt.privatized_instance(pid)

        rt.run(main)
