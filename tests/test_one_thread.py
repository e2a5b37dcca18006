"""One thread per runtime: the decision, pinned, and its cross-runtime edge.

A runtime and everything it owns are used by one thread (docs/ENGINE.md,
"One thread per runtime"), so the simulated state takes no host lock.
Only process-wide state that separate runtimes on separate threads may
share keeps ``threading``: the compiled engine's column cache.

The same rule makes "which task is running" runtime state: a runtime's
``_ctx`` slot names its running task, and every charge and check reads
it.  So a task of *another* runtime is no task context.  Its locale id
and clock belong to its own machine, so an operation on this runtime
must neither index this runtime's routes with that locale nor charge
that clock, and it fails exactly as it would outside any task.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
import repro.runtime.context as context_module
from repro.baselines import LockedStack, SpinLock
from repro.comm.counters import CommDiagnostics
from repro.comm.routes import CellPlan
from repro.core import AtomicObject
from repro.core.epoch_manager import EpochManagerStats
from repro.errors import NoTaskContextError
from repro.reclaim import RECLAIMER_SCHEMES, make_reclaimer
from repro.runtime import Runtime
from repro.runtime.clock import ServicePoint
from repro.structures import RCUArray

_SRC = pathlib.Path(repro.__file__).parent


def _imports_threading(path: pathlib.Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "threading" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "threading":
                return True
    return False


class TestOneThreadPerRuntime:
    def test_only_the_column_cache_imports_threading(self):
        found = sorted(
            p.relative_to(_SRC).as_posix()
            for p in _SRC.rglob("*.py")
            if _imports_threading(p)
        )
        assert found == ["engine/cache.py"]

    def test_the_running_task_has_no_thread_local(self):
        """The runtime's ``_ctx`` slot is the only record of the running
        task: the context module keeps no thread-local and no helper that
        reads one."""
        for name in ("_tls", "current_context", "maybe_context", "context_of"):
            assert not hasattr(context_module, name)
            assert not hasattr(repro.runtime, name)
        assert context_module.__all__ == ["TaskContext"]

    def test_no_lock_domain_and_one_serve_body(self):
        assert CellPlan._fields == ("dist", "narrow", "wide")
        assert "serve" not in vars(ServicePoint)
        assert "_lock" not in ServicePoint.__slots__

    def test_counters_are_one_matrix_and_one_row(self):
        diags = CommDiagnostics(3)
        assert len(diags._rows) == 3
        assert vars(diags).keys() == {"_rows"}
        assert EpochManagerStats.__slots__ == ("_row",)


def _machines():
    """An 8-locale runtime whose tasks call into a 2-locale one."""
    return Runtime(num_locales=8, network="ugni"), Runtime(num_locales=2, network="ugni")


def _zero(totals):
    return all(v == 0 for v in totals.values())


def _charges_nothing(a, b, locale, body):
    """Run ``body`` from a task of ``a`` on ``locale``; neither the task's
    clock nor either runtime's comm totals may move."""

    def main():
        task = a._own_context()
        before = task.now
        body()
        return task.now - before

    assert a.run(main, locale=locale) == 0.0
    assert _zero(a.comm_totals())
    assert _zero(b.comm_totals())


# Locale 5 does not exist on the 2-locale runtime (it used to raise a raw
# IndexError); locale 1 does, and used to charge the 2-locale runtime's
# route to the 8-locale runtime's task clock.
@pytest.mark.parametrize("locale", [1, 5])
class TestForeignTaskContext:
    def test_global_memory_ops_charge_nothing(self, locale):
        a, b = _machines()
        addr = b.new_obj("x", locale=0)

        def body():
            assert b.deref(addr) == "x"
            b.put(addr, "y")
            assert b.deref(addr) == "y"
            fresh = b.new_obj("z", locale=0)
            b.free(fresh)
            batch = [b.new_obj(i, locale=0) for i in range(3)]
            assert b.free_bulk(0, [p.offset for p in batch]) == 3

        _charges_nothing(a, b, locale, body)
        assert b.locales[0].heap.live_count == 1

    def test_new_obj_needs_a_locale_from_a_foreign_task(self, locale):
        a, b = _machines()

        def main():
            with pytest.raises(NoTaskContextError, match="this runtime"):
                b.new_obj("x")

        a.run(main, locale=locale)

    def test_descriptor_table_charges_nothing(self, locale):
        a, b = _machines()
        obj = AtomicObject(b, locale=0, mode="descriptor")
        addr = b.new_obj("x", locale=1)

        def body():
            obj.write(addr)
            assert obj.read() == addr

        _charges_nothing(a, b, locale, body)

    def test_on_refuses_a_foreign_task(self, locale):
        a, b = _machines()

        def main():
            with pytest.raises(NoTaskContextError, match="this runtime"):
                with b.on(1):
                    pass
            return a._own_context().locale_id

        assert a.run(main, locale=locale) == locale
        assert _zero(b.comm_totals())

    def test_coforall_locales_refuses_a_foreign_task(self, locale):
        a, b = _machines()
        ran = []

        def main():
            with pytest.raises(NoTaskContextError, match="this runtime"):
                b.coforall_locales(ran.append)

        a.run(main, locale=locale)
        assert ran == []
        assert _zero(b.comm_totals())

    def test_forall_refuses_a_foreign_task(self, locale):
        a, b = _machines()
        ran = []

        def main():
            with pytest.raises(NoTaskContextError, match="this runtime"):
                b.forall(range(4), ran.append)

        a.run(main, locale=locale)
        assert ran == []
        assert _zero(b.comm_totals())

    # The locked baselines and RCUArray charge their own runtime's running
    # task only: from a foreign task they keep their semantics and charge
    # nothing to anyone.
    def test_locked_stack_push_charges_nothing(self, locale):
        a, b = _machines()
        stack = LockedStack(b)
        _charges_nothing(a, b, locale, lambda: stack.push(7))
        assert b.run(stack.pop) == 7

    def test_spinlock_acquire_release_charges_nothing(self, locale):
        a, b = _machines()
        lock = SpinLock(b, locale=0)

        def body():
            lock.acquire()
            lock.release()

        _charges_nothing(a, b, locale, body)
        assert lock.acquisitions == 1
        assert lock.cs_point.served == 0

    def test_rcu_array_write_charges_nothing(self, locale):
        a, b = _machines()
        arr = RCUArray(b, 4, block_size=2, fill=0)
        _charges_nothing(a, b, locale, lambda: arr.write(3, 9))
        assert b.run(arr.read, 3) == 9


def test_own_tasks_still_charge():
    _, b = _machines()
    obj = AtomicObject(b, locale=0, mode="descriptor")
    addr = b.new_obj("x", locale=0)

    def main():
        b.deref(addr)
        obj.write(addr)
        obj.read()
        return b._own_context().now

    assert b.run(main, locale=1) > 0.0
    totals = b.comm_totals()
    assert (totals["get"], totals["put"], totals["amo"]) == (2, 1, 2)


def _outside_any_task(op):
    """The exception ``op`` raises with no task running at all."""
    with pytest.raises(Exception) as exc:
        op()
    return type(exc.value), str(exc.value)


def _fails_like_no_task(a, b, locale, op):
    """Run ``op`` from a task of ``a`` on ``locale``; it must raise what
    it raises outside any task, and move neither clock nor comm totals."""
    expected = _outside_any_task(op)
    assert expected[0] is NoTaskContextError
    a.reset_measurements()
    b.reset_measurements()

    def main():
        task = a._own_context()
        before = task.now
        with pytest.raises(Exception) as exc:
            op()
        return (type(exc.value), str(exc.value)), task.now - before

    raised, moved = a.run(main, locale=locale)
    assert raised == expected
    assert moved == 0.0
    assert _zero(a.comm_totals())
    assert _zero(b.comm_totals())


def _pinned_guard(b, rec):
    """A guard of ``rec`` registered and pinned by ``b``'s own task on
    locale 1, left pinned."""

    def main():
        guard = rec.register()
        guard.pin()
        return guard

    return b.run(main, locale=1)


_RECLAIMER_OPS = ("register", "try_reclaim", "pin", "unpin", "defer_delete")


@pytest.mark.parametrize("locale", [1, 5])
@pytest.mark.parametrize("scheme", RECLAIMER_SCHEMES)
@pytest.mark.parametrize("op_name", _RECLAIMER_OPS)
def test_reclaimer_entry_points_refuse_a_foreign_task(locale, scheme, op_name):
    a, b = _machines()
    rec = make_reclaimer(b, scheme)
    guard = _pinned_guard(b, rec)
    addr = b.new_obj("x", locale=0)
    op = {
        "register": rec.register,
        "try_reclaim": rec.try_reclaim,
        "pin": guard.pin,
        "unpin": guard.unpin,
        "defer_delete": lambda: guard.defer_delete(addr),
    }[op_name]
    _fails_like_no_task(a, b, locale, op)
    assert guard.is_pinned
    assert b.is_live(addr)


class TestRuntimeTaskSlot:
    """``Runtime._ctx`` names the running task of that runtime and is
    ``None`` outside one; ``TaskContext.call`` is its only writer."""

    def test_empty_after_run_returns_and_after_it_raises(self):
        rt = Runtime(num_locales=2)
        assert rt._ctx is None
        assert rt.run(lambda: rt._ctx is rt._own_context())
        assert rt._ctx is None

        def boom():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            rt.run(boom)
        assert rt._ctx is None

    def test_names_the_running_task_in_every_body(self):
        rt = Runtime(num_locales=3, tasks_per_locale=2)
        seen = []

        def check(where, lid):
            ctx = rt._ctx
            assert ctx is rt._own_context()
            assert ctx.locale_id == lid
            seen.append(where)

        def per_locale(lid):
            check("coforall", lid)
            # A nested join: the forall's tasks run inside this task.
            rt.forall(range(4), lambda i: check("nested", i % 3))
            check("after-join", lid)

        def main():
            root = rt._ctx
            rt.forall(range(6), lambda i: check("forall", i % 3))
            rt.coforall_locales(per_locale)
            assert rt._ctx is root

        rt.run(main)
        assert seen.count("forall") == 6
        assert seen.count("coforall") == seen.count("after-join") == 3
        assert seen.count("nested") == 12

    def test_restored_when_a_task_body_raises(self):
        rt = Runtime(num_locales=2)

        def bad(i):
            raise ValueError(i)

        def main():
            root = rt._ctx
            with pytest.raises(ValueError):
                rt.forall(range(4), bad)
            assert rt._ctx is root
            assert rt._own_context() is root

        rt.run(main)
        assert rt._ctx is None

    def test_runtimes_used_in_turn_never_see_each_others_task(self):
        a, b = _machines()

        def in_a():
            assert b._ctx is None
            return a._ctx

        def in_b():
            assert a._ctx is None
            return b._ctx

        for _ in range(2):
            assert a.run(in_a).runtime is a
            assert b.run(in_b).runtime is b
        assert a._ctx is None and b._ctx is None
