"""One thread per runtime: the decision, pinned, and its cross-runtime edge.

A runtime and everything it owns are used by one thread (docs/ENGINE.md,
"One thread per runtime"), so the simulated state takes no host lock.
Only process-wide state that separate runtimes on separate threads may
share keeps ``threading``: the current task context and the compiled
engine's column cache.

The same rule fixes what a task of *another* runtime means to a runtime:
no task context.  Its locale id and clock belong to its own machine, so
an operation on this runtime must neither index this runtime's routes
with that locale nor charge that clock.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.comm.counters import CommDiagnostics
from repro.comm.routes import CellPlan
from repro.core import AtomicObject
from repro.core.epoch_manager import EpochManagerStats
from repro.errors import NoTaskContextError
from repro.runtime import Runtime
from repro.runtime.clock import ServicePoint
from repro.runtime.context import current_context

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
    def test_only_the_context_and_the_column_cache_import_threading(self):
        found = sorted(
            p.relative_to(_SRC).as_posix()
            for p in _SRC.rglob("*.py")
            if _imports_threading(p)
        )
        assert found == ["engine/cache.py", "runtime/context.py"]

    def test_no_lock_domain_and_one_serve_body(self):
        assert CellPlan._fields == ("dist", "narrow", "wide")
        assert "serve" not in vars(ServicePoint)
        assert "_lock" not in ServicePoint.__slots__

    def test_counters_are_one_matrix_and_one_row(self):
        diags = CommDiagnostics(3)
        assert len(diags._rows) == 3
        assert vars(diags).keys() == {"_enabled", "_rows"}
        assert EpochManagerStats.__slots__ == ("_row",)


def _machines():
    """An 8-locale runtime whose tasks call into a 2-locale one."""
    return Runtime(num_locales=8, network="ugni"), Runtime(num_locales=2, network="ugni")


def _zero(totals):
    return all(v == 0 for v in totals.values())


# Locale 5 does not exist on the 2-locale runtime (it used to raise a raw
# IndexError); locale 1 does, and used to charge the 2-locale runtime's
# route to the 8-locale runtime's task clock.
@pytest.mark.parametrize("locale", [1, 5])
class TestForeignTaskContext:
    def test_global_memory_ops_charge_nothing(self, locale):
        a, b = _machines()
        addr = b.new_obj("x", locale=0)

        def main():
            task = current_context()
            before = task.now
            assert b.deref(addr) == "x"
            b.put(addr, "y")
            assert b.deref(addr) == "y"
            fresh = b.new_obj("z", locale=0)
            b.free(fresh)
            batch = [b.new_obj(i, locale=0) for i in range(3)]
            assert b.free_bulk(0, [p.offset for p in batch]) == 3
            return task.now - before

        assert a.run(main, locale=locale) == 0.0
        assert _zero(b.comm_totals())
        assert _zero(a.comm_totals())
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

        def main():
            task = current_context()
            before = task.now
            obj.write(addr)
            assert obj.read() == addr
            return task.now - before

        assert a.run(main, locale=locale) == 0.0
        assert _zero(b.comm_totals())

    def test_on_refuses_a_foreign_task(self, locale):
        a, b = _machines()

        def main():
            with pytest.raises(NoTaskContextError, match="this runtime"):
                with b.on(1):
                    pass
            return current_context().locale_id

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


def test_own_tasks_still_charge():
    _, b = _machines()
    obj = AtomicObject(b, locale=0, mode="descriptor")
    addr = b.new_obj("x", locale=0)

    def main():
        b.deref(addr)
        obj.write(addr)
        obj.read()
        return current_context().now

    assert b.run(main, locale=1) > 0.0
    totals = b.comm_totals()
    assert (totals["get"], totals["put"], totals["amo"]) == (2, 1, 2)
