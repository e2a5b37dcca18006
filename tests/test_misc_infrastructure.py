"""Coverage for the supporting infrastructure: errors, context, tasking,
diagnostics, privatization helpers, and the huge-machine fallback."""

from __future__ import annotations

import random
import threading

import pytest

import repro
from repro.errors import (
    CompressionError,
    DoubleFreeError,
    EmptyStructureError,
    EpochManagerError,
    HeapExhaustedError,
    InvalidAddressError,
    LocaleError,
    MemoryError_,
    NoTaskContextError,
    ReproError,
    RuntimeStateError,
    StructureError,
    TokenStateError,
    TooManyLocalesError,
    UseAfterFreeError,
)
from repro.runtime import Runtime
from repro.runtime.context import TaskContext
from repro.runtime.tasking import TaskGroup, spawn_tree_overhead


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for exc in (
            RuntimeStateError,
            NoTaskContextError,
            LocaleError,
            MemoryError_,
            InvalidAddressError,
            UseAfterFreeError,
            DoubleFreeError,
            HeapExhaustedError,
            CompressionError,
            TooManyLocalesError,
            TokenStateError,
            EpochManagerError,
            StructureError,
            EmptyStructureError,
        ):
            assert issubclass(exc, ReproError)

    def test_memory_errors_group(self):
        assert issubclass(UseAfterFreeError, MemoryError_)
        assert issubclass(DoubleFreeError, MemoryError_)
        assert issubclass(InvalidAddressError, MemoryError_)

    def test_too_many_locales_is_a_compression_error(self):
        assert issubclass(TooManyLocalesError, CompressionError)

    def test_no_task_context_is_a_runtime_state_error(self):
        assert issubclass(NoTaskContextError, RuntimeStateError)

    def test_public_reexports(self):
        assert repro.UseAfterFreeError is UseAfterFreeError
        assert repro.ReproError is ReproError


class TestTaskContext:
    def test_call_installs_and_restores(self, rt):
        assert rt._ctx is None
        ctx = TaskContext(rt, 1, 0.0, 99)
        assert ctx.call(rt._own_context) is ctx
        assert rt._ctx is None

    def test_calls_nest(self, rt):
        c1 = TaskContext(rt, 0, 0.0, 1)
        c2 = TaskContext(rt, 1, 0.0, 2)

        def outer():
            assert c2.call(rt._own_context) is c2
            return rt._own_context()

        assert c1.call(outer) is c1

    def test_call_restores_after_exception(self, rt):
        c1 = TaskContext(rt, 0, 0.0, 1)
        c2 = TaskContext(rt, 1, 0.0, 2)

        def boom():
            raise ValueError

        def outer():
            with pytest.raises(ValueError):
                c2.call(boom)
            return rt._own_context()

        assert c1.call(outer) is c1
        with pytest.raises(ValueError):
            c1.call(boom)
        assert rt._ctx is None

    def test_own_context_raises_outside(self, rt):
        with pytest.raises(NoTaskContextError):
            rt._own_context()

    def test_spawned_task_is_the_queued_object(self, rt):
        """The body's current context is the very object ``spawn`` queued:
        it carries the body, its arguments and its group."""
        group = TaskGroup(rt)
        seen = []

        def body(tag):
            seen.append((tag, rt._own_context()))

        group.spawn(body, ("a",), locale_id=2, start_time=1.5)
        (queued,) = rt._run_queue
        assert type(queued) is TaskContext
        assert (queued.fn, queued.args, queued.group) == (body, ("a",), group)
        assert (queued.locale_id, queued.now) == (2, 1.5)
        group.join()
        assert seen == [("a", queued)]
        assert not rt._run_queue


class TestTaskGroup:
    def test_spawn_tree_overhead_is_logarithmic(self):
        assert spawn_tree_overhead(0, 1.0) == 0.0
        assert spawn_tree_overhead(1, 1.0) == 1.0
        assert spawn_tree_overhead(7, 1.0) == 3.0
        assert spawn_tree_overhead(8, 1.0) == 4.0

    def test_join_returns_latest_finish(self, rt):
        """What ``join`` returns is the finished task objects' ``now``."""
        group = TaskGroup(rt)
        tasks = []

        def work(dt):
            ctx = rt._own_context()
            ctx.now += dt
            tasks.append(ctx)

        group.spawn(work, (5.0,), locale_id=0, start_time=1.0)
        group.spawn(work, (0.0,), locale_id=1, start_time=2.0)
        assert group.join() == max(t.now for t in tasks) == 6.0

    def test_double_join_rejected(self, rt):
        group = TaskGroup(rt)
        group.spawn(lambda: None, (), locale_id=0, start_time=0.0)
        group.join()
        with pytest.raises(RuntimeStateError):
            group.join()

    def test_spawn_after_join_rejected(self, rt):
        group = TaskGroup(rt)
        group.join()
        with pytest.raises(RuntimeStateError):
            group.spawn(lambda: None, (), locale_id=0, start_time=0.0)

    def test_child_exception_surfaces_at_join(self, rt):
        group = TaskGroup(rt)

        def boom():
            raise KeyError("child")

        group.spawn(boom, (), locale_id=0, start_time=0.0)
        with pytest.raises(KeyError):
            group.join()

    def test_task_rngs_differ_between_tasks(self, rt):
        draws = []
        lock = threading.Lock()

        def work():
            with lock:
                draws.append(rt._own_context().rng.random())

        group = TaskGroup(rt)
        for _ in range(4):
            group.spawn(work, (), locale_id=0, start_time=0.0)
        group.join()
        assert len(set(draws)) == 4


class TestLazyTaskRng:
    """A task's RNG is seeded at spawn and built on its first draw."""

    def test_spawned_task_draws_from_its_derived_seed(self, rt):
        got = []

        def work():
            ctx = rt._own_context()
            got.append((ctx.task_id, [ctx.rng.random() for _ in range(3)]))

        group = TaskGroup(rt)
        group.spawn(work, (), locale_id=1, start_time=0.0)
        group.join()
        ((task_id, draws),) = got
        ref = random.Random((rt.config.seed << 20) ^ task_id)
        assert draws == [ref.random() for _ in range(3)]

    def test_root_context_draws_from_config_seed(self, rt):
        draws = rt.run(lambda: [rt._own_context().rng.random() for _ in range(3)])
        ref = random.Random(rt.config.seed)
        assert draws == [ref.random() for _ in range(3)]

    def test_coforall_without_draws_builds_no_rng(self, rt):
        seen = []
        lock = threading.Lock()

        def body(lid):
            with lock:
                seen.append(rt._own_context())

        rt.run(lambda: rt.coforall_locales(body))
        assert len(seen) == rt.num_locales
        assert all(ctx._rng is None for ctx in seen)
        assert all(
            ctx.seed == (rt.config.seed << 20) ^ ctx.task_id for ctx in seen
        )


class TestDiagnosticsSnapshot:
    def test_imbalance_detects_hot_locale(self):
        rt = Runtime(num_locales=4, network="none")

        def main():
            # Flood locale 0's progress thread with remote atomics.
            hot = rt.atomic_int(0, locale=0)
            with rt.on(2):
                for _ in range(50):
                    hot.read()

        rt.run(main)
        from repro.runtime import snapshot

        snap = snapshot(rt)
        assert snap.hottest_progress_locale == 0
        assert snap.imbalance() > 1.5

    def test_total_live_objects(self, rt):
        def main():
            rt.new_obj("a", locale=1)
            rt.new_obj("b", locale=2)

        rt.run(main)
        from repro.runtime import snapshot

        assert snapshot(rt).total_live_objects == 2


class TestCommDiagnosticsControl:
    def test_iter_nonzero(self):
        rt = Runtime(num_locales=2, network="ugni")

        def main():
            rt.atomic_int(0, locale=1).read()

        rt.run(main)
        entries = list(rt.network.diags.iter_nonzero())
        assert (0, "amo", 1) in entries

    def test_per_locale_attribution(self):
        rt = Runtime(num_locales=3, network="ugni")
        cell = rt.atomic_int(0, locale=0)

        def main():
            with rt.on(2):
                cell.read()  # initiated by locale 2

        rt.run(main)
        per = rt.network.diags.per_locale()
        assert per[2]["amo"] == 1
        assert per[0]["amo"] == 0


class TestHugeMachineFallback:
    def test_auto_mode_switches_to_dcas_at_2_16_locales(self):
        """The paper's threshold: >= 2**16 locales preclude compression."""
        rt = Runtime(num_locales=1 << 16, network="ugni")
        from repro.core import AtomicObject

        obj = AtomicObject(rt)
        assert obj.mode == "dcas"
        # And compressed mode refuses outright.
        with pytest.raises(LocaleError):
            AtomicObject(rt, mode="compressed")

    def test_descriptor_mode_keeps_64_bit_words_at_any_scale(self):
        rt = Runtime(num_locales=1 << 16, network="ugni")
        from repro.core import AtomicObject

        obj = AtomicObject(rt, mode="descriptor")
        a = rt.locale(65535).heap.alloc("far away")
        obj.write(a)
        assert obj.peek() == a


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
