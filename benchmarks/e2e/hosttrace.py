"""Host-time attribution by layer, measured from outside the simulator.

:func:`install` wraps the public entry points of each simulator layer
(module functions and class methods, listed in :data:`LAYERS`) with a
timing wrapper, and rebinds every ``repro.*`` module attribute that
aliases a wrapped function, so ``from ..engine import run_alloc_phase``
style imports are covered too.  It must run before any ``Runtime`` is
built: cells and routes capture bound methods at construction.

Each real thread keeps its own span stack.  A layer's *self time* is the
thread CPU time of its spans minus the part covered by nested wrapped
calls, so the self times of all layers partition the CPU time of every
thread.  Wall time a thread spends parked in ``WorkerPool.wait`` (a join
waiting for another thread's tasks) is reported as wait time, and task
bodies handed to ``TaskGroup.spawn`` / ``Runtime.run`` are attributed to
``bench.workloads`` so serial-tier tasks do not inflate the tasking layer.

Per-op layers only keep counters; coarse spans (jobs, engine phases,
forall/coforall, try_reclaim) are also kept in memory and written as a
Chrome trace by :meth:`HostTracer.write_chrome_trace`.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Where a layer's entry points live: (module, class or None, names).
#: A class entry also covers subclasses that override the named methods.
Entry = Tuple[str, Optional[str], Tuple[str, ...]]

_CELL_OPS = (
    "read", "write", "exchange", "compare_and_swap", "compare_exchange",
    "fetch_add", "add", "fetch_sub", "sub", "fetch_or", "fetch_and",
    "fetch_xor", "test_and_set", "clear", "bump_exchange_lo",
)
_GUARD_OPS = (
    "pin", "unpin", "protect", "clear_protection", "defer_delete",
    "quiesce", "try_reclaim", "unregister",
)
_RECLAIMER_OPS = ("register", "phase_boundary", "try_reclaim", "clear", "destroy")


@dataclass(frozen=True)
class Layer:
    name: str
    entries: Tuple[Entry, ...]
    #: Entry-point names whose calls are also kept as Chrome-trace spans.
    spans: Tuple[str, ...] = ()


LAYERS: Tuple[Layer, ...] = (
    Layer("engine.executor", (("repro.engine.executor", None, (
        "run_alloc_phase", "run_uniform_atomic_phase", "run_ebr_epoch_phase",
        "run_guard_epoch_phase", "run_epoch_workload_phase")),),
        spans=("run_alloc_phase", "run_uniform_atomic_phase",
               "run_ebr_epoch_phase", "run_guard_epoch_phase",
               "run_epoch_workload_phase")),
    Layer("engine.opstream", (("repro.engine.opstream", None, ("mix_column", "zipf_column")),)),
    Layer("memory.heap", (("repro.memory.heap", "Heap", ("alloc", "free", "free_bulk")),)),
    Layer("comm.aggregation", (("repro.comm.aggregation", "UplinkAggregator", (
        "policy_tick", "read_cells", "write_cells", "bulk_gather", "free_grouped")),)),
    Layer("structures", (
        ("repro.structures.treiber_stack", "LockFreeStack", ("push", "pop", "try_pop", "drain")),
        ("repro.structures.msqueue", "LockFreeQueue", ("enqueue", "dequeue", "try_dequeue", "drain")),
        ("repro.structures.interlocked_hash_table", "InterlockedHashTable", (
            "get", "contains", "put", "remove", "update", "resize")),
        ("repro.structures.harris_list", "LockFreeOrderedList", ("insert", "remove", "contains", "get")),
        ("repro.structures.rcu_array", "RCUArray", ("read", "write", "resize", "append")),
    )),
    Layer("atomics", (
        ("repro.atomics.cell", "AtomicCell", _CELL_OPS),
        ("repro.core.atomic_object", "AtomicObject", (
            "read", "write", "exchange", "compare_and_swap", "compare_exchange",
            "read_aba", "write_aba", "exchange_aba", "compare_and_swap_aba")),
    )),
    Layer("comm.network", (("repro.comm.network", "NetworkModel", (
        "charge_atomic", "atomic_op", "read", "write", "bulk", "remote_fork",
        "remote_return", "am_roundtrip", "alloc", "free", "bulk_free")),)),
    Layer("runtime.clock", (("repro.runtime.clock", "ServicePoint", ("serve_locked",)),)),
    Layer("runtime.tasking", (
        ("repro.runtime.runtime", "Runtime", ("forall", "coforall_locales")),
        ("repro.runtime.tasking", "TaskGroup", ("spawn", "join")),
    ), spans=("forall", "coforall_locales")),
    Layer("core.epoch_manager", (("repro.core.epoch_manager", "EpochManager", (
        "register", "try_reclaim", "clear")),), spans=("try_reclaim",)),
    Layer("core.token", (("repro.core.token", "Token", ("pin", "unpin", "defer_delete")),)),
    Layer("reclaim", (
        ("repro.reclaim.protocol", "GuardBase", _GUARD_OPS),
        ("repro.reclaim.protocol", "ReclaimerBase", _RECLAIMER_OPS),
        ("repro.reclaim.ebr", "EBRReclaimer", _RECLAIMER_OPS),
    ), spans=("try_reclaim",)),
    Layer("runtime.runtime", (("repro.runtime.runtime", "Runtime", ("__init__",)),)),
    Layer("bench.scenarios", (("repro.bench.scenarios", None, ("run_scenario",)),),
          spans=("run_scenario",)),
    # Workload generator bodies: the root task's main and every spawned
    # task body.  Filled by the Runtime.run / TaskGroup.spawn wrappers.
    Layer("bench.workloads", ()),
)
LAYER_NAMES = tuple(layer.name for layer in LAYERS)
_BODY_SLOT = LAYER_NAMES.index("bench.workloads")
_CAS_OPS = frozenset({"compare_and_swap", "compare_and_swap_aba", "compare_exchange"})


class _ThreadState:
    __slots__ = ("tid", "stack", "calls", "self_s", "wait_s", "cas")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: List[List[float]] = []
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.wait_s = 0.0
        self.cas = [0, 0]  # attempts, successes


class HostTracer:
    """Per-layer call counts and self time, plus coarse spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        #: (name, thread index, start, duration) of coarse spans.
        self.spans: List[Tuple[str, int, float, float]] = []
        self.epoch = time.perf_counter()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
            return state

    def reset(self) -> None:
        """Drop everything recorded so far (after a warm-up pass)."""
        with self._lock:
            for state in self._threads:
                state.calls = [0] * len(LAYERS)
                state.self_s = [0.0] * len(LAYERS)
                state.wait_s = 0.0
                state.cas = [0, 0]
        self.spans = []
        self.epoch = time.perf_counter()

    # -- wrappers -----------------------------------------------------------
    # Self time is per-thread CPU time, not wall time: with two runnable
    # threads the GIL hands the CPU back and forth every few milliseconds,
    # and a wall-clock span would also count the other thread's slices.
    def wrap(self, fn: Callable, slot: int, label: Optional[str], cas: bool) -> Callable:
        """A timing wrapper charging ``fn``'s self time to layer ``slot``."""
        state_of = self._state
        cpu = time.thread_time
        wall = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            if label is not None:
                w0 = wall()
            t0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = cpu() - t0
                stack.pop()
                state.calls[slot] += 1
                state.self_s[slot] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if label is not None:
                    self.spans.append((label, state.tid, w0, wall() - w0))
            if cas:
                state.cas[0] += 1
                ok = result[0] if isinstance(result, tuple) else result
                state.cas[1] += bool(ok)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def wrap_wait(self, fn: Callable) -> Callable:
        """A wrapper adding ``fn``'s wall time to the thread's wait time."""
        state_of = self._state
        wall = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = wall()
            try:
                return fn(*args, **kwargs)
            finally:
                state_of().wait_s += wall() - t0

        return wrapper

    # -- results ------------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """``<layer>.calls`` / ``<layer>.self_s`` plus wait and CAS counts."""
        with self._lock:
            threads = list(self._threads)
        out: Dict[str, float] = {}
        for i, name in enumerate(LAYER_NAMES):
            out[f"{name}.calls"] = sum(t.calls[i] for t in threads)
            out[f"{name}.self_s"] = sum(t.self_s[i] for t in threads)
        out["runtime.tasking.wait_s"] = sum(t.wait_s for t in threads)
        out["cas_attempts"] = sum(t.cas[0] for t in threads)
        out["cas_successes"] = sum(t.cas[1] for t in threads)
        return out

    def write_chrome_trace(self, path: str, meta: Dict[str, Any]) -> int:
        """Write the coarse spans as Chrome-trace JSON; return the span count."""
        events = [
            {
                "name": name,
                "cat": "host",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round((t0 - self.epoch) * 1e6, 3),
                "dur": round(dur * 1e6, 3),
            }
            for name, tid, t0, dur in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "otherData": meta}, fh)
        return len(events)


def _patch_class(cls: type, names: Sequence[str], make: Callable[[str, Callable], Callable]) -> int:
    """Wrap ``names`` wherever ``cls`` or a subclass defines them."""
    patched = 0
    todo, seen = [cls], set()
    while todo:
        klass = todo.pop()
        if klass in seen:
            continue
        seen.add(klass)
        todo.extend(klass.__subclasses__())
        for name in names:
            fn = klass.__dict__.get(name)
            if callable(fn) and not isinstance(fn, (staticmethod, classmethod, type)):
                setattr(klass, name, make(name, fn))
                patched += 1
    return patched


def install(tracer: HostTracer) -> None:
    """Wrap every layer's entry points, reporting to ``tracer``.

    Raises ``LookupError`` if a listed entry point does not exist, so a
    renamed function fails the traced run instead of reading as zero.
    """
    import repro
    from repro.runtime.runtime import Runtime
    from repro.runtime.tasking import TaskGroup, WorkerPool

    # Every module that could alias a wrapped function must be loaded now,
    # so the rebinding pass below sees it.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)

    replaced: Dict[int, Callable] = {}  # id(original) -> wrapper
    for slot, layer in enumerate(LAYERS):
        for module_name, class_name, names in layer.entries:
            module = importlib.import_module(module_name)

            def make(name: str, fn: Callable, slot: int = slot, layer: Layer = layer) -> Callable:
                label = f"{layer.name}:{name}" if name in layer.spans else None
                wrapper = tracer.wrap(fn, slot, label, name in _CAS_OPS)
                replaced[id(fn)] = wrapper
                return wrapper

            if class_name is None:
                for name in names:
                    fn = getattr(module, name, None)
                    if fn is None:
                        raise LookupError(f"{module_name}.{name} not found")
                    setattr(module, name, make(name, fn))
            else:
                cls = getattr(module, class_name, None)
                if cls is None:
                    raise LookupError(f"{module_name}.{class_name} not found")
                if _patch_class(cls, names, make) == 0:
                    raise LookupError(f"{module_name}.{class_name}: no methods {names}")

    # Task bodies and waiting.  These wrap the (already wrapped) spawn /
    # run entry points so the body runs under its own span.
    spawn, run, wait = TaskGroup.spawn, Runtime.run, WorkerPool.wait

    def spawn_body(self: Any, fn: Callable, args: Tuple[Any, ...], **kw: Any) -> None:
        return spawn(self, tracer.wrap(fn, _BODY_SLOT, None, False), args, **kw)

    def run_body(self: Any, fn: Callable, *args: Any, **kw: Any) -> Any:
        return run(self, tracer.wrap(fn, _BODY_SLOT, None, False), *args, **kw)

    TaskGroup.spawn = spawn_body
    Runtime.run = run_body
    WorkerPool.wait = tracer.wrap_wait(wait)

    # Rebind module-level aliases (``from ..engine import run_alloc_phase``).
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(module, attr, wrapper)
