"""The simulated PGAS runtime: locales, tasks, global memory, timers.

:class:`Runtime` is the root object of the library.  It plays the role of
the Chapel runtime in the paper: it owns the locales (each with a simulated
heap), the network model (cost charging + diagnostics), and the tasking
constructs (``on`` / ``coforall`` / ``forall``).  Everything else — atomics,
``AtomicObject``, the epoch managers, the data structures — is built on the
operations exposed here.

A minimal session::

    from repro import Runtime

    rt = Runtime(num_locales=4, network="ugni")

    def main():
        counter = rt.atomic_int(locale=0)
        def body(i):
            counter.add(1)
        rt.forall(range(1000), body)
        assert counter.read() == 1000

    rt.run(main)

Design notes
------------
* ``run`` installs a root task context (locale 0, virtual time 0) — all
  PGAS operations must happen inside it.  The runtime's ``_ctx`` slot
  names its running task (``None`` outside one), and every operation on
  the runtime reads it, so a task of another runtime counts as no task
  context: its locale and time mean nothing here, so nothing is charged
  to them.
* A runtime and everything it owns are used by one thread
  (docs/ENGINE.md, "One thread per runtime"); nothing it owns takes a
  lock.
* The runtime reaches the structures built on it only through its
  privatized table and its heaps, and those structures hold the runtime.
  :meth:`close` (run by ``with Runtime(...)``) drops both, so a finished
  machine is acyclic and reference counting frees it (docs/ENGINE.md,
  "Closing a runtime").
* ``forall`` distributes items cyclically across locales by index (the
  analogue of iterating a ``Cyclic``-distributed array), spawning
  ``tasks_per_locale`` worker tasks per locale, and supports Chapel-style
  task-private values via ``task_init`` (the ``with (var tok = ...)``
  intent in the paper's Listing 5); a task-private value with a ``close()``
  method is closed when the task ends, mirroring the managed token's
  automatic unregister.
* Virtual time: see :mod:`repro.runtime.clock`.  ``timed()`` measures the
  current task's virtual elapsed time, which — because joins take the max
  over children — equals the latest finish among tasks in the region.
"""

from __future__ import annotations

import contextlib
import itertools
from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from ..atomics.integer import AtomicInt64
from ..comm.counters import CommDiagnostics, CommOp
from ..errors import LocaleError, NoTaskContextError, RuntimeStateError
from ..memory.address import GlobalAddress, is_nil
from ..memory.heap import Heap
from .config import NetworkType, RuntimeConfig
from .context import TaskContext
from .tasking import TaskGroup, WorkerPool, spawn_tree_overhead

T = TypeVar("T")

_FORK_INDEX = CommDiagnostics.op_index(CommOp.FORK)
#: A cached coforall price skips validation only for ids of exact type
#: ``int``: a bool or a float equal to a priced id is validated (and
#: refused) like a new one.
_INT_ONLY = frozenset((int,))

__all__ = ["Locale", "Runtime", "Timer"]


class Locale:
    """One simulated compute node: an id, a name, and a heap."""

    __slots__ = ("id", "name", "heap")

    def __init__(self, locale_id: int) -> None:
        self.id = locale_id
        self.name = f"locale{locale_id}"
        self.heap = Heap(locale_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Locale(id={self.id})"


class Timer:
    """Result holder for :meth:`Runtime.timed` regions."""

    __slots__ = ("elapsed", "start")

    def __init__(self) -> None:
        #: Virtual seconds elapsed in the region (filled at scope exit).
        self.elapsed = 0.0
        #: Virtual start time of the region.
        self.start = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timer(elapsed={self.elapsed:.9f})"


class Runtime:
    """A simulated PGAS machine (see module docstring for an overview)."""

    def __init__(
        self,
        num_locales: int = 4,
        network: "NetworkType | str" = NetworkType.UGNI,
        *,
        tasks_per_locale: int = 2,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        if config is None:
            config = RuntimeConfig(
                num_locales=num_locales,
                network=network,
                tasks_per_locale=tasks_per_locale,
            )
        # Imported here (not at module top) to break the package import
        # cycle runtime.runtime -> comm.network -> runtime.clock.
        from ..comm.network import NetworkModel

        #: Immutable machine description.
        self.config = config
        #: The running task of this runtime, or None outside one.  Written
        #: only by ``TaskContext.call``; read by every charge and check.
        self._ctx: Optional[TaskContext] = None
        #: The cost/diagnostics engine shared by every operation.
        self.network = NetworkModel(config)
        #: The virtual-time flight recorder (docs/OBSERVABILITY.md), or
        #: None when ``config.trace == "off"`` — the common case, in which
        #: no traced path pays more than one attribute check.
        self._tracer = None
        #: The recorder again iff the detail is ``full`` (per-op events).
        self._full_tracer = None
        if config.trace != "off":
            from ..obs import TraceRecorder

            tracer = TraceRecorder(self, config.trace)
            self._tracer = tracer
            if tracer.wants_full:
                self._full_tracer = tracer
                self.network.install_tracer(tracer)
        #: The simulated nodes.
        self.locales: List[Locale] = [
            Locale(i) for i in range(config.num_locales)
        ]
        self._task_ids = itertools.count(1)
        #: The privatized-object table; None once the runtime is closed.
        self._privatized: Optional[List[Any]] = []
        #: Spawned tasks not yet started, drained by joins (see tasking).
        self._run_queue = WorkerPool()
        #: ``coforall_locales`` prices by ``(source locale, locale ids)``:
        #: the spawn-tree overhead and the FORK count (the machine never
        #: changes, so neither does a price).
        self._coforall_prices: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------
    @property
    def num_locales(self) -> int:
        """Number of simulated locales."""
        return self.config.num_locales

    def locale(self, locale_id: int) -> Locale:
        """Return the :class:`Locale` with the given id (validated: an
        ``int``, not a ``bool``, in range)."""
        if type(locale_id) is not int and (
            isinstance(locale_id, bool) or not isinstance(locale_id, int)
        ):
            raise LocaleError(f"locale id must be an int, got {locale_id!r}")
        if not (0 <= locale_id < self.num_locales):
            raise LocaleError(
                f"locale {locale_id} out of range [0, {self.num_locales})"
            )
        return self.locales[locale_id]

    def here(self) -> int:
        """Chapel's ``here.id``: the current task's locale."""
        return self._own_context("here").locale_id

    def _next_task_id(self) -> int:
        return next(self._task_ids)

    def _own_context(self, what: str = "this operation") -> TaskContext:
        """This runtime's running task, or :class:`NoTaskContextError`.

        A task of another runtime never sits in ``_ctx``, so it is refused
        like no task at all: its locale and time mean nothing here.
        """
        ctx = self._ctx
        if ctx is None:
            raise NoTaskContextError(
                f"{what} requires a task context of this runtime; wrap your"
                " code in Runtime.run(...) or a forall/coforall body"
            )
        return ctx

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Let go of the simulated world; the runtime then refuses work.

        The structures built on a runtime hold it, and it reaches them
        only through the privatized table and the heaps' payloads, so
        dropping those two leaves a finished machine acyclic: reference
        counting frees it with its last handle, without the cyclic GC.
        ``config``, the network and its counters, the flight recorder's
        events and the engine log stay readable.  A second ``close()``
        does nothing.
        """
        if self._privatized is None:
            return
        self._privatized = None
        for loc in self.locales:
            loc.heap.drop_payloads()
        tracer = self._tracer
        if tracer is not None:
            # The recorder outlives the machine (its events are read after
            # the ``with`` block) but records no more tasks of it.
            tracer.detach()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # privatization registry (Chapel's privatized-object table)
    # ------------------------------------------------------------------
    def register_privatized(self, instances: Sequence[Any]) -> int:
        """Register one instance per locale; return the privatization id.

        The record-wrapped handle stores only this id, so resolving the
        local instance (:meth:`privatized_instance`) costs nothing — the
        zero-communication fast path the paper attributes its scalability
        to.
        """
        if self._privatized is None:
            raise RuntimeStateError("runtime is closed")
        if len(instances) != self.num_locales:
            raise LocaleError(
                f"need exactly {self.num_locales} privatized instances,"
                f" got {len(instances)}"
            )
        pid = len(self._privatized)
        self._privatized.append(list(instances))
        return pid

    def privatized_instance(self, pid: int, locale_id: Optional[int] = None) -> Any:
        """Resolve the privatized instance for ``locale_id`` (default: here).

        Deliberately charges no virtual time: the whole point of
        privatization + record-wrapping is that this lookup is a local
        table access.
        """
        if locale_id is None:
            ctx = self._ctx
            if ctx is None:
                ctx = self._own_context("privatized_instance")
            locale_id = ctx.locale_id
        return self._privatized[pid][locale_id]

    def drop_privatized(self, pid: int) -> None:
        """Release the per-locale instances for a destroyed object."""
        self._privatized[pid] = None

    # ------------------------------------------------------------------
    # atomics factories
    # ------------------------------------------------------------------
    def atomic_int(self, initial: int = 0, *, locale: int = 0, name: str = "") -> AtomicInt64:
        """Create a signed 64-bit atomic (Chapel ``atomic int``)."""
        self.locale(locale)
        return AtomicInt64(self, locale, initial, name)

    # ------------------------------------------------------------------
    # global memory operations
    # ------------------------------------------------------------------
    def new_obj(self, payload: Any, *, locale: Optional[int] = None) -> GlobalAddress:
        """Allocate ``payload`` on ``locale`` (default: here); return address.

        Remote allocation costs an RPC, as in any PGAS runtime — node-based
        structures therefore allocate locally and publish with an atomic.
        """
        ctx = self._ctx
        if locale is None:
            if ctx is None:
                raise NoTaskContextError(
                    "new_obj without an explicit locale requires a task"
                    " context of this runtime"
                )
            locale = ctx.locale_id
        heap = self.locale(locale).heap
        if ctx is not None:
            self.network.alloc(ctx, locale)
        return heap.alloc(payload)

    def new_objs(self, locales: Sequence[int]) -> List[GlobalAddress]:
        """Allocate one fresh ``object()`` on each entry of ``locales``, in
        order; return the addresses.

        Exactly ``[self.new_obj(object(), locale=l) for l in locales]``:
        the same addresses (recycled ones LIFO first), the same charges
        and, under a full tracer, the same events.  Every locale is
        validated before anything is charged or allocated; the charges
        run as one :meth:`NetworkModel.alloc_many
        <repro.comm.network.NetworkModel.alloc_many>` loop and each home's
        objects come from one :meth:`Heap.alloc_many
        <repro.memory.heap.Heap.alloc_many>` batch.
        """
        nloc = self.num_locales
        for home in locales:
            if type(home) is not int or not 0 <= home < nloc:
                self.locale(home)  # raises LocaleError unless a valid int subclass
        ctx = self._ctx
        if ctx is not None:
            self.network.alloc_many(ctx, locales)
        locs = self.locales
        batches = {
            home: iter(locs[home].heap.alloc_many(n))
            for home, n in Counter(locales).items()
        }
        return [next(batches[home]) for home in locales]

    def deref(self, addr: GlobalAddress) -> Any:
        """Load the object a wide pointer names (a GET when remote).

        The returned Python object is the *node itself* (one simulated
        cache-line fetch); subsequent field accesses on it are free, like
        reading a struct already copied to local memory.
        """
        if is_nil(addr):
            raise LocaleError("deref of nil GlobalAddress")
        heap = self.locale(addr.locale).heap
        ctx = self._ctx
        if ctx is not None:
            self.network.read(ctx, addr.locale, nbytes=64)
        return heap.load(addr.offset)

    def free(self, addr: GlobalAddress) -> None:
        """Free the allocation at ``addr`` (remote free = RPC)."""
        if is_nil(addr):
            raise LocaleError("free of nil GlobalAddress")
        heap = self.locale(addr.locale).heap
        ctx = self._ctx
        if ctx is not None:
            self.network.free(ctx, addr.locale)
        heap.free(addr.offset)

    def free_bulk(
        self, locale_id: int, offsets: Sequence[int], *, rpc: bool = True
    ) -> int:
        """Free many allocations on one locale as a single batch.

        This is what the scatter list feeds: one RPC + amortized per-object
        cost instead of one RPC per object.  ``rpc=False`` skips the
        round-trip charge (the amortized per-object frees are still paid):
        the aggregation layer (:mod:`repro.comm.aggregation`) uses it when
        the crossing was already charged as part of a coalesced batch.
        """
        heap = self.locale(locale_id).heap
        offs = list(offsets)
        ctx = self._ctx
        if ctx is not None:
            self.network.bulk_free(ctx, locale_id, len(offs), rpc=rpc)
        return heap.free_bulk(offs)

    # ------------------------------------------------------------------
    # execution constructs
    # ------------------------------------------------------------------
    def run(self, fn: Callable[..., T], *args: Any, locale: int = 0) -> T:
        """Execute ``fn(*args)`` as the root task (virtual time 0).

        The analogue of Chapel's ``main`` — every example, test and
        benchmark enters simulated execution through here.
        """
        if self._ctx is not None:
            raise RuntimeStateError("Runtime.run cannot be nested inside a task")
        if self._privatized is None:
            raise RuntimeStateError("runtime is closed")
        ctx = TaskContext(
            self, self.locale(locale).id, 0.0, self._next_task_id(), self.config.seed
        )
        return ctx.call(fn, *args)

    @contextlib.contextmanager
    def on(self, locale_id: int) -> Iterator[Locale]:
        """Chapel's ``on Locales[i]``: execute the body on another locale.

        Charges a remote fork on entry and the return message on exit; the
        body runs with ``here`` rebound.  No real thread migration happens
        (costs are what matter).
        """
        target = self.locale(locale_id)
        ctx = self._own_context("on")
        origin = ctx.locale_id
        self.network.remote_fork(ctx, target.id)
        ctx.locale_id = target.id
        try:
            yield target
        finally:
            self.network.remote_return(ctx, origin)
            ctx.locale_id = origin

    def coforall_locales(
        self,
        body: Callable[[int], None],
        *,
        locales: Optional[Sequence[int]] = None,
    ) -> None:
        """Run ``body(locale_id)`` as one task per locale; block until done.

        The parent's virtual time advances to the slowest child plus the
        join cost — the paper's global scans (Listing 4) are built from
        exactly this construct.
        """
        ctx = self._own_context("coforall_locales")
        src = ctx.locale_id
        ids = tuple(range(self.num_locales)) if locales is None else tuple(locales)
        key = (src, ids)
        price = self._coforall_prices.get(key)
        if price is None or not _INT_ONLY.issuperset(map(type, ids)):
            price = self._price_coforall(src, ids)
            self._coforall_prices[key] = price
        overhead, forks = price
        tr = self._tracer
        t0 = ctx.now if tr is not None else 0.0
        if forks:
            self.network.diags._rows[src][_FORK_INDEX] += forks
        start = ctx.now + overhead
        group = TaskGroup(self)
        for lid in ids:
            group.spawn(body, (lid,), locale_id=lid, start_time=start)
        ctx.resume(group.join(), self.config.costs.task_join)
        if tr is not None:
            tr.span("coforall", t0, ctx.now, tasks=len(ids))

    def _price_coforall(self, src: int, ids: Sequence[int]) -> tuple:
        """``(spawn-tree overhead, FORK count)`` of a ``coforall_locales``
        from ``src`` over ``ids``, after validating every id."""
        # Validate before pricing: the spawn tree indexes per-locale route
        # rows, where a negative id would silently alias.
        for lid in ids:
            self.locale(lid)
        net = self.network
        # Per-hop spawn cost reflects the worst distance class the
        # broadcast tree spans (flat: exactly task_spawn_remote).
        overhead = spawn_tree_overhead(len(ids), net.spawn_broadcast_cost(src, ids))
        # Coherent peers are spawned over shared memory — no message, so
        # (like every coherent-class charge) nothing is recorded in comm
        # diags.
        forks = sum(not net.is_coherent(src, lid) for lid in ids)
        return overhead, forks

    def _forall_tasks(
        self,
        items: Iterable[T],
        task_body: Callable[[Sequence[T]], None],
        tasks_per_locale: Optional[int] = None,
    ) -> None:
        """The task level of :meth:`forall`: one ``task_body(my_items)``
        per worker task.

        Splits ``items`` across locales cyclically by index, spawns ``min(tasks_per_locale, chunk length)``
        tasks per locale — task ``w`` of ``n`` gets ``chunk[w::n]``, a
        range when ``items`` is one — at ``now`` plus the spawn-tree
        overhead, joins them and emits the one ``forall`` span.  Tasks are spawned locale by locale, so their
        ids are consecutive in that order.  The compiled engine's phase
        replays (:mod:`repro.engine.executor`) are task bodies of this
        loop, so they share its split, task ids, seeds and join.
        """
        tpl = self.config.tasks_per_locale if tasks_per_locale is None else tasks_per_locale
        if not isinstance(tpl, int) or isinstance(tpl, bool) or tpl < 1:
            raise ValueError(
                f"tasks_per_locale must be an integer >= 1 or None, got {tpl!r}"
            )
        ctx = self._own_context("forall")
        # A range stays a range: slicing one is O(1), so the large
        # iteration spaces of the compiled phases are never materialized.
        data = items if isinstance(items, range) else list(items)
        nloc = self.num_locales
        tr = self._tracer
        t0 = ctx.now if tr is not None else 0.0

        # Cyclic distribution: locale l owns items l, l + nloc, ...
        per_locale = [data[lid::nloc] for lid in range(nloc)]

        total_tasks = sum(min(tpl, len(chunk)) for chunk in per_locale)
        if total_tasks == 0:
            return
        overhead = spawn_tree_overhead(
            total_tasks,
            self.network.spawn_broadcast_cost(
                ctx.locale_id,
                [lid for lid, chunk in enumerate(per_locale) if chunk],
            ),
        )
        group = TaskGroup(self)
        start = ctx.now + overhead
        for lid, chunk in enumerate(per_locale):
            if not chunk:
                continue
            ntasks = min(tpl, len(chunk))
            for w in range(ntasks):
                group.spawn(
                    task_body, (chunk[w::ntasks],), locale_id=lid, start_time=start
                )
        ctx.resume(group.join(), self.config.costs.task_join)
        if tr is not None:
            tr.span("forall", t0, ctx.now, tasks=total_tasks, items=len(data))

    def forall(
        self,
        items: Iterable[T],
        body: Callable[..., None],
        *,
        task_init: Optional[Callable[[], Any]] = None,
        tasks_per_locale: Optional[int] = None,
    ) -> None:
        """Parallel loop over ``items`` distributed cyclically by index:
        locale ``index % num_locales`` owns each item (a Cyclic
        distribution).

        Parameters
        ----------
        items:
            The iteration space (a ``range`` is sliced, anything else is
            materialized once).
        body:
            Called as ``body(item)`` — or ``body(item, tls)`` when
            ``task_init`` is given — on the locale that owns the item.
        task_init:
            Factory for a task-private value, created once per worker task
            *on that task's locale* (the ``with (var tok = em.register())``
            intent from the paper).  If the value has a ``close()`` method
            it is invoked when the task finishes (automatic unregister).
        tasks_per_locale:
            Worker tasks per locale, an integer >= 1; ``None`` (the
            default) takes the runtime config's.
        """

        def worker(my_items: Sequence[T]) -> None:
            tls = task_init() if task_init is not None else None
            try:
                if tls is None:
                    for item in my_items:
                        body(item)
                else:
                    for item in my_items:
                        body(item, tls)
            finally:
                close = getattr(tls, "close", None)
                if callable(close):
                    close()

        self._forall_tasks(items, worker, tasks_per_locale)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def timed(self) -> Iterator[Timer]:
        """Measure virtual elapsed time of the enclosed region.

        Because joins absorb the slowest child, the reading equals "when
        did the last task in the region finish" — the quantity the paper's
        wall-clock plots show.
        """
        ctx = self._own_context("timed")
        timer = Timer()
        timer.start = ctx.now
        yield timer
        timer.elapsed = ctx.now - timer.start
        tr = self._tracer
        if tr is not None:
            tr.span("timed", timer.start, ctx.now)

    def reset_measurements(self) -> None:
        """Zero network counters and service points (between bench trials).

        The network layer also resets the flight recorder's per-point
        idle-bank memory so post-reset ``dbank`` deltas restart from 0."""
        self.network.reset_measurements()

    def comm_totals(self) -> Dict[str, int]:
        """Shortcut to the network diagnostics totals."""
        return self.network.diags.totals()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Runtime(num_locales={self.num_locales},"
            f" network={self.config.network.value})"
        )
