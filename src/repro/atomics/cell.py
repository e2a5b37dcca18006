"""Base machinery shared by all simulated atomic variables.

An atomic cell lives on a *home locale* and owns a per-cell
:class:`~repro.runtime.clock.ServicePoint` modelling its cache line / NIC
address pipeline — the resource that serializes concurrent operations on a
*hot* atomic even when the rest of the machine is idle.

Real-thread atomicity is provided by the cell lock (see below); virtual
time and communication counters are charged along routes precompiled by
the runtime's :class:`~repro.comm.network.NetworkModel`, which applies the
paper's routing rules (CPU vs NIC vs active message) based on the
*distance class* between the calling task's locale and the cell's home
(see :mod:`repro.comm.topology`) and whether the runtime has network
atomics.  The shared plan carries its home's distance row — a tuple
mapping source locale to class index — so resolving the route on the hot
path is one tuple index, for any topology.

Lock domains (the engine's one-lock-cycle-per-op design)
--------------------------------------------------------
Every charged operation must (a) reserve virtual time on its service
points and (b) mutate the value atomically with respect to real threads.
Doing those under separate locks costs two or three lock cycles per
operation — the dominant wall-clock cost of the old engine — so every
simulated atomic runs the whole sequence under ONE lock.  That covers the
integer cells (:class:`~repro.atomics.integer.AtomicUInt64`,
``AtomicInt64``, ``AtomicBool``), :class:`~repro.atomics.ref.AtomicRef`,
:class:`~repro.atomics.wide.AtomicWide128`, and the pointer cell
:class:`~repro.core.atomic_object.AtomicObject` (whose
:class:`~repro.core.local_atomic_object.LocalAtomicObject` subclass
inherits every operation and only selects the opted-out plan): all
derive from :class:`ChargedWord`, which adopts the lock of the memoised
:class:`~repro.comm.routes.CellPlan` for its ``(home, opt_out)``
(``NetworkModel.cell_plan``):

* When every reachable narrow route of the home rides the *same*
  home-level point (the flat ``ugni`` case: local and remote narrow
  atomics both pass the home NIC pipeline), that point's lock is the cell
  lock: point reservation, line reservation, and value commit all happen
  in one critical section (``ServicePoint.serve_locked``).
* Otherwise (``none`` network, an opted-out cell, or a multi-level
  topology whose classes route through different points) the **line's
  lock** is the cell lock; any home-level service point on a route keeps
  its own lock and is served nested inside.

Wide (DCAS) routes always keep their point's own lock, nested inside the
cell lock, so the lock order is always cell lock -> point lock and never
the reverse.  Plan compilation checks the one way that could still go
wrong: a self-locking serve of the very point whose lock the cell holds
would deadlock on the non-reentrant lock, so ``cell_plan`` raises
``RuntimeStateError`` instead of compiling such a plan.

The line's own lock is therefore bypassed on hot paths whenever the cell
lock is the NIC's; ``reset``/``utilization`` still take it, which is safe
because measurement control runs at quiescent points only.

:meth:`ChargedWord._enter` is the one charge body, called by every op of
every cell: it takes the cell lock and, inside a task of the owning
runtime, charges first; the caller commits and releases.  Operations
charge costs only when a task context is installed; this lets unit tests
exercise pure semantics without standing up a runtime task.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..runtime.clock import ServicePoint
from ..runtime.context import _tls as _context_tls

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["ChargedWord", "AtomicCell"]


class ChargedWord:
    """Home, line, lock and charge plan shared by every simulated atomic."""

    __slots__ = ("_rt", "home", "name", "opt_out", "line", "_lock", "_plan", "_hot")

    def __init__(
        self,
        runtime: "Runtime",
        home: int,
        name: str,
        line_name: str,
        opt_out: bool,
    ) -> None:
        #: Owning runtime (supplies the network model).
        self._rt = runtime
        #: Locale the cell's memory lives on.
        self.home = home
        self.name = name
        #: When True, the cell "opts out" of network atomics (priced as a
        #: CPU atomic even under `ugni`) — the paper's optimization for
        #: variables only ever touched by tasks on their home locale.
        self.opt_out = opt_out
        #: Per-cell serial resource (hot-line contention).
        line = self.line = ServicePoint(line_name)
        # Full-detail tracing (docs/OBSERVABILITY.md): the line emits its
        # own serve events, covering every charged op without a hook in
        # _enter.
        line._tracer = getattr(runtime, "_full_tracer", None)
        network = runtime.network
        plan = self._plan = network.cell_plan(home, opt_out)
        dist, lock_point, narrow, _wide = plan
        lock = self._lock = line._lock if lock_point is None else lock_point._lock
        #: Hot-path bundle: one attribute load + UNPACK_SEQUENCE hands
        #: ``_enter`` everything it needs (runtime for the identity check, the
        #: distance row, narrow steps, diagnostics, and prebound
        #: lock/serve callables).
        self._hot = (
            runtime,
            dist,
            narrow,
            network.diags,
            lock.acquire,
            lock.release,
            line.serve_locked,
        )

    def _enter(self, wide: bool) -> None:
        """Take the cell lock, charging one atomic op first when called
        from a task of the owning runtime.

        The caller commits its value change and then releases
        ``self._lock``.  The route (latency class, service points,
        diagnostic index, lock domain) was precompiled into the shared
        plan; only the caller's locality is decided here.  Every op of
        every cell charges through this one body.
        """
        rt, dist, narrow, diags, acquire, release, line_serve_locked = self._hot
        try:
            ctx = _context_tls.ctx
        except AttributeError:  # thread never entered a task scope
            ctx = None
        if ctx is None or ctx.runtime is not rt:
            acquire()
            return
        locale = ctx.locale_id
        diag_index, latency, outer, point_service, line_service = (
            self._plan[3] if wide else narrow  # _plan[3] is plan.wide
        )[dist[locale]]
        if diags._enabled:
            rows = ctx.diag_rows
            if rows is None:
                rows = ctx.diag_rows = diags._rows()
            rows[locale][diag_index] += 1
        clock = ctx.clock
        t = clock.now + latency
        acquire()
        try:
            if outer is not None:
                t = outer(t, point_service)
            clock.now = line_serve_locked(t, line_service)
        except BaseException:
            release()
            raise

    def reset_measurements(self) -> None:
        """Zero the cell's contention bookkeeping (between bench trials)."""
        self.line.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(home={self.home}, name={self.name!r})"


class AtomicCell(ChargedWord):
    """Base of the integer, flag, reference and 128-bit cells, whose home
    is passed as a locale id (the pointer cells take ``locale=`` instead)."""

    __slots__ = ()

    def __init__(
        self,
        runtime: "Runtime",
        home: int,
        name: str = "",
        *,
        opt_out: bool = False,
    ) -> None:
        super().__init__(runtime, home, name, name or f"line@{home}", opt_out)
