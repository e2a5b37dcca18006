"""Base machinery shared by all simulated atomic variables.

An atomic cell lives on a *home locale* and owns a per-cell
:class:`~repro.runtime.clock.ServicePoint` modelling its cache line / NIC
address pipeline — the resource that serializes concurrent operations on a
*hot* atomic even when the rest of the machine is idle.

Virtual time and communication counters are charged along routes
precompiled by the runtime's :class:`~repro.comm.network.NetworkModel`,
which applies the paper's routing rules (CPU vs NIC vs active message)
based on the *distance class* between the calling task's locale and the
cell's home (see :mod:`repro.comm.topology`) and whether the runtime has
network atomics.  The shared plan carries its home's distance row — a
tuple mapping source locale to class index — so resolving the route on
the hot path is one tuple index, for any topology.

Charge, then commit
-------------------
Every simulated atomic — the integer cells
(:class:`~repro.atomics.integer.AtomicUInt64`, ``AtomicInt64``,
``AtomicBool``), :class:`~repro.atomics.ref.AtomicRef` and the pointer
cell :class:`~repro.core.atomic_object.AtomicObject` — derives from
:class:`ChargedWord` and shares the memoised
:class:`~repro.comm.routes.CellPlan` of its ``(home, opt_out)``
(``NetworkModel.cell_plan``).  An op calls :meth:`ChargedWord._enter`,
the one charge body, which reserves the route's home-level point (if
any) and the cell's line; the op then commits its value change.

Atomicity comes from the simulated hardware, not from host locks: the
NIC pipeline and the cache line are service points in virtual time, and
a runtime and everything it owns are used by one thread
(docs/ENGINE.md, "One thread per runtime").  Tasks switch only between
whole operations, never between ``_enter``'s charge and the caller's
commit, so a charge-and-commit is indivisible.  The epoch manager's
owner-only words (a token's slot, its instance's epoch, the limbo and
node-pool heads) are charged in place on the retire path:
``word._enter(False)`` and then the commit on ``word._value``, exactly
the body of the op method minus its frame.  A drain returns its nodes to
the pool as one :meth:`ChargedWord._charge_run`: the pushes' charges back
to back, then one commit of the relinked chain.

A cell line keeps only its recurrence
-------------------------------------
The line's ``next_free`` and ``idle_bank`` decide every finish time.
Only the NIC, progress-thread and uplink points on a route keep
``busy_time`` and ``served``: ``RuntimeSnapshot`` and the aggregation
stats read them.  A line's two counters are unspecified: ``_enter``'s
inline serve does not update them, while a traced line and the compiled
EBR replay's queued and deferral charges go through ``serve_locked``,
which does.  No report reads them.

Operations charge costs only while the owning runtime runs a task: the
charge reads that runtime's ``_ctx`` slot, which is ``None`` outside its
tasks, also inside a task of another runtime.  This lets unit tests
exercise pure semantics without standing up a runtime task.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..runtime.clock import ServicePoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["ChargedWord", "AtomicCell"]


class ChargedWord:
    """Home, line and charge plan shared by every simulated atomic."""

    __slots__ = ("_rt", "home", "name", "opt_out", "line", "_plan", "_hot")

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
        self._plan = network.cell_plan(home, opt_out)
        #: Hot-path bundle: one attribute load + UNPACK_SEQUENCE hands
        #: ``_enter`` everything it needs (runtime for its running task,
        #: the distance row, narrow steps, the diagnostics matrix, and the
        #: line).
        self._hot = (
            runtime,
            self._plan.dist,
            self._plan.narrow,
            network.diags._rows,
            line,
        )

    def _enter(self, wide: bool) -> None:
        """Charge one atomic op when called from a task of the owning
        runtime; otherwise do nothing.

        The caller commits its value change after this returns.  The
        route (latency class, service points, diagnostic index) was
        precompiled into the shared plan; only the caller's locality is
        decided here.  Every op of every cell charges through this one
        body.  The line's serve is :meth:`ServicePoint.serve_locked
        <repro.runtime.clock.ServicePoint.serve_locked>`'s recurrence
        inline, float op for float op; a traced line calls
        ``serve_locked`` itself, so the trace hook stays in one place.
        """
        rt, dist, narrow, rows, line = self._hot
        ctx = rt._ctx
        if ctx is None:
            return
        locale = ctx.locale_id
        diag_index, latency, outer, point_service, service = (
            self._plan[2] if wide else narrow  # _plan[2] is plan.wide
        )[dist[locale]]
        rows[locale][diag_index] += 1
        t = ctx.now + latency
        if outer is not None:
            t = outer(t, point_service)
        if line._tracer is not None:
            ctx.now = line.serve_locked(t, service)
            return
        # Inlined serve_locked — keep in sync with ServicePoint.serve_locked.
        # The line keeps only its recurrence (next_free, idle_bank): no
        # report reads a cell line's busy_time or served.
        next_free = line.next_free
        if t >= next_free:
            line.idle_bank += t - next_free
            line.next_free = ctx.now = t + service
            return
        bank = line.idle_bank
        if bank >= service:
            line.idle_bank = bank - service
            ctx.now = t + service
            return
        line.idle_bank = 0.0
        finish = next_free + (service - bank)
        floor = t + service
        if finish < floor:
            finish = floor
        line.next_free = ctx.now = finish

    def _charge_run(self, n: int) -> None:
        """Charge ``n`` narrow ops back to back, exactly as ``n`` calls of
        ``_enter(False)`` would, from one frame.

        The caller commits after the run; it is legal only where no other
        task can touch the word between the ``n`` charges (docs/ENGINE.md,
        "One thread per runtime").  The diagnostics row takes ``n`` in one
        add and the line runs ``_enter``'s inline recurrence ``n`` times,
        float op for float op.  A traced line, or a route through a
        home-level point, makes the ``n`` ``_enter`` calls instead, so
        trace events and point state stay those of single charges.
        """
        rt, dist, narrow, rows, line = self._hot
        ctx = rt._ctx
        if ctx is None:
            return
        locale = ctx.locale_id
        diag_index, latency, outer, _point_service, service = narrow[dist[locale]]
        if outer is not None or line._tracer is not None:
            for _ in range(n):
                self._enter(False)
            return
        rows[locale][diag_index] += n
        # _enter's inlined serve, n times over locals — keep in sync.
        now = ctx.now
        next_free = line.next_free
        bank = line.idle_bank
        for _ in range(n):
            t = now + latency
            if t >= next_free:
                bank += t - next_free
                next_free = now = t + service
            elif bank >= service:
                bank = bank - service
                now = t + service
            else:
                finish = next_free + (service - bank)
                bank = 0.0
                floor = t + service
                if finish < floor:
                    finish = floor
                next_free = now = finish
        line.next_free = next_free
        line.idle_bank = bank
        ctx.now = now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(home={self.home}, name={self.name!r})"


class AtomicCell(ChargedWord):
    """Base of the integer, flag and reference cells, whose home is
    passed as a locale id (the pointer cell takes ``locale=`` instead)."""

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
