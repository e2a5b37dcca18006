"""The compiled-engine executor: serial columnar replay of whole phases.

Why serial replay is bit-identical
----------------------------------
The engine's load-bearing invariant (docs/ENGINE.md, pinned by
tests/test_engine.py) is that virtual results are independent of
real-thread scheduling and therefore of the worker-pool size.  A pool of
size one runs a ``forall``'s tasks to completion in spawn-submission
order — so replaying the same tasks serially on the root thread, in
spawn-submission order, with the same per-task clocks, RNG seeds, task
ids and charge sequences, is just another legal schedule and produces
bit-identical virtual time, comm totals and reclaim stats.  The payoff is
that the serial replay needs **no locks, no TLS lookups, no per-op
dispatch**: every ``ServicePoint`` involved in the phase is borrowed into
a plain ``[next_free, idle_bank, busy_delta, served_delta]`` list, the
``serve_locked`` float recurrence is inlined into the replay loop
(float-op for float-op — same operations, same order, same rounding), and
diagnostics are restored with whole-array counter adds at phase exit.

Borrow discipline
-----------------
A phase executor runs *on the root task* between ``forall`` joins, so no
other thread can touch the borrowed points, the limbo chains, or the
token epoch slots while it runs.  All mutated state — point reservations,
diag stripes, limbo/pool chains, token slots, ``deferred_count`` — is
written back before the executor returns; interpreted code (root-driven
``tryReclaim`` between rounds, ``clear()`` at the end) then operates on
exactly the state an interpreted phase would have left.

``ServicePoint.busy_time`` is restored as one aggregate float add per
point (``served`` is an exact integer add).  Interpreted accumulation
order of ``busy_time`` is itself real-schedule-dependent, so it was never
part of the bit-identity contract — elapsed virtual time, comm totals and
reclaim stats are, and those round-trip exactly.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from random import Random
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..core.limbo_list import LimboNode
from ..runtime.clock import TaskClock
from ..runtime.context import TaskContext, context_scope, current_context
from ..runtime.tasking import spawn_tree_overhead
from .cache import COLUMN_CACHE

__all__ = [
    "serial_tasks",
    "run_alloc_phase",
    "run_uniform_atomic_phase",
    "run_ebr_epoch_phase",
    "run_guard_epoch_phase",
    "run_epoch_workload_phase",
]


@contextmanager
def serial_tasks(rt):
    """The compiled engine's *serial* tier: inline spawned tasks.

    Value-dependent phases (structure traversals, CAS retry loops) cannot
    be lowered to charge columns, but every generator in the registry is
    pool-size-deterministic — so running its tasks inline on the spawning
    thread, in spawn-submission order (the canonical pool-size-1
    schedule), is bit-identical while skipping the worker-pool handoffs,
    queue locks and TLS churn entirely.  This reuses the exact inline
    path full-detail tracing already exercises
    (:meth:`~repro.runtime.tasking.TaskGroup.spawn` with
    ``rt._inline_tasks``), restored on exit so untimed surrounding code
    keeps the configured behavior.
    """
    prev = rt._inline_tasks
    rt._inline_tasks = True
    try:
        yield
    finally:
        rt._inline_tasks = prev


class _PointLedger:
    """Borrowed ``ServicePoint`` states for one compiled phase.

    Each borrowed point becomes a ``[next_free, idle_bank, busy_delta,
    served_delta]`` list the replay loops mutate without locking;
    :meth:`writeback` restores the reservation state and applies the
    accumulated busy/served deltas under the point's own lock.
    """

    __slots__ = ("_by_id", "_entries")

    def __init__(self) -> None:
        self._by_id: Dict[int, list] = {}
        self._entries: List[tuple] = []

    def state(self, point) -> list:
        key = id(point)
        st = self._by_id.get(key)
        if st is None:
            st = [point.next_free, point.idle_bank, 0.0, 0]
            self._by_id[key] = st
            self._entries.append((point, st))
        return st

    def writeback(self) -> None:
        for point, st in self._entries:
            with point._lock:
                point.next_free = st[0]
                point.idle_bank = st[1]
                point.busy_time += st[2]
                point.served += st[3]


def _serve(st: list, arrival: float, service: float) -> float:
    """``ServicePoint.serve_locked`` over a borrowed state list.

    Same float operations in the same order as the interpreted body (keep
    in sync with :meth:`repro.runtime.clock.ServicePoint.serve_locked`);
    busy/served land in the delta slots for aggregate writeback.
    """
    st[2] += service
    st[3] += 1
    next_free = st[0]
    if arrival >= next_free:
        st[1] += arrival - next_free
        st[0] = finish = arrival + service
        return finish
    bank = st[1]
    if bank >= service:
        st[1] = bank - service
        return arrival + service
    st[1] = 0.0
    finish = next_free + (service - bank)
    floor = arrival + service
    if finish < floor:
        finish = floor
    st[0] = finish
    return finish


def _forall_prologue(rt, ctx, active_locales, total_tasks) -> float:
    """The spawn-side bookkeeping of ``Runtime.forall``: every compiled
    task starts at ``now + spawn-tree overhead``, exactly as a spawned
    one would."""
    overhead = spawn_tree_overhead(
        total_tasks,
        rt.network.spawn_broadcast_cost(ctx.locale_id, active_locales),
    )
    return ctx.clock.now + overhead


def _forall_epilogue(rt, ctx, finish: float) -> None:
    """The join-side bookkeeping of ``Runtime.forall``."""
    ctx.clock.advance_to(finish)
    ctx.clock.advance(rt.config.costs.task_join)


def _writeback_diags(diags, diag_counts: List[List[int]]) -> None:
    """Apply per-(locale, op-index) counter deltas to this thread's stripe."""
    rows = diags._rows()
    for locale, deltas in enumerate(diag_counts):
        row = rows[locale]
        for index, n in enumerate(deltas):
            if n:
                row[index] += n


def run_alloc_phase(rt, targets: Sequence[int]) -> List[Any]:
    """Replay a root-task allocation loop: one ``rt.new_obj(object(),
    locale=home)`` per entry of ``targets``, in order.

    The heap allocations happen for real (the objects must exist for the
    retire/free paths that follow), but the per-object network charge —
    an AM round trip to a non-coherent home plus the allocator latency
    (:meth:`repro.comm.network.Network.alloc`) — replays against borrowed
    control-plane points with the serve recurrence inlined.  The epoch
    workloads pre-place thousands of objects on the root clock before
    their timed region; replaying that loop keeps the timed window's
    float base (and hence ``elapsed``) bit-identical while skipping the
    per-call context/tracer/dispatch overhead.

    Only valid when no full-detail tracer is installed (full tracing
    falls back to the interpreter before any executor runs), since the
    interpreted path would emit per-op ``alloc``/``am`` events.
    """
    ctx = current_context()
    net = rt.network
    lid = ctx.locale_id
    alloc_latency = rt.config.costs.alloc_latency
    ledger = _PointLedger()
    # Per-home recipe: None for coherent homes (allocator cost only),
    # else the AM round-trip's (latency, borrowed point, service).
    plans: List[Optional[tuple]] = []
    heaps = []
    for home in range(rt.num_locales):
        heaps.append(rt.locale(home).heap)
        dclass = net.distance_row(home)[lid]
        ctrl = net._ctrl_routes(home)[dclass]
        if ctrl is None:
            plans.append(None)
        else:
            point, cc = ctrl
            plans.append((2.0 * cc.am_latency, ledger.state(point), cc.am_service))

    now = ctx.clock.now
    n_am = 0
    out: List[Any] = []
    append = out.append
    for home in targets:
        plan = plans[home]
        if plan is not None:
            latency, pst, service = plan
            n_am += 1
            now = _serve(pst, now + latency, service)
        now += alloc_latency
        append(heaps[home].alloc(object()))
    ctx.clock.now = now
    ledger.writeback()
    diags = net.diags
    if n_am and diags._enabled:
        diags._rows()[lid][diags.op_index("am")] += n_am
    return out


# ---------------------------------------------------------------------------
# Uniform narrow-atomic phases (atomic mix, hotspot)
# ---------------------------------------------------------------------------


def run_uniform_atomic_phase(
    rt,
    *,
    homes: Sequence[int],
    tasks_per_locale: int,
    column_fn,
    op_charges: Optional[Sequence[int]] = None,
    route_row: int = 0,
    column_key: Optional[tuple] = None,
) -> None:
    """Replay one ``forall(range(nloc * tpl), body)`` of uniform atomic ops.

    ``homes[ci]`` is the home locale of cell ``ci``; ``column_fn(rng)``
    lowers one task's op stream into a column of cell indices (see
    :mod:`repro.engine.opstream`).  By default every op charges the cell's
    narrow-plain route for the issuing locale's distance class — the
    route any of read/write/CAS/exchange charges on an ``AtomicInt64`` —
    so only the target cell per op needs materializing.

    ``route_row`` selects the route-cube row instead (2 = wide, the
    ``AtomicObject`` ABA variants' 128-bit route), and ``op_charges`` maps
    the op cycle position (``op_i & 3``) to a charge count per op: the
    object bodies' CAS case is a read *then* a CAS on the same cell, two
    consecutive charges on one route — ``(1, 1, 2, 1)`` — while the
    integer mix stays on the uniform one-charge fast path (``None``).

    ``column_key`` enables the cross-run compilation cache: per-task RNG
    streams are a pure function of ``(config seed, task id)`` and task
    ids are handed out consecutively here, so the lowered columns are
    memoized in :data:`~repro.engine.cache.COLUMN_CACHE` keyed by
    ``(column_key, seed, first task id, task count)`` and shared across
    ``--repeats`` and grid-runner runtimes.

    The cells themselves are *virtual*: each gets a fresh
    ``[0.0, 0.0, ...]`` line state (a brand-new ``ServicePoint`` starts
    zeroed), never written back — workload cells are phase-local and
    nothing observes them afterwards.  Real shared points on the routes
    (NIC pipelines, progress threads, uplinks) are borrowed and restored.
    """
    ctx = current_context()
    net = rt.network
    nloc = rt.num_locales
    tpl = tasks_per_locale
    ncells = len(homes)

    # ---- compile: per-(locale, cell) charge plans from the route cube --
    ledger = _PointLedger()
    lines = [[0.0, 0.0, 0.0, 0] for _ in range(ncells)]
    row_by_home: Dict[int, tuple] = {}
    dist_by_home: Dict[int, tuple] = {}
    plans_by_locale: List[list] = []
    for locale in range(nloc):
        plans = []
        for ci in range(ncells):
            home = homes[ci]
            row = row_by_home.get(home)
            if row is None:
                row = row_by_home[home] = net.atomic_class_routes(home)[
                    route_row
                ]
                dist_by_home[home] = net.distance_row(home)
            route = row[dist_by_home[home][locale]]
            point_state = (
                ledger.state(route.point) if route.point is not None else None
            )
            plans.append(
                (
                    route.latency,
                    point_state,
                    route.point_service,
                    lines[ci],
                    route.line_service,
                    route.diag_index,
                )
            )
        plans_by_locale.append(plans)

    # ---- forall bookkeeping (one item per task: body(task_idx)) --------
    total_tasks = nloc * tpl
    if total_tasks == 0:
        return
    tr = rt._tracer
    t0 = ctx.clock.now if tr is not None else 0.0
    start = _forall_prologue(rt, ctx, list(range(nloc)), total_tasks)
    seed_base = rt.config.seed << 20
    diags = net.diags
    record = diags._enabled
    diag_counts = [[0] * 9 for _ in range(nloc)]

    # Task ids are consecutive (nothing else allocates between phases'
    # replay loops), which is what makes the column-cache key sound.
    task_ids = [rt._next_task_id() for _ in range(total_tasks)]

    def _build_columns() -> List[list]:
        cols = []
        for tid in task_ids:
            rng = Random()
            rng.seed(seed_base ^ tid)
            cols.append(column_fn(rng))
        return cols

    if column_key is not None:
        columns = COLUMN_CACHE.get_or_build(
            (column_key, rt.config.seed, task_ids[0], total_tasks),
            _build_columns,
        )
    else:
        columns = _build_columns()

    # ---- replay: spawn-submission order == the pool-size-1 schedule ----
    finish = start
    ti = 0
    for locale in range(nloc):
        plans = plans_by_locale[locale]
        deltas = diag_counts[locale]
        for _w in range(tpl):
            column = columns[ti]
            ti += 1
            now = start
            if op_charges is not None:
                # Cycle-position-dependent charge counts (the object
                # bodies): per op, 1-2 consecutive charges on one route.
                for op_i, ci in enumerate(column):
                    plan = plans[ci]
                    reps = op_charges[op_i & 3]
                    now = _charge(plan, now)
                    if reps == 2:
                        now = _charge(plan, now)
                    if record:
                        deltas[plan[5]] += reps
                if now > finish:
                    finish = now
                continue
            for ci in column:
                latency, pst, ps, lst, ls, _di = plans[ci]
                t = now + latency
                if pst is not None:
                    # Inlined serve_locked (point pass) — keep in sync
                    # with ServicePoint.serve_locked.
                    pst[2] += ps
                    pst[3] += 1
                    nf = pst[0]
                    if t >= nf:
                        pst[1] += t - nf
                        pst[0] = t = t + ps
                    else:
                        b = pst[1]
                        if b >= ps:
                            pst[1] = b - ps
                            t = t + ps
                        else:
                            pst[1] = 0.0
                            f = nf + (ps - b)
                            floor = t + ps
                            if f < floor:
                                f = floor
                            pst[0] = t = f
                # Inlined serve_locked (line pass).
                nf = lst[0]
                if t >= nf:
                    lst[1] += t - nf
                    lst[0] = now = t + ls
                else:
                    b = lst[1]
                    if b >= ls:
                        lst[1] = b - ls
                        now = t + ls
                    else:
                        lst[1] = 0.0
                        f = nf + (ls - b)
                        floor = t + ls
                        if f < floor:
                            f = floor
                        lst[0] = now = f
            if now > finish:
                finish = now
            if record:
                for ci, n in Counter(column).items():
                    deltas[plans[ci][5]] += n

    # ---- join + writeback ---------------------------------------------
    _forall_epilogue(rt, ctx, finish)
    ledger.writeback()
    if record:
        _writeback_diags(diags, diag_counts)
    if tr is not None:
        # Field-for-field the span Runtime.forall emits for the
        # interpreted ``forall(range(nloc * tpl), body)`` of this phase —
        # the cross-engine trace-equality contract (docs/OBSERVABILITY.md).
        tr.span("forall", t0, ctx.clock.now, tasks=total_tasks, items=total_tasks)


# ---------------------------------------------------------------------------
# EBR pin/defer/unpin phases (epoch_mixed)
# ---------------------------------------------------------------------------


def _narrow_plan(net, cell, locale: int, ledger: _PointLedger) -> tuple:
    """Lower one real cell's narrow charge from ``locale`` into a replay
    plan ``(latency, point_state, point_service, line_state, line_service,
    diag_index)``.

    Token and instance-epoch cells are ``opt_out`` (pure-CPU routes, no
    point); limbo/pool heads are ordinary cells whose local charge rides
    the home NIC under ``ugni``.  Both the optional home-level point and
    the cell's own line are borrowed through the ledger, so their
    reservation state round-trips across phases exactly as interpreted
    charges would leave it.
    """
    routes = net.atomic_class_routes(cell.home)
    route = routes[1 if cell.opt_out else 0][cell._dist[locale]]
    point_state = ledger.state(route.point) if route.point is not None else None
    return (
        route.latency,
        point_state,
        route.point_service,
        ledger.state(cell.line),
        route.line_service,
        route.diag_index,
    )


def _charge(plan: tuple, now: float) -> float:
    """Replay one narrow charge: optional point pass, then the line pass
    (the interpreted ``AtomicCell._charge`` virtual math, lock-free)."""
    latency, pst, ps, lst, ls, _di = plan
    t = now + latency
    if pst is not None:
        t = _serve(pst, t, ps)
    return _serve(lst, t, ls)


class _InstanceLedger:
    """Borrowed mutable state of one ``_EpochManagerInstance``.

    Pool and limbo chains are replayed over the *real* ``LimboNode``
    objects (links included), so the interpreted drain/reclaim code
    between rounds walks exactly the chains an interpreted phase would
    have built.
    """

    __slots__ = (
        "inst",
        "epoch_cell",
        "limbo",
        "limbo_cur",
        "pool",
        "pool_cur",
        "pool_alloc_delta",
        "defer_delta",
        "plans",
    )

    def __init__(self, inst) -> None:
        self.inst = inst
        self.epoch_cell = inst.locale_epoch
        # The phase files deferred objects under the *current* locale
        # epoch, constant for the whole phase (only root-driven reclaim
        # between phases advances it).
        epoch = inst.locale_epoch.peek()
        self.limbo = inst.limbo_lists[epoch - 1]
        self.limbo_cur = self.limbo._head.peek()
        self.pool = inst.pool
        self.pool_cur = (
            self.pool._head.peek() if self.pool is not None else None
        )
        self.pool_alloc_delta = 0
        self.defer_delta = 0
        #: Per-caller-locale route plans, filled on demand.
        self.plans: Dict[int, tuple] = {}

    def plans_for(self, net, locale: int, ledger: _PointLedger) -> tuple:
        plans = self.plans.get(locale)
        if plans is None:
            epoch_plan = _narrow_plan(net, self.epoch_cell, locale, ledger)
            limbo_plan = _narrow_plan(net, self.limbo._head, locale, ledger)
            pool_plan = (
                _narrow_plan(net, self.pool._head, locale, ledger)
                if self.pool is not None
                else None
            )
            plans = self.plans[locale] = (epoch_plan, limbo_plan, pool_plan)
        return plans

    def writeback(self) -> None:
        self.limbo._head._value = self.limbo_cur
        if self.pool is not None:
            self.pool._head._value = self.pool_cur
            self.pool.allocated += self.pool_alloc_delta
        self.inst.deferred_count += self.defer_delta


def _split_items(items: Sequence[int], nloc: int, tpl: int) -> tuple:
    """``forall``'s cyclic item distribution: item ``idx`` goes to locale
    ``idx % nloc``, which runs ``min(tpl, chunk length)`` tasks over its
    chunk.  Returns ``(per-locale chunks, tasks per locale)``."""
    per_locale: List[List[int]] = [[] for _ in range(nloc)]
    for idx, item in enumerate(items):
        per_locale[idx % nloc].append(item)
    return per_locale, [min(tpl, len(c)) for c in per_locale]


def _ebr_replay_task(
    items: Iterable[int],
    is_write: Sequence[bool],
    objs: Sequence[Any],
    il: _InstanceLedger,
    plans: tuple,
    tk_plan: tuple,
    now: float,
    deltas: List[int],
    record: bool,
) -> float:
    """Replay one task's EBR pin / [defer_delete] / unpin items from ``now``.

    Per item: 3 pin charges (instance-epoch read, token write, revalidation
    read), then for ``is_write[item]`` the deferral (2 reads + pool get +
    limbo exchange), then 1 unpin charge — CPU-priced cache-line passes
    against the instance epoch cell, the task's token slot (``tk_plan``) and
    the pool/limbo heads (``plans``, from :meth:`_InstanceLedger.plans_for`).
    Limbo and pool chains are mutated over the real nodes through ``il``.
    Returns the task clock after its last item.

    This is the engine's hottest loop (4–8 charges per item, millions of
    items per bench run), so each plan is unpacked into locals, ``_charge``
    is inlined at every site, and each pin/unpin serve inlines the
    idle-point fast branch of ``_serve`` (``arrival >= next_free``: bank
    the gap, advance ``next_free``) — the same float ops in the same order
    — calling ``_serve`` only when the point is queued.
    """
    ie_plan, lm_plan, pl_plan = plans
    ie_lat, ie_pst, ie_ps, ie_lst, ie_ls, ie_di = ie_plan
    lm_lat, lm_pst, lm_ps, lm_lst, lm_ls, lm_di = lm_plan
    tk_lat, tk_pst, tk_ps, tk_lst, tk_ls, tk_di = tk_plan
    pool = il.pool
    if pool is not None:
        pl_lat, pl_pst, pl_ps, pl_lst, pl_ls, pl_di = pl_plan
    for item in items:
        # pin(): inst-epoch read, token write, revalidation read.
        t = now + ie_lat
        if ie_pst is not None:
            if t >= ie_pst[0]:
                ie_pst[2] += ie_ps
                ie_pst[3] += 1
                ie_pst[1] += t - ie_pst[0]
                t += ie_ps
                ie_pst[0] = t
            else:
                t = _serve(ie_pst, t, ie_ps)
        if t >= ie_lst[0]:
            ie_lst[2] += ie_ls
            ie_lst[3] += 1
            ie_lst[1] += t - ie_lst[0]
            now = t + ie_ls
            ie_lst[0] = now
        else:
            now = _serve(ie_lst, t, ie_ls)
        t = now + tk_lat
        if tk_pst is not None:
            if t >= tk_pst[0]:
                tk_pst[2] += tk_ps
                tk_pst[3] += 1
                tk_pst[1] += t - tk_pst[0]
                t += tk_ps
                tk_pst[0] = t
            else:
                t = _serve(tk_pst, t, tk_ps)
        if t >= tk_lst[0]:
            tk_lst[2] += tk_ls
            tk_lst[3] += 1
            tk_lst[1] += t - tk_lst[0]
            now = t + tk_ls
            tk_lst[0] = now
        else:
            now = _serve(tk_lst, t, tk_ls)
        t = now + ie_lat
        if ie_pst is not None:
            if t >= ie_pst[0]:
                ie_pst[2] += ie_ps
                ie_pst[3] += 1
                ie_pst[1] += t - ie_pst[0]
                t += ie_ps
                ie_pst[0] = t
            else:
                t = _serve(ie_pst, t, ie_ps)
        if t >= ie_lst[0]:
            ie_lst[2] += ie_ls
            ie_lst[3] += 1
            ie_lst[1] += t - ie_lst[0]
            now = t + ie_ls
            ie_lst[0] = now
        else:
            now = _serve(ie_lst, t, ie_ls)
        if record:
            deltas[ie_di] += 2
            deltas[tk_di] += 2  # pin write + unpin write
        if is_write[item]:
            # defer_delete(): pinned check + epoch read ...
            t = now + tk_lat
            if tk_pst is not None:
                t = _serve(tk_pst, t, tk_ps)
            now = _serve(tk_lst, t, tk_ls)
            t = now + ie_lat
            if ie_pst is not None:
                t = _serve(ie_pst, t, ie_ps)
            now = _serve(ie_lst, t, ie_ls)
            if record:
                deltas[tk_di] += 1
                deltas[ie_di] += 1
            # ... then limbo push: pool get + head exchange.
            if pool is not None:
                t = now + pl_lat
                if pl_pst is not None:
                    t = _serve(pl_pst, t, pl_ps)
                now = _serve(pl_lst, t, pl_ls)
                node = il.pool_cur
                if node is None:
                    node = LimboNode()
                    il.pool_alloc_delta += 1
                    if record:
                        deltas[pl_di] += 1
                else:
                    # Non-empty pool: the pop CAS is a second
                    # charge on the pool head.
                    t = now + pl_lat
                    if pl_pst is not None:
                        t = _serve(pl_pst, t, pl_ps)
                    now = _serve(pl_lst, t, pl_ls)
                    il.pool_cur = node.next
                    if record:
                        deltas[pl_di] += 2
                node.val = objs[item]
                node.next = None
            else:
                node = LimboNode()
                node.val = objs[item]
            t = now + lm_lat
            if lm_pst is not None:
                t = _serve(lm_pst, t, lm_ps)
            now = _serve(lm_lst, t, lm_ls)
            node.next = il.limbo_cur
            il.limbo_cur = node
            il.defer_delta += 1
            if record:
                deltas[lm_di] += 1
        # unpin(): token write (diag counted with pin above).
        t = now + tk_lat
        if tk_pst is not None:
            if t >= tk_pst[0]:
                tk_pst[2] += tk_ps
                tk_pst[3] += 1
                tk_pst[1] += t - tk_pst[0]
                t += tk_ps
                tk_pst[0] = t
            else:
                t = _serve(tk_pst, t, tk_ps)
        if t >= tk_lst[0]:
            tk_lst[2] += tk_ls
            tk_lst[3] += 1
            tk_lst[1] += t - tk_lst[0]
            now = t + tk_ls
            tk_lst[0] = now
        else:
            now = _serve(tk_lst, t, tk_ls)
    return now


def run_ebr_epoch_phase(
    rt,
    *,
    items: Sequence[int],
    is_write: Sequence[bool],
    objs: Sequence[Any],
    tokens: List[List[Any]],
    tokens_per_locale: int,
) -> None:
    """Replay one round of ``run_epoch_mixed`` under the EBR manager.

    Mirrors ``forall(items, body, task_init=bank.task_init)`` where the
    body pins, defer-deletes ``objs[item]`` when ``is_write[item]``, and
    unpins.  The charge stream per item is fixed (no mid-phase epoch
    advances — reclamation is root-driven between rounds), so the whole
    round lowers to :func:`_ebr_replay_task` per task against the
    pre-registered tokens.
    """
    ctx = current_context()
    net = rt.network
    nloc = rt.num_locales
    tpl = tokens_per_locale

    per_locale, ntasks_by_locale = _split_items(items, nloc, tpl)
    total_tasks = sum(ntasks_by_locale)
    if total_tasks == 0:
        return
    active = [lid for lid, c in enumerate(per_locale) if c]
    tr = rt._tracer
    t0 = ctx.clock.now if tr is not None else 0.0
    start = _forall_prologue(rt, ctx, active, total_tasks)

    # ---- compile: per-instance charge plans ----------------------------
    ledger = _PointLedger()
    inst_ledgers: Dict[int, _InstanceLedger] = {}
    by_locale_inst: List[Optional[_InstanceLedger]] = [None] * nloc
    for lid in active:
        # A locale's pre-registered tokens all lease the same (possibly
        # privatized) manager instance; take it from the token itself so
        # the replay charges exactly the cells the interpreted pin/defer
        # bodies would.
        inst = tokens[lid][0]._inst
        il = inst_ledgers.get(id(inst))
        if il is None:
            il = inst_ledgers[id(inst)] = _InstanceLedger(inst)
        by_locale_inst[lid] = il

    diags = net.diags
    record = diags._enabled
    diag_counts = [[0] * 9 for _ in range(nloc)]
    used_tokens = []

    # ---- replay: spawn-submission order ---------------------------------
    finish = start
    for locale in active:
        chunk = per_locale[locale]
        ntasks = ntasks_by_locale[locale]
        il = by_locale_inst[locale]
        plans = il.plans_for(net, locale, ledger)
        for w in range(ntasks):
            task_id = rt._next_task_id()
            tok = tokens[locale][task_id % tpl]
            used_tokens.append(tok)
            tk_plan = _narrow_plan(net, tok.local_epoch, locale, ledger)
            now = _ebr_replay_task(
                chunk[w::ntasks], is_write, objs, il, plans, tk_plan,
                start, diag_counts[locale], record,
            )
            if now > finish:
                finish = now

    # ---- join + writeback ---------------------------------------------
    _forall_epilogue(rt, ctx, finish)
    for tok in used_tokens:
        tok.local_epoch.poke(0)
    for il in inst_ledgers.values():
        il.writeback()
    ledger.writeback()
    if record:
        _writeback_diags(diags, diag_counts)
    if tr is not None:
        # Identical to the interpreted ``forall(items, body, ...)`` span
        # (cross-engine trace-equality contract, docs/OBSERVABILITY.md).
        tr.span("forall", t0, ctx.clock.now, tasks=total_tasks, items=len(items))


# ---------------------------------------------------------------------------
# Hazard-pointer pin/defer/unpin phases (epoch_mixed under hp)
# ---------------------------------------------------------------------------


def run_guard_epoch_phase(
    rt,
    *,
    items: Sequence[int],
    is_write: Sequence[bool],
    objs: Sequence[Any],
    guards: List[List[Any]],
    guards_per_locale: int,
) -> None:
    """Replay one round of ``run_epoch_mixed`` under hazard pointers.

    Mirrors ``forall(items, body, task_init=bank.task_init)`` where the
    body pins, defer-deletes ``objs[item]`` when ``is_write[item]``, and
    unpins, against pre-registered HP guards.  Pin/unpin are free (no
    hazard slots are published by this body) and a retire is one
    ``cpu_load_latency`` advance plus a zero-tagged append, but crossing
    ``scan_threshold`` runs the *real* ``_scan`` under a synthetic task
    context: hazard reads (aggregated or not), drains and frees are
    value-dependent and charge exactly as interpreted, continuing this
    task's clock.

    Retired entries are appended to the **real** guard buffers, so the
    interpreted ``phase_boundary``/``try_reclaim``/``clear`` calls
    between rounds scan, drain and free exactly the state an interpreted
    phase leaves.
    """
    ctx = current_context()
    nloc = rt.num_locales
    tpl = guards_per_locale

    per_locale, ntasks_by_locale = _split_items(items, nloc, tpl)
    total_tasks = sum(ntasks_by_locale)
    if total_tasks == 0:
        return
    active = [lid for lid, c in enumerate(per_locale) if c]
    tr = rt._tracer
    t0 = ctx.clock.now if tr is not None else 0.0
    start = _forall_prologue(rt, ctx, active, total_tasks)

    cpu_load = rt.config.costs.cpu_load_latency
    seed_base = rt.config.seed << 20

    # ---- replay: spawn-submission order ---------------------------------
    finish = start
    for locale in active:
        chunk = per_locale[locale]
        ntasks = ntasks_by_locale[locale]
        for w in range(ntasks):
            task_id = rt._next_task_id()
            guard = guards[locale][task_id % tpl]
            rec = guard._rec
            retired = guard._retired
            threshold = rec.scan_threshold
            tctx: Optional[TaskContext] = None
            now = start
            for item in chunk[w::ntasks]:
                if is_write[item]:
                    now += cpu_load
                    retired.append((objs[item], 0))
                    if len(retired) >= threshold:
                        # The threshold scan is value-dependent (hazard
                        # reads, drains, frees) — run the real thing on
                        # this task's clock.
                        if tctx is None:
                            tctx = TaskContext(
                                runtime=rt,
                                locale_id=locale,
                                clock=TaskClock(now),
                                task_id=task_id,
                            )
                            tctx.rng.seed(seed_base ^ task_id)
                        tctx.clock.now = now
                        with context_scope(tctx):
                            rec._scan([guard])
                        now = tctx.clock.now
                        # The drain rebinds guard._retired; drop the stale
                        # alias.
                        retired = guard._retired
            if now > finish:
                finish = now

    # ---- join ---------------------------------------------------------
    _forall_epilogue(rt, ctx, finish)
    if tr is not None:
        tr.span("forall", t0, ctx.clock.now, tasks=total_tasks, items=len(items))


# ---------------------------------------------------------------------------
# The Listing 5 workload (fig 4-7 drivers) under EBR: in-task register /
# replay / unregister
# ---------------------------------------------------------------------------


def run_epoch_workload_phase(
    rt,
    *,
    em,
    objs: Sequence[Any],
    num_objects: int,
    delete: bool,
) -> None:
    """Replay ``run_epoch_workload``'s ``forall`` (one task per locale, EBR).

    The interpreted body registers a token *inside* the task
    (``task_init``), pins / optionally retires / unpins per item, and
    unregisters on task exit.  With one task per locale (the gated
    shape), the pool-size-1 schedule runs each task start-to-finish in
    locale order — so the replay alternates real excursions with column
    replay per task:

    1. ``em.register()`` runs **for real** under a synthetic task
       context (the free-list pop / token construction charges) — the
       registry, token chains and stats mutate exactly as interpreted;
    2. the per-item pin/retire/unpin stream replays through
       :func:`_ebr_replay_task` against the freshly registered token's
       cells, with ``delete`` standing in for every item's write flag and
       retired objects pushed onto the real limbo chains;
    3. borrowed state is written back, then ``unregister()`` runs for
       real on the task's clock (token write + free-list push).

    Interpreted code afterwards (``em.clear()``, stats) sees exactly the
    state an interpreted phase leaves.
    """
    ctx = current_context()
    net = rt.network
    nloc = rt.num_locales
    if num_objects == 0:
        return
    active = list(range(min(nloc, num_objects)))
    total_tasks = len(active)
    tr = rt._tracer
    t0 = ctx.clock.now if tr is not None else 0.0
    start = _forall_prologue(rt, ctx, active, total_tasks)

    seed_base = rt.config.seed << 20
    diags = net.diags
    record = diags._enabled
    diag_counts = [[0] * 9 for _ in range(nloc)]
    is_write = [delete] * num_objects

    finish = start
    for lid in active:
        task_id = rt._next_task_id()
        tctx = TaskContext(
            runtime=rt, locale_id=lid, clock=TaskClock(start), task_id=task_id
        )
        tctx.rng.seed(seed_base ^ task_id)

        # -- 1. real registration on the task's clock --------------------
        with context_scope(tctx):
            tok = em.register()

        # -- 2. columnar replay of the pin/retire/unpin stream -----------
        ledger = _PointLedger()
        il = _InstanceLedger(tok._inst)
        now = _ebr_replay_task(
            range(lid, num_objects, nloc), is_write, objs, il,
            il.plans_for(net, lid, ledger),
            _narrow_plan(net, tok.local_epoch, lid, ledger),
            tctx.clock.now, diag_counts[lid], record,
        )

        # -- 3. writeback, then real unregistration ----------------------
        il.writeback()
        ledger.writeback()
        tctx.clock.now = now
        with context_scope(tctx):
            tok.unregister()
        if tctx.clock.now > finish:
            finish = tctx.clock.now

    _forall_epilogue(rt, ctx, finish)
    if record:
        _writeback_diags(diags, diag_counts)
    if tr is not None:
        tr.span(
            "forall", t0, ctx.clock.now, tasks=total_tasks, items=num_objects
        )
