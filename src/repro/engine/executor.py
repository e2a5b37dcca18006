"""The compiled-engine executor: serial columnar replay of whole phases.

Why serial replay is bit-identical
----------------------------------
The runtime's one scheduler (docs/ENGINE.md, "The scheduler") runs a
``forall``'s tasks to completion on the joining root thread in
spawn-submission order, because a lowered phase's tasks spawn nothing
themselves — so replaying the same tasks serially on the root thread, in
spawn-submission order, with the same per-task clocks, RNG seeds, task
ids and charge sequences, is that very schedule and produces
bit-identical virtual time, comm totals and reclaim stats.  The payoff is
that the serial replay needs **no TLS lookups and no per-op dispatch**:
it charges the real service points through ``ServicePoint.serve_locked``
(the hottest sites inline its recurrence float-op for float-op — same
operations, same order, same rounding), and counts diagnostics straight
into the runtime's diagnostics matrix.

Mutating in place
-----------------
A phase executor runs *on the root task* between ``forall`` joins, and a
runtime is used by one thread (docs/ENGINE.md, "One thread per
runtime"), so nothing else touches the service points, cells, limbo
chains or token epoch slots while it runs; the replay mutates all of
them directly.  The replay keeps no private copy of that state,
so real code may run mid-phase (the Listing 5 replay's in-task
``register``/``unregister``, HP threshold scans) and sees exactly the
state the interpreted schedule would.  Every serve updates the point's
``busy_time`` and ``served`` in spawn order too, so they match the
interpreted schedule bit for bit.
"""

from __future__ import annotations

from collections import Counter
from random import Random
from typing import Any, Iterable, List, Optional, Sequence

from ..core.limbo_list import LimboNode
from ..runtime.clock import ServicePoint
from ..runtime.context import TaskContext, current_context
from ..runtime.tasking import spawn_tree_overhead
from .cache import COLUMN_CACHE

__all__ = [
    "run_alloc_phase",
    "run_uniform_atomic_phase",
    "run_ebr_epoch_phase",
    "run_guard_epoch_phase",
    "run_epoch_workload_phase",
]


def _forall_prologue(rt, ctx, active_locales, total_tasks) -> float:
    """The spawn-side bookkeeping of ``Runtime.forall``: every compiled
    task starts at ``now + spawn-tree overhead``, exactly as a spawned
    one would."""
    overhead = spawn_tree_overhead(
        total_tasks,
        rt.network.spawn_broadcast_cost(ctx.locale_id, active_locales),
    )
    return ctx.now + overhead


def run_alloc_phase(rt, targets: Sequence[int]) -> List[Any]:
    """Replay a root-task allocation loop: one ``rt.new_obj(object(),
    locale=home)`` per entry of ``targets``, in order.

    The heap allocations happen for real (the objects must exist for the
    retire/free paths that follow), one :meth:`~repro.memory.heap.Heap.alloc_many`
    batch per home after the charges, but the per-object network charge —
    an AM round trip to a non-coherent home plus the allocator latency
    (:meth:`repro.comm.network.NetworkModel.alloc`) — is served directly on
    the control-plane points.  The epoch
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
    # Per-home recipe: None for coherent homes (allocator cost only),
    # else the AM round-trip's (latency, point, service).
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
            plans.append((2.0 * cc.am_latency, point, cc.am_service))

    now = ctx.now
    n_am = 0
    for home in targets:
        plan = plans[home]
        if plan is not None:
            latency, point, service = plan
            n_am += 1
            now = point.serve_locked(now + latency, service)
        now += alloc_latency
    ctx.now = now
    diags = net.diags
    if n_am and diags._enabled:
        diags._rows[lid][diags.op_index("am")] += n_am
    # One batch per home, scattered back in target order.
    batches = {
        home: iter(heaps[home].alloc_many(n)) for home, n in Counter(targets).items()
    }
    return [next(batches[home]) for home in targets]


# ---------------------------------------------------------------------------
# Uniform narrow-atomic phases (atomic mix, hotspot)
# ---------------------------------------------------------------------------


def _expand_op_cycle(column: List[int], op_charges: Sequence[int]) -> List[int]:
    """Repeat each op's cell once per charge: op ``op_i`` of ``column``
    charges ``op_charges[op_i & 3]`` times, consecutively, on its route.

    Whole 4-op cycles are slice-assigned (one strided copy per charge
    slot of the cycle); a ragged tail of at most three ops is appended
    op by op.  The charges then replay through the one-charge loop.
    """
    whole = len(column) & ~3
    stride = sum(op_charges)
    out = [0] * (whole // 4 * stride)
    slot = 0
    for pos, reps in enumerate(op_charges):
        cells = column[pos:whole:4]
        for _ in range(reps):
            out[slot::stride] = cells
            slot += 1
    for op_i in range(whole, len(column)):
        out += [column[op_i]] * op_charges[op_i & 3]
    return out


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
    integer mix charges once per op (``None``).  Each task's column is
    expanded to one entry per charge (:func:`_expand_op_cycle`) after the
    cache lookup, so the cached draw column is the same for every cell
    kind and every charge replays through the same loop.

    ``column_key`` enables the cross-run compilation cache: per-task RNG
    streams are a pure function of ``(config seed, task id)`` and task
    ids are handed out consecutively here, so the lowered columns are
    memoized in :data:`~repro.engine.cache.COLUMN_CACHE` keyed by
    ``(column_key, seed, first task id, task count)`` and shared across
    ``--repeats`` and grid-runner runtimes.

    The cells themselves are *virtual*: each gets a fresh line
    ``ServicePoint()`` — workload cells are phase-local and nothing
    observes them afterwards.  The real shared points on the routes (NIC
    pipelines, progress threads, uplinks) are charged in place.
    """
    ctx = current_context()
    net = rt.network
    nloc = rt.num_locales
    tpl = tasks_per_locale

    # ---- compile: one charge plan per (cell, distance class) ------------
    # ``class_plans[ci][k]`` is cell ci's ``(latency, point, point_service,
    # line, line_service, diag_index)`` for class k; a locale's plan list
    # picks each cell's entry by its distance row, so setup stays
    # ncells * nclasses tuples however many locales run.
    class_plans = []
    dist_rows = []
    for home in homes:
        line = ServicePoint()
        class_plans.append(
            [
                (
                    route.latency,
                    route.point,
                    route.point_service,
                    line,
                    route.line_service,
                    route.diag_index,
                )
                for route in net.atomic_class_routes(home)[route_row]
            ]
        )
        dist_rows.append(net.distance_row(home))

    # ---- forall bookkeeping (one item per task: body(task_idx)) --------
    total_tasks = nloc * tpl
    if total_tasks == 0:
        return
    tr = rt._tracer
    t0 = ctx.now if tr is not None else 0.0
    start = _forall_prologue(rt, ctx, list(range(nloc)), total_tasks)
    seed_base = rt.config.seed << 20
    diags = net.diags
    record = diags._enabled
    rows = diags._rows

    # Task ids are consecutive (nothing else allocates between phases'
    # replay loops), which is what makes the column-cache key sound.
    task_ids = [rt._next_task_id() for _ in range(total_tasks)]

    def _build_columns() -> List[list]:
        return [column_fn(Random(seed_base ^ tid)) for tid in task_ids]

    if column_key is not None:
        columns = COLUMN_CACHE.get_or_build(
            (column_key, rt.config.seed, task_ids[0], total_tasks),
            _build_columns,
        )
    else:
        columns = _build_columns()

    # ---- replay: spawn-submission order == the scheduler's order ----
    finish = start
    ti = 0
    for locale in range(nloc):
        plans = [
            cell_plans[row[locale]]
            for cell_plans, row in zip(class_plans, dist_rows)
        ]
        counts = rows[locale]
        for _w in range(tpl):
            column = columns[ti]
            ti += 1
            if op_charges is not None:
                column = _expand_op_cycle(column, op_charges)
            now = start
            for ci in column:
                latency, pt, ps, ln, ls, _di = plans[ci]
                t = now + latency
                if pt is not None:
                    # Inlined serve_locked (point pass) — keep in sync
                    # with ServicePoint.serve_locked.
                    pt.busy_time += ps
                    pt.served += 1
                    nf = pt.next_free
                    if t >= nf:
                        pt.idle_bank += t - nf
                        pt.next_free = t = t + ps
                    else:
                        b = pt.idle_bank
                        if b >= ps:
                            pt.idle_bank = b - ps
                            t = t + ps
                        else:
                            pt.idle_bank = 0.0
                            f = nf + (ps - b)
                            floor = t + ps
                            if f < floor:
                                f = floor
                            pt.next_free = t = f
                # Inlined serve_locked (line pass); the phase-local line's
                # busy_time/served are never read, so they are not kept.
                nf = ln.next_free
                if t >= nf:
                    ln.idle_bank += t - nf
                    ln.next_free = now = t + ls
                else:
                    b = ln.idle_bank
                    if b >= ls:
                        ln.idle_bank = b - ls
                        now = t + ls
                    else:
                        ln.idle_bank = 0.0
                        f = nf + (ls - b)
                        floor = t + ls
                        if f < floor:
                            f = floor
                        ln.next_free = now = f
            if now > finish:
                finish = now
            if record:
                for ci, n in Counter(column).items():
                    counts[plans[ci][5]] += n

    # ---- join -----------------------------------------------------------
    ctx.resume(finish, rt.config.costs.task_join)
    if tr is not None:
        # Field-for-field the span Runtime.forall emits for the
        # interpreted ``forall(range(nloc * tpl), body)`` of this phase —
        # the cross-engine trace-equality contract (docs/OBSERVABILITY.md).
        tr.span("forall", t0, ctx.now, tasks=total_tasks, items=total_tasks)


# ---------------------------------------------------------------------------
# EBR pin/defer/unpin phases (epoch_mixed)
# ---------------------------------------------------------------------------


def _narrow_plan(net, cell, locale: int) -> tuple:
    """Lower one real cell's narrow charge from ``locale`` into a replay
    plan ``(latency, point, point_service, line, line_service,
    diag_index)``.

    Token and instance-epoch cells are ``opt_out`` (pure-CPU routes, no
    point); limbo/pool heads are ordinary cells whose local charge rides
    the home NIC under ``ugni``.  The plan holds the real home-level point
    and the cell's own line, so their reservation state carries across
    phases exactly as interpreted charges leave it.
    """
    routes = net.atomic_class_routes(cell.home)
    route = routes[1 if cell.opt_out else 0][net.distance_row(cell.home)[locale]]
    return (
        route.latency,
        route.point,
        route.point_service,
        cell.line,
        route.line_service,
        route.diag_index,
    )


def _instance_target(net, inst, locale: int) -> tuple:
    """What a task on ``locale`` charges and mutates on the EBR manager
    instance ``inst``: ``(limbo head, pool, epoch plan, limbo plan, pool
    plan)``.

    Deferrals go to the limbo list of the *current* locale epoch, constant
    for the whole phase (only root-driven reclaim between phases advances
    it).
    """
    limbo_head = inst.limbo_lists[inst.locale_epoch.peek() - 1]._head
    pool = inst.pool
    return (
        limbo_head,
        pool,
        _narrow_plan(net, inst.locale_epoch, locale),
        _narrow_plan(net, limbo_head, locale),
        _narrow_plan(net, pool._head, locale) if pool is not None else None,
    )


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
    target: tuple,
    tk_plan: tuple,
    now: float,
    counts: List[int],
    record: bool,
) -> float:
    """Replay one task's EBR pin / [defer_delete] / unpin items from ``now``.

    Per item: 3 pin charges (instance-epoch read, token write, revalidation
    read), then for ``is_write[item]`` the deferral (2 reads + pool get +
    limbo exchange), then 1 unpin charge — CPU-priced cache-line passes
    against the instance epoch cell, the task's token slot (``tk_plan``) and
    the pool/limbo heads (``target``, from :func:`_instance_target`).  A
    deferral pops the real pool chain and pushes onto the real limbo chain
    by writing the heads' values directly, and bumps ``pool.allocated`` as
    ``NodePool.get`` does.  Diagnostics go to ``counts``, the caller
    locale's diagnostics row.
    Returns the task clock after its last item.

    This is the engine's hottest loop (4–8 charges per item, millions of
    items per bench run), so each plan is unpacked into locals, each
    charge (latency, optional point pass, line pass) is written out at
    every site, and each pin/unpin serve inlines the
    idle-point fast branch of ``ServicePoint.serve_locked`` (``arrival >=
    next_free``: bank the gap, advance ``next_free``) — the same float ops
    in the same order — calling ``serve_locked`` only when the point is
    queued.
    """
    lm_head, pool, ie_plan, lm_plan, pl_plan = target
    ie_lat, ie_pt, ie_ps, ie_ln, ie_ls, ie_di = ie_plan
    lm_lat, lm_pt, lm_ps, lm_ln, lm_ls, lm_di = lm_plan
    tk_lat, tk_pt, tk_ps, tk_ln, tk_ls, tk_di = tk_plan
    if pool is not None:
        pl_head = pool._head
        pl_lat, pl_pt, pl_ps, pl_ln, pl_ls, pl_di = pl_plan
    for item in items:
        # pin(): inst-epoch read, token write, revalidation read.  The
        # idle branches inline ServicePoint.serve_locked — keep in sync.
        t = now + ie_lat
        if ie_pt is not None:
            if t >= ie_pt.next_free:
                ie_pt.busy_time += ie_ps
                ie_pt.served += 1
                ie_pt.idle_bank += t - ie_pt.next_free
                t += ie_ps
                ie_pt.next_free = t
            else:
                t = ie_pt.serve_locked(t, ie_ps)
        if t >= ie_ln.next_free:
            ie_ln.busy_time += ie_ls
            ie_ln.served += 1
            ie_ln.idle_bank += t - ie_ln.next_free
            now = t + ie_ls
            ie_ln.next_free = now
        else:
            now = ie_ln.serve_locked(t, ie_ls)
        t = now + tk_lat
        if tk_pt is not None:
            if t >= tk_pt.next_free:
                tk_pt.busy_time += tk_ps
                tk_pt.served += 1
                tk_pt.idle_bank += t - tk_pt.next_free
                t += tk_ps
                tk_pt.next_free = t
            else:
                t = tk_pt.serve_locked(t, tk_ps)
        if t >= tk_ln.next_free:
            tk_ln.busy_time += tk_ls
            tk_ln.served += 1
            tk_ln.idle_bank += t - tk_ln.next_free
            now = t + tk_ls
            tk_ln.next_free = now
        else:
            now = tk_ln.serve_locked(t, tk_ls)
        t = now + ie_lat
        if ie_pt is not None:
            if t >= ie_pt.next_free:
                ie_pt.busy_time += ie_ps
                ie_pt.served += 1
                ie_pt.idle_bank += t - ie_pt.next_free
                t += ie_ps
                ie_pt.next_free = t
            else:
                t = ie_pt.serve_locked(t, ie_ps)
        if t >= ie_ln.next_free:
            ie_ln.busy_time += ie_ls
            ie_ln.served += 1
            ie_ln.idle_bank += t - ie_ln.next_free
            now = t + ie_ls
            ie_ln.next_free = now
        else:
            now = ie_ln.serve_locked(t, ie_ls)
        if record:
            counts[ie_di] += 2
            counts[tk_di] += 2  # pin write + unpin write
        if is_write[item]:
            # defer_delete(): pinned check + epoch read ...
            t = now + tk_lat
            if tk_pt is not None:
                t = tk_pt.serve_locked(t, tk_ps)
            now = tk_ln.serve_locked(t, tk_ls)
            t = now + ie_lat
            if ie_pt is not None:
                t = ie_pt.serve_locked(t, ie_ps)
            now = ie_ln.serve_locked(t, ie_ls)
            if record:
                counts[tk_di] += 1
                counts[ie_di] += 1
            # ... then limbo push: pool get + head exchange.
            if pool is not None:
                t = now + pl_lat
                if pl_pt is not None:
                    t = pl_pt.serve_locked(t, pl_ps)
                now = pl_ln.serve_locked(t, pl_ls)
                node = pl_head._value
                if node is None:
                    node = LimboNode()
                    pool.allocated += 1
                    if record:
                        counts[pl_di] += 1
                else:
                    # Non-empty pool: the pop CAS is a second
                    # charge on the pool head.
                    t = now + pl_lat
                    if pl_pt is not None:
                        t = pl_pt.serve_locked(t, pl_ps)
                    now = pl_ln.serve_locked(t, pl_ls)
                    pl_head._value = node.next
                    if record:
                        counts[pl_di] += 2
            else:
                node = LimboNode()
            node.val = objs[item]
            t = now + lm_lat
            if lm_pt is not None:
                t = lm_pt.serve_locked(t, lm_ps)
            now = lm_ln.serve_locked(t, lm_ls)
            node.next = lm_head._value
            lm_head._value = node
            if record:
                counts[lm_di] += 1
        # unpin(): token write (diag counted with pin above).
        t = now + tk_lat
        if tk_pt is not None:
            if t >= tk_pt.next_free:
                tk_pt.busy_time += tk_ps
                tk_pt.served += 1
                tk_pt.idle_bank += t - tk_pt.next_free
                t += tk_ps
                tk_pt.next_free = t
            else:
                t = tk_pt.serve_locked(t, tk_ps)
        if t >= tk_ln.next_free:
            tk_ln.busy_time += tk_ls
            tk_ln.served += 1
            tk_ln.idle_bank += t - tk_ln.next_free
            now = t + tk_ls
            tk_ln.next_free = now
        else:
            now = tk_ln.serve_locked(t, tk_ls)
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
    t0 = ctx.now if tr is not None else 0.0
    start = _forall_prologue(rt, ctx, active, total_tasks)

    diags = net.diags
    record = diags._enabled
    rows = diags._rows
    used_tokens = []

    # ---- replay: spawn-submission order ---------------------------------
    finish = start
    for locale in active:
        chunk = per_locale[locale]
        ntasks = ntasks_by_locale[locale]
        # A locale's pre-registered tokens all lease the same (possibly
        # privatized) manager instance; take it from the token itself so
        # the replay charges exactly the cells the interpreted pin/defer
        # bodies would.
        target = _instance_target(net, tokens[locale][0]._inst, locale)
        for w in range(ntasks):
            task_id = rt._next_task_id()
            tok = tokens[locale][task_id % tpl]
            used_tokens.append(tok)
            tk_plan = _narrow_plan(net, tok.local_epoch, locale)
            now = _ebr_replay_task(
                chunk[w::ntasks], is_write, objs, target, tk_plan,
                start, rows[locale], record,
            )
            if now > finish:
                finish = now

    # ---- join -----------------------------------------------------------
    ctx.resume(finish, rt.config.costs.task_join)
    for tok in used_tokens:
        tok.local_epoch.poke(0)
    if tr is not None:
        # Identical to the interpreted ``forall(items, body, ...)`` span
        # (cross-engine trace-equality contract, docs/OBSERVABILITY.md).
        tr.span("forall", t0, ctx.now, tasks=total_tasks, items=len(items))


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
    t0 = ctx.now if tr is not None else 0.0
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
                                rt, locale, now, task_id, seed_base ^ task_id
                            )
                        tctx.now = now
                        tctx.call(rec._scan, [guard])
                        now = tctx.now
                        # The drain rebinds guard._retired; drop the stale
                        # alias.
                        retired = guard._retired
            if now > finish:
                finish = now

    # ---- join ---------------------------------------------------------
    ctx.resume(finish, rt.config.costs.task_join)
    if tr is not None:
        tr.span("forall", t0, ctx.now, tasks=total_tasks, items=len(items))


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
    shape), the scheduler runs each task start-to-finish in locale
    order — so the replay alternates real excursions with column
    replay per task:

    1. ``em.register()`` runs **for real** under a synthetic task
       context (the free-list pop / token construction charges) — the
       registry, token chains and stats mutate exactly as interpreted;
    2. the per-item pin/retire/unpin stream replays through
       :func:`_ebr_replay_task` against the freshly registered token's
       cells, with ``delete`` standing in for every item's write flag and
       retired objects pushed onto the real limbo chains;
    3. ``unregister()`` runs for real on the task's clock (token write +
       free-list push).

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
    t0 = ctx.now if tr is not None else 0.0
    start = _forall_prologue(rt, ctx, active, total_tasks)

    seed_base = rt.config.seed << 20
    diags = net.diags
    record = diags._enabled
    rows = diags._rows
    is_write = [delete] * num_objects

    finish = start
    for lid in active:
        task_id = rt._next_task_id()
        tctx = TaskContext(rt, lid, start, task_id, seed_base ^ task_id)

        # -- 1. real registration on the task's clock --------------------
        tok = tctx.call(em.register)

        # -- 2. columnar replay of the pin/retire/unpin stream -----------
        tctx.now = _ebr_replay_task(
            range(lid, num_objects, nloc), is_write, objs,
            _instance_target(net, tok._inst, lid),
            _narrow_plan(net, tok.local_epoch, lid),
            tctx.now, rows[lid], record,
        )

        # -- 3. real unregistration --------------------------------------
        tctx.call(tok.unregister)
        if tctx.now > finish:
            finish = tctx.now

    ctx.resume(finish, rt.config.costs.task_join)
    if tr is not None:
        tr.span(
            "forall", t0, ctx.now, tasks=total_tasks, items=num_objects
        )
