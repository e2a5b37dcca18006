"""The compiled-engine executor: ``forall`` phases with replay task bodies.

A compiled phase is a ``forall``
--------------------------------
Each columnar phase is one :meth:`Runtime._forall_tasks
<repro.runtime.runtime.Runtime._forall_tasks>` call — the task level of
``Runtime.forall`` — whose task body is a tight replay loop instead of
the interpreted per-item body.  The item split, task ids and seeds, the
spawn-tree start time, the join and the ``forall`` trace span are the
runtime's own; a phase replaces only what one task does with its items.
The body finds its task in the runtime's ``_ctx`` slot: the locale, the
clock (``ctx.now``, read at entry and written back at exit) and the task
id (which token or guard the task leases; which column it replays).
Real code a replayed task runs mid-phase — the hazard-pointer threshold
``_scan``, Listing 5's in-task ``em.register()`` / ``tok.unregister()``
— runs directly on that task.

Why the replay is bit-identical
-------------------------------
A replay body issues the charges the interpreted body would, in the same
order, against the same cells and service points: each lowered phase has
a fixed charge stream per item.  It charges the real points through
``ServicePoint.serve_locked`` (the hottest sites inline its recurrence
float-op for float-op — same operations, same order, same rounding) and
counts diagnostics straight into the runtime's diagnostics matrix, so it
skips the per-op route lookup, context lookups and dispatch.  The
scheduler runs the phase's tasks one at a time in spawn order, exactly
as it runs the interpreted ones.

Mutating in place
-----------------
A runtime is used by one thread (docs/ENGINE.md, "One thread per
runtime") and a task runs to completion, so nothing else touches the
service points, cells, limbo chains or token epoch slots while a replay
body runs; it mutates them directly and keeps no private copy of that
state.  Every serve of a NIC, progress-thread or uplink point updates its
``busy_time`` and ``served`` in task order too, so they match the
interpreted schedule bit for bit.  A cell's line keeps only its
recurrence (``next_free``, ``idle_bank``), as ``ChargedWord._enter``'s
inline serve does: no report reads a line's ``busy_time`` or ``served``.
"""

from __future__ import annotations

from collections import Counter
from random import Random
from typing import Any, Iterable, List, Optional, Sequence

from ..core.limbo_list import LimboNode
from ..errors import RuntimeStateError
from ..runtime.clock import ServicePoint
from ..runtime.tasking import task_seed
from .cache import COLUMN_CACHE

__all__ = [
    "run_alloc_phase",
    "run_uniform_atomic_phase",
    "run_ebr_epoch_phase",
    "run_guard_epoch_phase",
    "run_epoch_workload_phase",
]


def run_alloc_phase(rt, targets: Sequence[int]) -> List[Any]:
    """``rt.new_objs(targets)``; nothing in the package calls it.

    Placement is one runtime call on every engine.  The repository
    benchmark's host tracer still wraps this name, so it stays as a
    delegate until the benchmark drops it.
    """
    return rt.new_objs(targets)


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
    """Run one ``forall(range(nloc * tpl), body)`` of uniform atomic ops
    with a replay task body.

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

    The columns are drawn ahead of the tasks, all at once, from the seeds
    the tasks themselves carry (:func:`~repro.runtime.tasking.task_seed`
    of the task id); the phase's task ids are consecutive in spawn order.
    ``column_key`` enables the cross-run compilation cache: the columns
    are memoized in :data:`~repro.engine.cache.COLUMN_CACHE` keyed by
    ``(column_key, seed, first task id, task count)`` and shared across
    ``--repeats`` and grid-runner runtimes.

    The cells themselves are *virtual*: each gets a fresh line
    ``ServicePoint()`` — workload cells are phase-local and nothing
    observes them afterwards.  The real shared points on the routes (NIC
    pipelines, progress threads, uplinks) are charged in place.
    """
    net = rt.network
    nloc = rt.num_locales
    tpl = tasks_per_locale
    seed = rt.config.seed
    total_tasks = nloc * tpl

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
    locale_plans: List[Optional[list]] = [None] * nloc
    rows = net.diags._rows
    columns: Optional[List[list]] = None

    def replay(task_items: Sequence[int]) -> None:
        nonlocal columns
        ctx = rt._ctx
        locale = ctx.locale_id
        # One item per task: task w of locale l holds item l + w * nloc,
        # and tasks are spawned locale by locale, so this is the task's
        # spawn index.
        ti = locale * tpl + task_items[0] // nloc
        if columns is None:
            first = ctx.task_id - ti

            def build() -> List[list]:
                return [
                    column_fn(Random(task_seed(seed, first + i)))
                    for i in range(total_tasks)
                ]

            if column_key is None:
                columns = build()
            else:
                columns = COLUMN_CACHE.get_or_build(
                    (column_key, seed, first, total_tasks), build
                )
        plans = locale_plans[locale]
        if plans is None:
            plans = locale_plans[locale] = [
                cell_plans[row[locale]]
                for cell_plans, row in zip(class_plans, dist_rows)
            ]
        column = columns[ti]
        if op_charges is not None:
            column = _expand_op_cycle(column, op_charges)
        now = ctx.now
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
        ctx.now = now
        counts = rows[locale]
        for ci, n in Counter(column).items():
            counts[plans[ci][5]] += n

    rt._forall_tasks(range(total_tasks), replay, tpl)


# ---------------------------------------------------------------------------
# EBR pin/defer/unpin phases (epoch_mixed)
# ---------------------------------------------------------------------------


def _cpu_plan(net, cell, locale: int) -> tuple:
    """Lower one real cell's narrow charge from ``locale`` into a replay
    plan ``(latency, line, line_service, diag_index)``.

    The EBR replay's cells — the instance epoch, the task's token slot,
    the limbo and pool heads — are all ``opt_out`` and are charged only
    from their instance's home locales (the instance's own locale or its
    coherence-domain siblings), so their routes have no service point,
    and :func:`_ebr_replay_task` serves only their lines.  The plan holds
    the cell's own line, so its reservation state carries across phases
    exactly as interpreted charges leave it.  Raises
    :class:`~repro.errors.RuntimeStateError` naming the cell if a point
    appears.
    """
    routes = net.atomic_class_routes(cell.home)
    route = routes[1 if cell.opt_out else 0][net.distance_row(cell.home)[locale]]
    if route.point is not None:
        raise RuntimeStateError(
            f"compiled EBR replay: cell {cell.name!r} charges service point"
            f" {route.point.name!r} from locale {locale}; the replay serves"
            " only its cache line"
        )
    return route.latency, cell.line, route.line_service, route.diag_index


def _instance_target(net, tok, locale: int) -> tuple:
    """What a task on ``locale`` charges and mutates on the EBR manager
    instance that token ``tok`` leases: ``(limbo head, pool, epoch plan,
    limbo plan, pool plan)``, each plan from :func:`_cpu_plan`.

    Deferrals go to the limbo list of the *current* locale epoch, constant
    for the whole phase (only root-driven reclaim between phases advances
    it).  The instance's lists share one node pool (or none).
    """
    epoch = tok._inst_epoch
    limbo = tok._limbo_lists[epoch.peek() - 1]
    limbo_head = limbo._head
    pool = limbo._pool
    return (
        limbo_head,
        pool,
        _cpu_plan(net, epoch, locale),
        _cpu_plan(net, limbo_head, locale),
        _cpu_plan(net, pool._head, locale) if pool is not None else None,
    )


def _ebr_replay_task(
    items: Iterable[int],
    is_write: Sequence[bool],
    objs: Sequence[Any],
    target: tuple,
    tk_plan: tuple,
    now: float,
    counts: List[int],
) -> float:
    """Replay one task's EBR pin / [defer_delete] / unpin items from ``now``.

    Per item: 3 pin charges (instance-epoch read, token write, revalidation
    read), then for ``is_write[item]`` the deferral (2 reads + pool get +
    limbo exchange), then 1 unpin charge — CPU-priced cache-line passes
    against the instance epoch cell, the task's token slot (``tk_plan``,
    from :func:`_cpu_plan`) and the pool/limbo heads (``target``, from
    :func:`_instance_target`).  A deferral pops the real pool chain and
    pushes onto the real limbo chain by writing the heads' values
    directly, and bumps ``pool.allocated`` as ``NodePool.get`` does.
    Diagnostics go to ``counts``, the caller locale's diagnostics row.
    Returns the task clock after its last item.

    This is the engine's hottest loop (4–8 charges per item, millions of
    items per bench run), so each plan is unpacked into locals, each
    charge (latency, line pass) is written out at every site, and each
    pin/unpin line serve inlines the idle branch of
    ``ServicePoint.serve_locked`` (``arrival >= next_free``: bank the gap,
    advance ``next_free``) — the same float ops in the same order, and,
    like ``ChargedWord._enter``, only the line's recurrence —
    calling ``serve_locked`` only when the line is queued.
    """
    lm_head, pool, ie_plan, lm_plan, pl_plan = target
    ie_lat, ie_ln, ie_ls, ie_di = ie_plan
    lm_lat, lm_ln, lm_ls, lm_di = lm_plan
    tk_lat, tk_ln, tk_ls, tk_di = tk_plan
    if pool is not None:
        pl_head = pool._head
        pl_lat, pl_ln, pl_ls, pl_di = pl_plan
    for item in items:
        # pin(): inst-epoch read, token write, revalidation read.  The
        # idle branches inline ServicePoint.serve_locked — keep in sync.
        t = now + ie_lat
        if t >= ie_ln.next_free:
            ie_ln.idle_bank += t - ie_ln.next_free
            now = t + ie_ls
            ie_ln.next_free = now
        else:
            now = ie_ln.serve_locked(t, ie_ls)
        t = now + tk_lat
        if t >= tk_ln.next_free:
            tk_ln.idle_bank += t - tk_ln.next_free
            now = t + tk_ls
            tk_ln.next_free = now
        else:
            now = tk_ln.serve_locked(t, tk_ls)
        t = now + ie_lat
        if t >= ie_ln.next_free:
            ie_ln.idle_bank += t - ie_ln.next_free
            now = t + ie_ls
            ie_ln.next_free = now
        else:
            now = ie_ln.serve_locked(t, ie_ls)
        counts[ie_di] += 2
        counts[tk_di] += 2  # pin write + unpin write
        if is_write[item]:
            # defer_delete(): pinned check + epoch read ...
            now = tk_ln.serve_locked(now + tk_lat, tk_ls)
            now = ie_ln.serve_locked(now + ie_lat, ie_ls)
            counts[tk_di] += 1
            counts[ie_di] += 1
            # ... then limbo push: pool get + head exchange.
            if pool is not None:
                now = pl_ln.serve_locked(now + pl_lat, pl_ls)
                node = pl_head._value
                if node is None:
                    node = LimboNode()
                    pool.allocated += 1
                    counts[pl_di] += 1
                else:
                    # Non-empty pool: the pop CAS is a second
                    # charge on the pool head.
                    now = pl_ln.serve_locked(now + pl_lat, pl_ls)
                    pl_head._value = node.next
                    counts[pl_di] += 2
            else:
                node = LimboNode()
            node.val = objs[item]
            now = lm_ln.serve_locked(now + lm_lat, lm_ls)
            node.next = lm_head._value
            lm_head._value = node
            counts[lm_di] += 1
        # unpin(): token write (diag counted with pin above).
        t = now + tk_lat
        if t >= tk_ln.next_free:
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
    """Run one round of ``run_epoch_mixed`` under the EBR manager.

    The interpreted round is ``forall(items, body,
    task_init=bank.task_init)`` where the body pins, defer-deletes
    ``objs[item]`` when ``is_write[item]``, and unpins.  The charge
    stream per item is fixed (no mid-phase epoch advances — reclamation
    is root-driven between rounds), so each task's items replay through
    :func:`_ebr_replay_task` against the pre-registered token the
    interpreted task would lease (``tokens[locale][task_id %
    tokens_per_locale]``) and the manager instance that token leases.
    """
    net = rt.network
    rows = net.diags._rows

    def replay(task_items: Sequence[int]) -> None:
        ctx = rt._ctx
        locale = ctx.locale_id
        tok = tokens[locale][ctx.task_id % tokens_per_locale]
        ctx.now = _ebr_replay_task(
            task_items, is_write, objs,
            _instance_target(net, tok, locale),
            _cpu_plan(net, tok.local_epoch, locale),
            ctx.now, rows[locale],
        )

    rt._forall_tasks(items, replay, tokens_per_locale)


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
    """Run one round of ``run_epoch_mixed`` under hazard pointers.

    The interpreted round is ``forall(items, body,
    task_init=bank.task_init)`` where the body pins, defer-deletes
    ``objs[item]`` when ``is_write[item]``, and unpins, against
    pre-registered HP guards.  Pin/unpin are free (no hazard slots are
    published by this body) and a retire is one ``cpu_load_latency``
    advance plus a zero-tagged append, but crossing ``scan_threshold``
    runs the *real* ``_scan`` on the task: hazard reads (aggregated or
    not), drains and frees are value-dependent and charge exactly as
    interpreted, continuing this task's clock.

    Retired entries are appended to the **real** guard buffers, so the
    interpreted ``phase_boundary``/``try_reclaim``/``clear`` calls
    between rounds scan, drain and free exactly the state an interpreted
    phase leaves.
    """
    cpu_load = rt.config.costs.cpu_load_latency

    def replay(task_items: Sequence[int]) -> None:
        ctx = rt._ctx
        guard = guards[ctx.locale_id][ctx.task_id % guards_per_locale]
        rec = guard._rec
        retired = guard._retired
        threshold = rec.scan_threshold
        now = ctx.now
        for item in task_items:
            if is_write[item]:
                now += cpu_load
                retired.append((objs[item], 0))
                if len(retired) >= threshold:
                    ctx.now = now
                    rec._scan([guard])
                    now = ctx.now
                    # The drain rebinds guard._retired; drop the stale
                    # alias.
                    retired = guard._retired
        ctx.now = now

    rt._forall_tasks(items, replay, guards_per_locale)


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
    """Run ``run_epoch_workload``'s ``forall`` (one task per locale, EBR)
    with a replay task body.

    The interpreted body registers a token *inside* the task
    (``task_init``), pins / optionally retires / unpins per item, and
    unregisters on task exit.  With one task per locale (the gated
    shape), each replayed task:

    1. calls ``em.register()`` for real (the free-list pop / token
       construction charges) — the registry, token chains and stats
       mutate exactly as interpreted;
    2. replays its pin/retire/unpin stream through
       :func:`_ebr_replay_task` against the freshly registered token's
       cells, with ``delete`` standing in for every item's write flag and
       retired objects pushed onto the real limbo chains;
    3. calls ``unregister()`` for real (token write + free-list push).

    Interpreted code afterwards (``em.clear()``, stats) sees exactly the
    state an interpreted phase leaves.
    """
    net = rt.network
    rows = net.diags._rows
    is_write = [delete] * num_objects

    def replay(task_items: Sequence[int]) -> None:
        tok = em.register()
        ctx = rt._ctx
        lid = ctx.locale_id
        ctx.now = _ebr_replay_task(
            task_items, is_write, objs,
            _instance_target(net, tok, lid),
            _cpu_plan(net, tok.local_epoch, lid),
            ctx.now, rows[lid],
        )
        tok.unregister()

    rt._forall_tasks(range(num_objects), replay, 1)
