"""Workload generators mirroring the paper's microbenchmarks.

Two families, matching Section III:

* :func:`run_atomic_mix` — the Figure 3 workload: every task performs a
  fixed number of operations against an array of atomic cells distributed
  cyclically over locales, with the paper's mix of 25% read / 25% write /
  25% compare-and-swap / 25% exchange.  The cell type is selectable:
  Chapel's ``atomic int`` baseline, ``AtomicObject``, or
  ``AtomicObject (ABA)``; so is the target draw, uniform or Zipf-skewed.

* :func:`run_epoch_workload` — the Figures 4–7 workload (the paper's
  Listing 5): pre-allocate ``num_objects`` objects with a controlled
  fraction living on a *remote* locale relative to the task that will
  retire them, then ``forall`` over them with a task-private token doing
  ``pin / [deferDelete] / unpin`` and optionally calling ``tryReclaim``
  every *k* iterations; reclamation frequency and the final cleanup are
  knobs so one generator covers sparse (Fig 4), dense (Fig 5), end-only
  (Fig 6) and read-only (Fig 7) variants.

Both return a :class:`WorkloadResult` with the virtual elapsed seconds and
communication/diagnostic snapshots, which the figure drivers turn into the
paper's series.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.atomic_object import AtomicObject
from ..engine import (
    compiled_plan,
    fast_randbelow,
    mix_column,
    mix_column_fn,
    note_phase,
    run_ebr_epoch_phase,
    run_epoch_workload_phase,
    run_guard_epoch_phase,
    run_uniform_atomic_phase,
    zipf_column_fn,
)
from ..memory.address import NIL, GlobalAddress
from ..reclaim import make_reclaimer
from ..runtime.config import compiled_requested
from ..runtime.runtime import Runtime

__all__ = [
    "WorkloadResult",
    "run_atomic_mix",
    "run_epoch_workload",
    "run_epoch_mixed",
    "run_producer_consumer",
    "run_multi_structure",
]


def _phase_tier(rt: Runtime, kind: str, **shape: Any) -> str:
    """Resolve a phase's execution tier under the runtime's engine.

    Interpreted engines skip the whole machinery (no log entry — nothing
    was asked for).  Compiled engines consult
    :func:`~repro.engine.coverage.compiled_plan` with the runtime's
    reclaimer, resolved trace detail and the workload ``shape``, record
    the effective tier on the runtime's engine log, and — under
    ``compiled-strict`` — raise on any interpreter fallback.
    """
    if not compiled_requested(rt.config.engine):
        return "interpreted"
    tier, reason = compiled_plan(
        kind, reclaimer=rt.config.reclaimer, trace=rt.config.trace, **shape
    )
    return note_phase(rt, kind, tier, reason)


def _policy_wants(rt: Runtime) -> Dict[str, bool]:
    """The resolved policy's fact appetites, as ``compiled_plan`` kwargs.

    A pin- or retire-time-tracking policy (grace — docs/POLICY.md) reads
    virtual-time facts the columnar replay never records (it charges pins
    without calling ``pin()``), so those shapes take the serial tier.
    """
    policy = rt.config.resolved_policy().make_epoch_policy()
    return {
        "wants_pin_times": policy.wants_pin_times,
        "wants_retire_times": policy.wants_retire_times,
    }


def _reclaimer_for(rt: Runtime, manager_kwargs: Optional[Dict[str, Any]] = None):
    """The runtime-configured reclaimer for a workload.

    ``manager_kwargs`` are :class:`~repro.core.epoch_manager.EpochManager`
    ablation knobs (``use_election``/``use_scatter``/``epoch_cycle``) and
    therefore require the ``"ebr"`` scheme — rejected with a clear error
    otherwise, instead of an opaque ``TypeError`` from another scheme's
    constructor.  On the default (``"ebr"``) configuration this is
    exactly the ``EpochManager`` the generators used to build directly.
    """
    scheme = rt.config.reclaimer
    if manager_kwargs and scheme != "ebr":
        raise ValueError(
            f"manager_kwargs {sorted(manager_kwargs)} are EpochManager"
            f" (ebr) ablation knobs; the runtime is configured with"
            f" reclaimer={scheme!r}"
        )
    return make_reclaimer(rt, scheme, **(manager_kwargs or {}))


@dataclass
class WorkloadResult:
    """Outcome of one workload execution on one runtime configuration."""

    #: Virtual seconds for the timed region (the paper's y-axis).
    elapsed: float
    #: Total simulated operations issued by all tasks.
    operations: int
    #: Communication totals (GETs/PUTs/AMOs/AMs/forks/bulk).
    comm: Dict[str, int] = field(default_factory=dict)
    #: Extra per-workload diagnostics (epoch-manager stats, etc.).
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def ops_per_second(self) -> float:
        """Throughput in simulated op/s."""
        return self.operations / self.elapsed if self.elapsed > 0 else float("inf")


# ---------------------------------------------------------------------------
# Figure 3: atomic-operation mix
# ---------------------------------------------------------------------------


def run_atomic_mix(
    rt: Runtime,
    *,
    cell: str,
    ops_per_task: int,
    tasks_per_locale: int = 1,
    num_cells: Optional[int] = None,
    zipf_exponent: Optional[float] = None,
) -> WorkloadResult:
    """Run the 25/25/25/25 read/write/CAS/exchange mix of Figure 3.

    ``cell`` is one of ``"atomic_int"``, ``"atomic_object"`` or
    ``"atomic_object_aba"``.  Cells are distributed cyclically; each task
    targets a deterministic pseudo-random cell per operation, so with more
    locales the remote fraction rises exactly as on a real Cyclic array.
    ``num_cells`` defaults to ``max(64, 2 * tasks)``.

    Without ``zipf_exponent`` the target is uniform over the cells.  With
    it, cell *ranks* are drawn from a truncated Zipf distribution with
    that exponent, so a handful of cells — and, because cells are
    distributed cyclically, a handful of *locales*, locale 0 hottest —
    absorb most of the traffic (``extra["hot_cell_share"]`` is rank 0's
    probability).  Under ``ugni`` the hot locale's NIC pipeline is the
    contended resource; under ``none`` it is the progress thread serving
    active messages, which saturates far sooner.
    """
    if cell not in ("atomic_int", "atomic_object", "atomic_object_aba"):
        raise ValueError(f"unknown atomic-mix cell kind {cell!r}")
    nloc = rt.num_locales
    ntasks = nloc * tasks_per_locale
    ncells = num_cells if num_cells is not None else max(64, 2 * ntasks)
    if ncells < 1:
        raise ValueError(f"num_cells must be >= 1, got {ncells}")
    extra: Dict[str, Any] = {}
    if zipf_exponent is None:
        kind = "atomic_mix"
        column_fn = mix_column_fn(ops_per_task, ncells)
        column_key: tuple = ("mix", ops_per_task, ncells)
    else:
        if zipf_exponent <= 0:
            raise ValueError(f"zipf_exponent must be > 0, got {zipf_exponent}")
        # Truncated-Zipf cumulative weights over cell ranks; one
        # rng.random() draw + bisect per op keeps the stream deterministic
        # per task.
        cdf: List[float] = []
        acc = 0.0
        for rank in range(ncells):
            acc += 1.0 / ((rank + 1) ** zipf_exponent)
            cdf.append(acc)
        total_w = cdf[-1]
        extra["hot_cell_share"] = cdf[0] / total_w
        kind = "atomic_hotspot"
        column_fn = zipf_column_fn(ops_per_task, cdf, total_w)
        column_key = ("zipf", ops_per_task, ncells, zipf_exponent)

    def result(t) -> WorkloadResult:
        return WorkloadResult(
            elapsed=t.elapsed,
            operations=ntasks * ops_per_task,
            comm=rt.comm_totals(),
            extra=extra,
        )

    if _phase_tier(rt, kind) == "columnar":
        # Compiled lowering: every variant's op stream is one cell draw
        # per op, so the phase replays from target columns alone (shared
        # across cell kinds through the compilation cache — the draw
        # stream is kind-independent).  Cells and operand objects are
        # never materialized — creating them charges nothing, and nothing
        # observes them after the phase.  The integer mix charges one
        # narrow route per op; the object bodies charge the cycle-
        # dependent ``(1, 1, 2, 1)`` pattern (their CAS case is a read
        # plus a CAS on the same cell) on the narrow (plain) or wide
        # (ABA) route row.  Full-detail tracing takes the documented
        # interpreter fallback (docs/OBSERVABILITY.md): the replay does
        # not emit per-op events.
        def main_compiled() -> WorkloadResult:
            if cell != "atomic_int":
                # The interpreted object bodies allocate two operand
                # objects per locale on the *root* clock before the
                # measured window; replaying those alloc charges keeps
                # the timed window's float base — and hence elapsed —
                # bit-identical.
                ctx = rt._own_context()
                for lid in range(nloc):
                    rt.network.alloc(ctx, lid)
                    rt.network.alloc(ctx, lid)
            rt.reset_measurements()
            with rt.timed() as t:
                run_uniform_atomic_phase(
                    rt,
                    homes=[i % nloc for i in range(ncells)],
                    tasks_per_locale=tasks_per_locale,
                    column_fn=column_fn,
                    op_charges=None if cell == "atomic_int" else (1, 1, 2, 1),
                    route_row=2 if cell == "atomic_object_aba" else 0,
                    column_key=column_key,
                )
            return result(t)

        return rt.run(main_compiled)

    def task_draw() -> Callable[[], int]:
        """This task's per-op cell draw, on the task's own RNG stream."""
        rng = rt._own_context().rng
        if zipf_exponent is None:
            return partial(fast_randbelow(rng), ncells)
        uniform = rng.random
        return lambda: bisect_left(cdf, uniform() * total_w)

    def main() -> WorkloadResult:
        if cell == "atomic_int":
            cells = [rt.atomic_int(0, locale=i % nloc) for i in range(ncells)]
        else:
            aba = cell == "atomic_object_aba"
            cells = [
                AtomicObject(rt, locale=i % nloc, aba_protection=aba)
                for i in range(ncells)
            ]
            # Pre-allocate two target objects per cell's locale to swap
            # between (the paper's workload swaps class instances).
            operands = [
                [rt.new_obj(object(), locale=lid) for _ in range(2)]
                for lid in range(nloc)
            ]

        # One body per cell kind, dispatched *outside* the per-op loop: the
        # op stream (one draw per op, 4-op cycle) is identical across
        # variants, so virtual time and comm counts don't depend on which
        # body runs — but the hot loop carries no per-op string compares.
        def body_int(task_idx: int) -> None:
            draw = task_draw()
            # The 4-op mix cycles deterministically with op_i, so unroll it:
            # same cell draws, same operands, no per-op dispatch.
            whole = ops_per_task & ~3
            for op_i in range(0, whole, 4):
                cells[draw()].read()
                cells[draw()].write(op_i + 1)
                cells[draw()].compare_and_swap(0, op_i + 2)
                cells[draw()].exchange(op_i + 3)
            for op_i in range(whole, ops_per_task):
                c = cells[draw()]
                op = op_i & 3
                if op == 0:
                    c.read()
                elif op == 1:
                    c.write(op_i)
                elif op == 2:
                    c.compare_and_swap(0, op_i)
                else:
                    c.exchange(op_i)

        def body_aba(task_idx: int) -> None:
            draw = task_draw()
            for op_i in range(ops_per_task):
                c = cells[draw()]
                op = op_i & 3
                target = operands[c.home][op_i & 1]
                if op == 0:
                    c.read_aba()
                elif op == 1:
                    c.write_aba(target)
                elif op == 2:
                    snap = c.read_aba()
                    c.compare_and_swap_aba(snap, target)
                else:
                    c.exchange_aba(target)

        def body_obj(task_idx: int) -> None:
            draw = task_draw()
            for op_i in range(ops_per_task):
                c = cells[draw()]
                op = op_i & 3
                target = operands[c.home][op_i & 1]
                if op == 0:
                    c.read()
                elif op == 1:
                    c.write(target)
                elif op == 2:
                    expected = c.read()
                    c.compare_and_swap(expected, target)
                else:
                    c.exchange(target)

        if cell == "atomic_int":
            body = body_int
        elif cell == "atomic_object_aba":
            body = body_aba
        else:
            body = body_obj

        rt.reset_measurements()
        with rt.timed() as t:
            # owner_of is omitted: the default cyclic distribution is
            # exactly idx % num_locales, without a per-item callback.
            rt.forall(range(ntasks), body, tasks_per_locale=tasks_per_locale)
        return result(t)

    return rt.run(main)


# ---------------------------------------------------------------------------
# Figures 4-7: epoch-manager workloads (paper Listing 5)
# ---------------------------------------------------------------------------


def _place_objects(
    rt: Runtime, items: Sequence[int], remote_percent: int
) -> List[GlobalAddress]:
    """Allocate one object per item on the root task, before the timed region.

    Item ``i`` is iterated by the task on locale ``i % nloc``; with
    probability ``remote_percent`` its object lives on another locale
    instead (guaranteed remote), drawn from one seeded placement stream.
    The allocations are one :meth:`Runtime.new_objs` call on every engine:
    the charges land on the root clock before the timed window, so they
    fix the window's float base and hence ``elapsed`` to the ulp.
    """
    nloc = rt.num_locales
    # The draws are randrange(100) and randrange(nloc - 1) with
    # ``Random._randbelow``'s body written out, as ``mix_column`` does:
    # ``getrandbits(k)`` redrawn while ``>= n``, so the bit stream is the
    # same without a Python frame per draw.
    getrandbits = random.Random(rt.config.seed ^ 0x9E3779B9).getrandbits
    others = nloc - 1
    k_others = others.bit_length()
    targets: List[int] = []
    append = targets.append
    for i in items:
        owner = i % nloc
        if nloc > 1:
            r = getrandbits(7)  # k = (100).bit_length()
            while r >= 100:
                r = getrandbits(7)
            if r < remote_percent:
                r = getrandbits(k_others)
                while r >= others:
                    r = getrandbits(k_others)
                append((owner + 1 + r) % nloc)
                continue
        append(owner)
    return rt.new_objs(targets)


class _TaskState:
    """Listing 5's task intents: a token plus the `M` counter.

    Module level on purpose: a class object is always cyclic, so one
    built per call would keep the whole machine alive until the cyclic
    GC ran.
    """

    __slots__ = ("tok", "m")

    def __init__(self, em: Any) -> None:
        self.tok = em.register()
        self.m = 0

    def close(self) -> None:  # forall auto-cleanup hook
        self.tok.unregister()


def run_epoch_workload(
    rt: Runtime,
    *,
    ops_per_task: int,
    tasks_per_locale: int = 1,
    remote_percent: int = 0,
    delete: bool = True,
    reclaim_every: Optional[int] = None,
    cleanup_at_end: bool = True,
    manager_kwargs: Optional[Dict[str, Any]] = None,
) -> WorkloadResult:
    """Run the Listing 5 microbenchmark.

    Parameters
    ----------
    remote_percent:
        Percentage (0/50/100) of objects allocated on a locale *different*
        from the task that retires them — the Figures 4–6 x-axis variant.
    delete:
        When False the body only pins/unpins (Figure 7's read-only
        workload).
    reclaim_every:
        Call ``tok.tryReclaim()`` every this-many iterations (1024 for
        Figure 4, 1 for Figure 5, ``None`` = never, as in Figures 6/7).
    cleanup_at_end:
        Include ``manager.clear()`` in the timed region (Figure 6's
        "reclamation only performed at end" and general teardown).
    """
    if not (0 <= remote_percent <= 100):
        raise ValueError("remote_percent must be within [0, 100]")
    nloc = rt.num_locales
    ntasks = nloc * tasks_per_locale
    num_objects = ntasks * ops_per_task

    def main() -> WorkloadResult:
        em = _reclaimer_for(rt, manager_kwargs)

        # Compiled lowering (docs/ENGINE.md): with one task per locale and
        # no mid-phase ``tryReclaim`` the per-item charge stream is fixed,
        # so under EBR the forall replays columnar — in-task
        # register/unregister run for real on the replayed task clocks.
        # ``reclaim_every`` (scan elections, which the replay does not
        # model) and >1 task per locale (in-forall token registration)
        # fall back; other schemes and a pin/retire-time-tracking policy
        # take the serial tier (the real bodies, exact facts).
        tier = _phase_tier(
            rt,
            "epoch",
            tasks_per_locale=tasks_per_locale,
            reclaim_every=reclaim_every,
            **_policy_wants(rt),
        )

        # Pre-allocate the objects *outside* the timed region (the paper
        # randomizes placement before the loop).
        if delete:
            objs = _place_objects(rt, range(num_objects), remote_percent)
        else:
            objs = [NIL] * num_objects  # placeholders; body ignores them

        def body(item_idx: int, st: _TaskState) -> None:
            tok = st.tok
            tok.pin()
            if delete:
                tok.defer_delete(objs[item_idx])
            tok.unpin()
            if reclaim_every is not None:
                st.m += 1
                if st.m % reclaim_every == 0:
                    tok.try_reclaim()

        rt.reset_measurements()
        with rt.timed() as t:
            if tier == "columnar":
                run_epoch_workload_phase(
                    rt,
                    em=em,
                    objs=objs,
                    num_objects=num_objects,
                    delete=delete,
                )
            else:
                # owner_of omitted: default cyclic distribution == idx % nloc.
                rt.forall(
                    range(num_objects),
                    body,
                    task_init=lambda: _TaskState(em),
                    tasks_per_locale=tasks_per_locale,
                )
            if cleanup_at_end:
                em.clear()
        stats = em.stats()
        leftovers = em.pending_count()
        if not cleanup_at_end:
            em.clear()
        return WorkloadResult(
            elapsed=t.elapsed,
            operations=num_objects,
            comm=rt.comm_totals(),
            extra={
                "em": stats,
                "reclaimer": rt.config.reclaimer,
                "pending_after": leftovers,
            },
        )

    return rt.run(main)


# ---------------------------------------------------------------------------
# Scenario workloads (beyond the paper's grid; see repro.bench.scenarios)
# ---------------------------------------------------------------------------
#
# Determinism contract: every generator below, and `run_atomic_mix`
# above, produces virtual-time and comm-diagnostic results that are
# bit-identical across repeated runs.  The runtime's one scheduler
# (repro.runtime.tasking) makes that true of any program.  The rules
# below make a stronger property true at the registered scenario sizes:
# the result does not depend on the ORDER in which tasks run.  The
# columnar replay needs that to lower a phase, and a seeded interleaving
# scheduler would permute the order.  Relaxing a rule changes registered
# workloads and their baselines, so every new generator follows them:
#
# * fixed operation streams — per-task op counts and targets come from the
#   seeded task RNG or precomputed tables, never from values another task
#   wrote (CAS *outcomes* may differ between task orders, but the cost
#   charged per attempt is route-determined and the attempt count is fixed);
# * no unbounded retry loops against state another task mutates — shared
#   structures are driven by exactly one task at a time (phase-exclusive
#   ownership), so their internal CAS loops always succeed first try (a
#   loop waiting for another task would also never end: tasks run to
#   completion);
# * `tryReclaim` only from the root task at phase boundaries (a concurrent
#   election/scan is decided by which task runs first — measured directly
#   in tests/test_scenarios.py).
#   The same discipline covers every scheme in repro.reclaim: QSBR/IBR
#   reclamation and quiescent-point announcements are root-driven via
#   `phase_boundary()` + `try_reclaim()`, and hazard-pointer threshold
#   scans are sound mid-phase only because structure ownership is
#   phase-exclusive (no other guard's hazard slots can ever name an
#   address this guard retired, so scan outcomes are order-independent);
# * token registration outside the timed region — `register`/`unregister`
#   are lock-free CAS loops over a shared per-locale free list, charged per
#   *attempt*, so registering from inside a `forall` with several workers
#   per locale costs an order-dependent amount (see :class:`_TokenBank`);
# * with MORE than one worker per locale, reclaim only at the END: a
#   locale's workers saturate shared service points (limbo-list heads, hot
#   atomic cells), and the *split* of a saturated point's state between
#   `next_free` and its idle bank follows task arrival order.  A
#   mid-workload root scan touching those lines converts that hidden
#   residue into virtual-time differences in later contended rounds; as
#   the final phase before the measurement ends it is harmless, because
#   nothing consults the banks afterwards.  With one worker per locale no
#   line ever saturates from two tasks, so phase-boundary reclamation is
#   order-independent.  Per-phase finish times are order-independent
#   only while saturation stays shallow: every registered scenario is,
#   but `hotspot-zipf` at 64 locales x 2 tasks is not (real-thread
#   orders gave five elapsed values, 0.005011-0.006364 s; the spawn
#   order gives 0.006364 s).


class _TokenBank:
    """Pre-registered tokens, handed to worker tasks at zero virtual cost.

    The root task registers ``per_locale`` tokens on every locale (via
    ``rt.on``, outside the timed region), so the allocated-token set — and
    with it the cost of every ``tryReclaim`` scan — is fixed for the whole
    workload.  A worker task picks its token by ``task_id % per_locale``:
    task ids are assigned in spawn-submission order, ``forall`` spawns a
    locale's workers with consecutive ids, and the selection itself
    charges no virtual time — so *which* token (which cache line) each
    worker's pins hammer does not depend on task order.  A pop-order
    hand-off here would tie the worker-to-line mapping, and with it the
    service-point interleavings, to the order tasks run in.

    Scheme-generic: ``em`` is any reclaimer implementing the guard
    protocol (:mod:`repro.reclaim`); the bank stores whatever
    ``register()`` returns.
    """

    def __init__(self, rt: Runtime, em, per_locale: int) -> None:
        self._rt = rt
        self._per_locale = per_locale
        self._tokens: List[List[Any]] = []
        for lid in range(rt.num_locales):
            with rt.on(lid):
                self._tokens.append([em.register() for _ in range(per_locale)])

    def task_init(self) -> "_TokenSlot":
        """Factory suitable for ``forall(task_init=...)``."""
        return _TokenSlot(self)


class _TokenSlot:
    """One worker task's token lease from a :class:`_TokenBank`."""

    __slots__ = ("tok",)

    def __init__(self, bank: _TokenBank) -> None:
        ctx = bank._rt._own_context()
        self.tok = bank._tokens[ctx.locale_id][ctx.task_id % bank._per_locale]


def _check_phased_reclaim(
    tasks_per_locale: int, rounds: int, reclaim_between_rounds: bool
) -> None:
    """Reject the combination the determinism notes above forbid.

    Mid-workload root reclamation with more than one worker per locale
    makes virtual time depend on task order (saturated-line idle-bank
    residue); fail fast instead of registering an order-dependent
    workload.
    """
    if reclaim_between_rounds and tasks_per_locale > 1 and rounds > 1:
        raise ValueError(
            "reclaim_between_rounds requires tasks_per_locale == 1 when"
            " rounds > 1: a mid-workload root scan after a phase where"
            " several workers shared a locale is not deterministic (see the"
            " determinism notes in repro.bench.workloads); use"
            " reclaim_between_rounds=False (end-only reclamation) instead"
        )


def run_epoch_mixed(
    rt: Runtime,
    *,
    ops_per_task: int,
    tasks_per_locale: int = 1,
    write_percent: int = 25,
    remote_percent: int = 0,
    rounds: int = 1,
    reclaim_between_rounds: bool = True,
    manager_kwargs: Optional[Dict[str, Any]] = None,
) -> WorkloadResult:
    """Mixed pin/deferDelete traffic: a read-write ratio over Listing 5.

    Every iteration pins and unpins; ``write_percent`` percent of them
    (chosen by a seeded table, so the stream is deterministic) also retire
    an object.  The iteration space is split into ``rounds`` consecutive
    ``forall`` phases with a root-task ``tryReclaim`` between phases —
    reclamation interleaves with ongoing traffic at epoch granularity
    without the order-dependent election races a concurrent in-loop
    ``tryReclaim`` would introduce.
    """
    if not (0 <= write_percent <= 100):
        raise ValueError("write_percent must be within [0, 100]")
    if not (0 <= remote_percent <= 100):
        raise ValueError("remote_percent must be within [0, 100]")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    _check_phased_reclaim(tasks_per_locale, rounds, reclaim_between_rounds)
    nloc = rt.num_locales
    ntasks = nloc * tasks_per_locale
    num_items = ntasks * ops_per_task

    table_rng = random.Random(rt.config.seed ^ 0x5DEECE66D)
    # One randrange(100) draw per item, through the inline draw (opstream).
    is_write = [
        r < write_percent for r in mix_column(table_rng, num_items, 100)
    ]

    def main() -> WorkloadResult:
        em = _reclaimer_for(rt, manager_kwargs)

        # Every scheme's pin/defer/unpin round has a fixed charge stream
        # (no mid-phase epoch/era/interval advances — reclamation is
        # root-driven between rounds).  EBR rounds replay against the
        # token/limbo/pool cells and HP rounds against the guard buffers
        # (threshold scans run real — see repro.engine.executor); QSBR
        # and IBR rounds take the serial tier.  So does a pin- or
        # retire-time-tracking policy (grace — docs/POLICY.md): the
        # columnar replay charges pins without calling ``pin()``, so the
        # virtual-time facts the policy's decisions read would be missing;
        # the serial tier runs the real bodies and records them exactly.  Full-detail
        # tracing stays the documented interpreter fallback
        # (docs/OBSERVABILITY.md): no tier emits per-op events.
        tier = _phase_tier(rt, "epoch_mixed", **_policy_wants(rt))

        alloc_idx = [i for i in range(num_items) if is_write[i]]
        objs: List[GlobalAddress] = [NIL] * num_items
        for i, addr in zip(
            alloc_idx, _place_objects(rt, alloc_idx, remote_percent)
        ):
            objs[i] = addr

        bank = _TokenBank(rt, em, tasks_per_locale)

        def body(item_idx: int, st: "_TokenSlot") -> None:
            tok = st.tok
            tok.pin()
            if is_write[item_idx]:
                tok.defer_delete(objs[item_idx])
            tok.unpin()

        # Round bounds are aligned to the locale count so that item i is
        # always iterated by locale (i % nloc) — the invariant the object
        # placement above (remote_percent) is defined against.
        bounds = [num_items * r // rounds // nloc * nloc for r in range(rounds)]
        bounds.append(num_items)
        scheme = rt.config.reclaimer
        advances = 0
        rt.reset_measurements()
        with rt.timed() as t:
            for r in range(rounds):
                chunk = range(bounds[r], bounds[r + 1])
                if len(chunk) == 0:
                    continue
                if tier == "columnar" and scheme == "ebr":
                    run_ebr_epoch_phase(
                        rt,
                        items=chunk,
                        is_write=is_write,
                        objs=objs,
                        tokens=bank._tokens,
                        tokens_per_locale=tasks_per_locale,
                    )
                elif tier == "columnar":
                    run_guard_epoch_phase(
                        rt,
                        items=chunk,
                        is_write=is_write,
                        objs=objs,
                        guards=bank._tokens,
                        guards_per_locale=tasks_per_locale,
                    )
                else:
                    rt.forall(
                        chunk,
                        body,
                        task_init=bank.task_init,
                        tasks_per_locale=tasks_per_locale,
                    )
                if reclaim_between_rounds and r + 1 < rounds:
                    em.phase_boundary()
                    if em.try_reclaim():
                        advances += 1
            em.clear()
        return WorkloadResult(
            elapsed=t.elapsed,
            operations=num_items,
            comm=rt.comm_totals(),
            extra={
                "em": em.stats(),
                "reclaimer": rt.config.reclaimer,
                "writes": sum(is_write),
                "root_advances": advances,
            },
        )

    return rt.run(main)


def _churn_partners(rt: Runtime, ntasks: int, pairing: str) -> List[int]:
    """The consume-phase partner permutation for :func:`run_producer_consumer`.

    Always a bijection over slots, so every structure keeps exactly one
    mutator per phase (the determinism discipline above).  Computed from
    locale ids and the topology only — never from runtime state — so the
    mapping is identical on every run.

    * ``"ring"`` — slot *i* drains slot *i+1* (the legacy shape).
    * ``"near"`` — the candidate permutation (adjacent-pair involution or
      any uniform rotation) that *minimizes* total topology distance —
      rack-affine placement: on ``hier`` shapes with sibling locales the
      involution wins (drain your coherent socket sibling); on shapes
      with no coherent siblings the closest available rung wins instead
      of silently pretending to be socket-local.  An odd slot count
      leaves the involution's last slot draining its own (most local)
      structure.
    * ``"far"`` — the uniform rotation that *maximizes* total topology
      distance (smallest offset wins ties, so flat topologies reduce to
      the ring): deliberately anti-local cross-node/cross-group traffic.
    """
    if pairing == "ring":
        return [(i + 1) % ntasks for i in range(ntasks)]
    if pairing not in ("near", "far"):
        raise ValueError(
            f"unknown churn pairing {pairing!r}; expected one of"
            f" ['far', 'near', 'ring']"
        )
    nloc = rt.num_locales
    topo = rt.network.topology

    def total_distance(partners: List[int]) -> int:
        return sum(
            topo.distance(i % nloc, partners[i] % nloc) for i in range(ntasks)
        )

    if pairing == "near":
        involution = list(range(ntasks))
        for i in range(0, ntasks - 1, 2):
            involution[i], involution[i + 1] = i + 1, i
        candidates = [involution] + [
            [(i + d) % ntasks for i in range(ntasks)]
            for d in range(1, ntasks)
        ]
        return min(candidates, key=total_distance)
    # "far": rotations only (the involution can never beat the best
    # rotation at maximizing, and rotations keep the traffic a cycle).
    best, best_score = [(i + 1) % ntasks for i in range(ntasks)], -1
    for d in range(1, ntasks):
        candidate = [(i + d) % ntasks for i in range(ntasks)]
        score = total_distance(candidate)
        if score > best_score:
            best, best_score = candidate, score
    return best


def run_producer_consumer(
    rt: Runtime,
    *,
    structure: str = "queue",
    items_per_task: int,
    tasks_per_locale: int = 1,
    rounds: int = 2,
    reclaim_between_rounds: bool = True,
    pairing: str = "ring",
) -> WorkloadResult:
    """Producer-consumer churn over the non-blocking queue or stack.

    One structure per task slot, homed on the slot's locale and run in the
    plain-CAS mode (``aba_protection=False``) under EBR — the RDMA fast
    path the paper builds the reclamation system to enable.  Each round
    has a produce phase (slot *i* fills its own, locale-local structure)
    and a consume phase (slot *i* drains its partner's structure — remote
    CAS/GET traffic), with retirement of unlinked nodes deferred through
    task tokens.  ``pairing`` picks the consumer-to-producer mapping (see
    :func:`_churn_partners`): the legacy ring, topology-``near``
    (rack-affine: drain your socket sibling), or topology-``far``
    (anti-local: drain across the uplinks).  Phases are separate
    ``forall`` joins, so every structure has exactly one mutator at a
    time: churn comes from allocation / retirement / address reuse, not
    from order-dependent CAS races.
    """
    from ..structures.msqueue import LockFreeQueue
    from ..structures.treiber_stack import LockFreeStack

    if structure not in ("queue", "stack"):
        raise ValueError(f"unknown churn structure {structure!r}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    _check_phased_reclaim(tasks_per_locale, rounds, reclaim_between_rounds)
    nloc = rt.num_locales
    ntasks = nloc * tasks_per_locale
    partners = _churn_partners(rt, ntasks, pairing)

    def main() -> WorkloadResult:
        em = _reclaimer_for(rt)
        if structure == "queue":
            structs = [
                LockFreeQueue(rt, locale=i % nloc, aba_protection=False)
                for i in range(ntasks)
            ]
        else:
            structs = [
                LockFreeStack(rt, locale=i % nloc, aba_protection=False)
                for i in range(ntasks)
            ]

        bank = _TokenBank(rt, em, tasks_per_locale)

        def produce(slot: int, st: "_TokenSlot") -> None:
            tok = st.tok
            s = structs[slot]
            if structure == "queue":
                for v in range(items_per_task):
                    tok.pin()
                    s.enqueue(v, tok)
                    tok.unpin()
            else:
                for v in range(items_per_task):
                    tok.pin()
                    s.push(v)
                    tok.unpin()

        def consume(slot: int, st: "_TokenSlot") -> None:
            tok = st.tok
            s = structs[partners[slot]]
            if structure == "queue":
                for _ in range(items_per_task):
                    tok.pin()
                    s.try_dequeue(tok)
                    tok.unpin()
            else:
                for _ in range(items_per_task):
                    tok.pin()
                    s.try_pop(tok)
                    tok.unpin()

        # Structure traversals are value-dependent (CAS loops over live
        # heads), so churn never lowers to columns: the compiled engine
        # runs the whole timed region on the serial tier (the real task
        # bodies; see repro.engine.coverage).
        tier = _phase_tier(rt, "churn")
        advances = 0
        rt.reset_measurements()
        with rt.timed() as t:
            for _ in range(rounds):
                rt.forall(
                    range(ntasks),
                    produce,
                    task_init=bank.task_init,
                    tasks_per_locale=tasks_per_locale,
                )
                rt.forall(
                    range(ntasks),
                    consume,
                    task_init=bank.task_init,
                    tasks_per_locale=tasks_per_locale,
                )
                if reclaim_between_rounds:
                    em.phase_boundary()
                    if em.try_reclaim():
                        advances += 1
            em.clear()
        return WorkloadResult(
            elapsed=t.elapsed,
            operations=2 * ntasks * items_per_task * rounds,
            comm=rt.comm_totals(),
            extra={
                "em": em.stats(),
                "reclaimer": rt.config.reclaimer,
                "root_advances": advances,
                "pairing": pairing,
            },
        )

    return rt.run(main)


def run_multi_structure(
    rt: Runtime,
    *,
    ops_per_slot: int,
    tasks_per_locale: int = 1,
    rounds: int = 1,
    reclaim_between_rounds: bool = True,
    hash_buckets: int = 16,
) -> WorkloadResult:
    """Combined traffic: stack + queue + hash table sharing one manager.

    Each task slot drives its own trio of structures (stack and queue in
    plain-CAS mode, an :class:`InterlockedHashTable` slice of buckets
    spread over every locale) through a fixed op cycle under a pinned
    token, all retiring into one shared :class:`EpochManager` — the
    "many structures, one reclamation domain" deployment shape the paper
    argues for.  Epochs advance from the root between rounds.
    """
    from ..structures.interlocked_hash_table import InterlockedHashTable
    from ..structures.msqueue import LockFreeQueue
    from ..structures.treiber_stack import LockFreeStack

    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    _check_phased_reclaim(tasks_per_locale, rounds, reclaim_between_rounds)
    nloc = rt.num_locales
    ntasks = nloc * tasks_per_locale

    def main() -> WorkloadResult:
        em = _reclaimer_for(rt)
        stacks = [
            LockFreeStack(rt, locale=i % nloc, aba_protection=False)
            for i in range(ntasks)
        ]
        queues = [
            LockFreeQueue(rt, locale=i % nloc, aba_protection=False)
            for i in range(ntasks)
        ]
        tables = [
            InterlockedHashTable(
                rt, buckets=hash_buckets, reclaimer=em, aba_protection=False
            )
            for i in range(ntasks)
        ]

        bank = _TokenBank(rt, em, tasks_per_locale)
        key_space = max(1, hash_buckets * 2)

        def body(slot: int, st: "_TokenSlot") -> None:
            tok = st.tok
            stack, queue, table = stacks[slot], queues[slot], tables[slot]
            for k in range(ops_per_slot):
                key = k % key_space
                tok.pin()
                stack.push(k)
                queue.enqueue(k, tok)
                table.put(key, k, tok)
                stack.pop(tok)
                queue.dequeue(tok)
                if k & 1:
                    table.remove(key, tok)
                tok.unpin()

        ops_per_cycle = 5  # push/enqueue/put/pop/dequeue (+remove on odds)
        total_ops = ntasks * rounds * (
            ops_per_slot * ops_per_cycle + ops_per_slot // 2
        )

        # Hand-over-hand bucket walks and structure CAS loops keep this
        # off the columnar tier; the serial tier (the real task bodies)
        # covers it for the compiled engines (see repro.engine.coverage).
        tier = _phase_tier(rt, "multi_structure")
        advances = 0
        rt.reset_measurements()
        with rt.timed() as t:
            for _ in range(rounds):
                rt.forall(
                    range(ntasks),
                    body,
                    task_init=bank.task_init,
                    tasks_per_locale=tasks_per_locale,
                )
                if reclaim_between_rounds:
                    em.phase_boundary()
                    if em.try_reclaim():
                        advances += 1
            em.clear()
        return WorkloadResult(
            elapsed=t.elapsed,
            operations=total_ops,
            comm=rt.comm_totals(),
            extra={
                "em": em.stats(),
                "reclaimer": rt.config.reclaimer,
                "root_advances": advances,
            },
        )

    return rt.run(main)
