"""Execution-engine tests: the scheduler, route tables, counters.

Covers the engine-overhaul invariants:

* ``ServicePoint`` idle-bank edge cases (arrival exactly at the tail,
  zero-service requests, bank exactly consumed).
* Virtual-time determinism: seeded workloads produce bit-identical
  ``timed()`` results and comm totals run-to-run and across worker-pool
  sizes (the one-scheduler contract: the pool size has no effect).
* The scheduler: joins drain one FIFO run queue on the calling thread
  (siblings queued first run first), nested fork/join completes and
  starts no thread, and a task joining its own group fails loudly.
* Diagnostics: exact counts, an in-place reset and single-point
  rejection of unknown op names.
* Charges: the one-step control-plane charges and every atomic type's
  fused charge-and-commit path equal their stepwise references, and
  atomic plans are shared per ``(home, opt_out)``.
"""

from __future__ import annotations

import threading

import pytest

from repro.atomics import (
    AtomicBool,
    AtomicInt64,
    AtomicRef,
    AtomicUInt64,
    AtomicWide128,
)
from repro.comm.counters import CommDiagnostics, CommOp
from repro.core import ABA, AtomicObject, LocalAtomicObject
from repro.core.epoch_manager import EpochManagerStats
from repro.memory import NIL
from repro.runtime import Runtime, RuntimeConfig, ServicePoint
from repro.runtime.context import TaskContext
from repro.runtime.tasking import TaskGroup
from repro.bench.scenarios import get_scenario, run_scenario
from repro.bench.workloads import run_atomic_mix, run_epoch_workload
from repro.errors import RuntimeStateError


# ---------------------------------------------------------------------------
# ServicePoint idle-bank edges
# ---------------------------------------------------------------------------


class TestServicePointEdges:
    def test_arrival_exactly_at_next_free_banks_nothing(self):
        sp = ServicePoint("x")
        assert sp.serve_locked(0.0, 2.0) == 2.0
        # Arrival == next_free: no idle gap to bank, runs immediately.
        assert sp.serve_locked(2.0, 1.0) == 3.0
        assert sp.idle_bank == 0.0
        assert sp.next_free == 3.0

    def test_zero_service_request_is_free_but_counted(self):
        sp = ServicePoint("x")
        assert sp.serve_locked(5.0, 0.0) == 5.0
        assert sp.served == 1
        assert sp.busy_time == 0.0
        # The pre-arrival idle time was banked.
        assert sp.idle_bank == 5.0
        # A zero-service request behind the tail completes at its arrival.
        sp2 = ServicePoint("y")
        sp2.serve_locked(0.0, 4.0)  # tail at 4
        assert sp2.serve_locked(1.0, 0.0) == 1.0

    def test_bank_exactly_equals_service_consumes_bank_not_tail(self):
        sp = ServicePoint("x")
        sp.serve_locked(3.0, 1.0)  # banks 3 idle seconds, tail at 4
        assert sp.idle_bank == 3.0
        # Early arrival wanting exactly the banked capacity: fits in the
        # past gap, tail untouched, bank drained to zero.
        assert sp.serve_locked(0.0, 3.0) == 3.0
        assert sp.idle_bank == 0.0
        assert sp.next_free == 4.0

    def test_bank_deficit_queues_only_the_remainder(self):
        sp = ServicePoint("x")
        sp.serve_locked(2.0, 1.0)  # bank 2, tail 3
        # Early arrival needing 5: 2 from the bank, 3 queued at the tail.
        finish = sp.serve_locked(0.0, 5.0)
        assert finish == 6.0  # tail 3 + deficit 3
        assert sp.idle_bank == 0.0
        assert sp.next_free == 6.0

    def test_saturated_finish_never_precedes_arrival_plus_service(self):
        sp = ServicePoint("x")
        sp.serve_locked(0.0, 1.0)  # tail 1, no bank
        finish = sp.serve_locked(10.0, 2.0)
        assert finish == 12.0  # not 3.0: capacity after the gap is banked
        # ... and a follow-up early arrival can use that banked gap.
        assert sp.idle_bank == 9.0


# ---------------------------------------------------------------------------
# Virtual-time determinism across runs and pool sizes
# ---------------------------------------------------------------------------


def _fig3_sample(pool_size):
    cfg = RuntimeConfig(
        num_locales=4, network="ugni", tasks_per_locale=2, worker_pool_size=pool_size
    )
    rt = Runtime(config=cfg)
    try:
        res = run_atomic_mix(rt, cell="atomic_int", ops_per_task=256, tasks_per_locale=2)
        return res.elapsed, res.comm
    finally:
        rt.close()


def _fig7_sample(pool_size):
    cfg = RuntimeConfig(
        num_locales=4, network="ugni", tasks_per_locale=1, worker_pool_size=pool_size
    )
    rt = Runtime(config=cfg)
    try:
        res = run_epoch_workload(
            rt,
            ops_per_task=256,
            tasks_per_locale=1,
            delete=False,
            reclaim_every=None,
            cleanup_at_end=False,
        )
        return res.elapsed, res.comm
    finally:
        rt.close()


class TestVirtualTimeDeterminism:
    def test_fig3_identical_across_runs(self):
        assert _fig3_sample(2) == _fig3_sample(2)

    def test_fig3_independent_of_pool_size(self):
        assert _fig3_sample(1) == _fig3_sample(3)

    def test_fig7_identical_across_runs(self):
        assert _fig7_sample(2) == _fig7_sample(2)

    def test_fig7_independent_of_pool_size(self):
        assert _fig7_sample(1) == _fig7_sample(4)


def _election_sample(locales, pool, trace):
    """Fig 5's contended shape: every pin/unpin calls ``tryReclaim``, so
    concurrent elections decide ``advances``."""
    spec = get_scenario("paper-reclaim-endonly").with_topology(
        locales=locales,
        network="none",
        tasks_per_locale=1,
        worker_pool_size=pool,
        trace=trace,
    ).with_workload(reclaim_every=1, ops_per_task=16, remote_percent=50)
    result = run_scenario(spec).result
    em = result.extra["em"]
    return result.elapsed, em["advances"], em["reclaim_attempts"]


class TestScheduleDeterminism:
    """One scheduler means schedule-scoped shapes repeat exactly, and
    neither the pool size nor full tracing changes the schedule."""

    @pytest.mark.parametrize("locales", [4, 8])
    def test_elections_repeat_across_pool_sizes_and_trace(self, locales):
        seen = {
            _election_sample(locales, pool, trace)
            for _ in range(2)
            for pool in (1, 4)
            for trace in ("off", "full")
        }
        assert len(seen) == 1

    def test_saturated_hotspot_equals_compiled_replay(self):
        """``hotspot-zipf`` at 64 locales x 2 tasks saturates locale 0's
        NIC; the interpreted run equals the compiled spawn-order replay."""
        base = get_scenario("hotspot-zipf").with_topology(locales=64)
        interpreted = run_scenario(
            base.with_topology(engine="interpreted", worker_pool_size=1)
        ).result.elapsed
        compiled = run_scenario(
            base.with_topology(engine="compiled-strict")
        ).result.elapsed
        assert interpreted == compiled == 0.006364240000001693


# ---------------------------------------------------------------------------
# The scheduler: a FIFO run queue drained by joining tasks
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_join_runs_queued_siblings_before_own_children(self):
        """FIFO: a task joining its children first runs the siblings that
        were queued before them."""
        rt = Runtime(num_locales=3, network="none")
        order = []

        def inner(lid):
            order.append(("inner", rt.here()))

        def outer(lid):
            order.append(("outer", lid))
            if lid == 0:
                rt.coforall_locales(inner, locales=[0, 1])

        rt.run(lambda: rt.coforall_locales(outer))
        assert order == [
            ("outer", 0), ("outer", 1), ("outer", 2), ("inner", 0), ("inner", 1)
        ]

    def test_nested_coforall_starts_no_thread(self):
        rt = Runtime(num_locales=4, network="none")
        before = threading.active_count()
        counts = []

        def inner(lid):
            counts.append(threading.active_count())

        def outer(lid):
            rt.coforall_locales(inner)

        rt.run(lambda: rt.coforall_locales(outer))
        rt.run(lambda: rt.forall(range(64), lambda i: None))
        assert len(counts) == 16
        assert set(counts) == {before}
        assert threading.active_count() == before

    def test_task_joining_its_own_group_raises(self):
        """A join whose group is pending with an empty queue can never
        finish: it raises from ``WorkerPool.wait`` instead of hanging."""
        rt = Runtime(num_locales=2, network="none")
        own, other = TaskGroup(rt), TaskGroup(rt)
        caught = []

        def join_own_group():
            try:
                own.join()
            except RuntimeStateError as exc:
                caught.append(str(exc))

        own.spawn(join_own_group, (), locale_id=0, start_time=0.0)
        other.spawn(lambda: None, (), locale_id=1, start_time=0.0)
        # other's join runs the queued own-task first (FIFO); its join of
        # its own group drains other's task, then finds itself pending.
        other.join()
        assert len(caught) == 1 and "none runnable" in caught[0]

    def test_nested_coforall_completes_on_single_worker(self):
        """Nested fork/join completes: a join runs queued tasks itself, so
        no pool size (``worker_pool_size`` is accepted and ignored) can
        deadlock it."""
        cfg = RuntimeConfig(num_locales=4, network="none", worker_pool_size=1)
        rt = Runtime(config=cfg)
        hits = []
        lock = threading.Lock()

        def inner(lid):
            with lock:
                hits.append(lid)

        def outer(lid):
            rt.coforall_locales(inner)

        rt.run(lambda: rt.coforall_locales(outer))
        assert len(hits) == 16  # 4 outer x 4 inner
        rt.close()

    def test_nested_exception_propagates_through_pool(self):
        cfg = RuntimeConfig(num_locales=2, network="none", worker_pool_size=1)
        rt = Runtime(config=cfg)

        def inner(lid):
            if lid == 1:
                raise KeyError("inner boom")

        def outer(lid):
            rt.coforall_locales(inner)

        with pytest.raises(KeyError):
            rt.run(lambda: rt.coforall_locales(outer))
        rt.close()

    def test_worker_pool_size_validated(self):
        with pytest.raises(ValueError):
            RuntimeConfig(num_locales=2, worker_pool_size=0)
        assert RuntimeConfig(num_locales=2, worker_pool_size=3).worker_pool_size == 3


# ---------------------------------------------------------------------------
# Diagnostics & stats
# ---------------------------------------------------------------------------


class TestCommDiagnostics:
    def test_unknown_op_rejected_in_one_place(self):
        diags = CommDiagnostics(2)
        with pytest.raises(ValueError):
            diags.record(0, "teleport")
        with pytest.raises(ValueError):
            CommDiagnostics.op_index("teleport")
        with pytest.raises(ValueError):
            diags.total("teleport")

    def test_bulk_bytes_accumulate(self):
        diags = CommDiagnostics(1)
        diags.record(0, CommOp.BULK, nbytes=100)
        diags.record(0, CommOp.BULK, nbytes=28)
        t = diags.totals()
        assert t["bulk"] == 2 and t["bulk_bytes"] == 128

    def test_reset_zeroes_every_locale_in_place(self):
        diags = CommDiagnostics(2)
        rows = diags._rows
        diags.record(1, CommOp.PUT)
        diags.record(0, CommOp.GET)
        diags.reset()
        assert all(v == 0 for v in diags.totals().values())
        # Cells hold the matrix itself: reset must not replace it.
        assert diags._rows is rows
        diags.record(0, CommOp.GET)
        assert rows[0][CommDiagnostics.op_index(CommOp.GET)] == 1

    def test_fork_diagnostic_uses_symbolic_op(self):
        """coforall records CommOp.FORK (satellite #2 regression guard)."""
        rt = Runtime(num_locales=3, network="none")
        rt.run(lambda: rt.coforall_locales(lambda lid: None))
        assert rt.comm_totals()["fork"] == 2  # both non-initiating locales
        rt.close()


class TestEpochStats:
    def test_incs_are_exact(self):
        stats = EpochManagerStats()
        for _ in range(4000):
            stats.inc("reclaim_attempts")
        stats.inc("objects_reclaimed", 7)
        d = stats.as_dict()
        assert d["reclaim_attempts"] == 4000
        assert d["objects_reclaimed"] == 7
        assert d["advances"] == 0


# ---------------------------------------------------------------------------
# Route precompilation
# ---------------------------------------------------------------------------


class TestRoutePrecompilation:
    def test_route_tables_cached_per_home(self):
        rt = Runtime(num_locales=2, network="ugni")
        t0 = rt.network.atomic_class_routes(0)
        assert rt.network.atomic_class_routes(0) is t0
        assert rt.network.atomic_class_routes(1) is not t0
        rt.close()


# ---------------------------------------------------------------------------
# Control-plane charges (AMs, forks, allocations)
# ---------------------------------------------------------------------------


def _reference_ctrl(net, ctx, op, home, count=0, rpc=True):
    """The control-plane charges spelled out step by step: a by-name
    diagnostic record, then adding the latency, ``point.serve_locked`` and
    moving to the later time — the recurrence the one-step charges must
    equal."""
    costs = net.costs
    dclass = net.distance_row(home)[ctx.locale_id]
    ctrl = net._ctrl_routes(home)[dclass]

    def message(diag, latency):
        point, cc = ctrl
        net.diags.record(ctx.locale_id, diag)
        ctx.now += latency
        t = point.serve_locked(ctx.now, cc.am_service)
        if t > ctx.now:
            ctx.now = t

    if op in ("fork", "return"):
        if dclass == 0:
            return
        if ctrl is None:
            ctx.now += (
                costs.task_spawn_local if op == "fork" else costs.cpu_load_latency
            )
        elif op == "fork":
            message(CommOp.FORK, ctrl[1].task_spawn_remote)
        else:
            message(CommOp.AM, ctrl[1].am_latency)
    elif op == "am":
        if ctrl is None:
            ctx.now += costs.cpu_load_latency
        else:
            message(CommOp.AM, 2.0 * ctrl[1].am_latency)
    else:
        if rpc and ctrl is not None:
            message(CommOp.AM, 2.0 * ctrl[1].am_latency)
        if op == "alloc":
            ctx.now += costs.alloc_latency
        elif op == "free":
            ctx.now += costs.free_latency
        else:
            ctx.now += costs.free_latency + (count - 1) * costs.bulk_free_per_object


def _one_step_ctrl(net, ctx, op, home, count=0, rpc=True):
    if op == "alloc":
        net.alloc(ctx, home)
    elif op == "free":
        net.free(ctx, home)
    elif op == "bulk_free":
        net.bulk_free(ctx, home, count, rpc=rpc)
    elif op == "am":
        net.am_roundtrip(ctx, home)
    elif op == "fork":
        net.remote_fork(ctx, home)
    else:
        net.remote_return(ctx, home)


_CTRL_OPS = (
    ("alloc", {}),
    ("free", {}),
    ("bulk_free", {"count": 5}),
    ("bulk_free", {"count": 3, "rpc": False}),
    ("am", {}),
    ("fork", {}),
    ("return", {}),
)


def _drive_ctrl(config, charge):
    """Every control-plane op from every source against every home.  The
    source clocks start staggered and advance independently, so arrivals
    at a shared point come out of virtual-time order and every serve
    branch (idle, banked, queued) is taken."""
    rt = Runtime(config=config)
    try:
        net = rt.network
        ctxs = [
            TaskContext(rt, src, src * 1e-7, src)
            for src in range(rt.num_locales)
        ]
        clocks = []
        for _round in range(2):
            for home in range(rt.num_locales):
                for op, kw in _CTRL_OPS:
                    for ctx in ctxs:
                        charge(net, ctx, op, home, **kw)
                        clocks.append(ctx.now)
        points = [
            (p.name, p.next_free, p.idle_bank, p.busy_time, p.served)
            for p in net.nic + net.progress + list(net.uplinks.values())
        ]
        return clocks, points, net.diags.per_locale(), rt.comm_totals()
    finally:
        rt.close()


class TestControlPlaneCharges:
    @pytest.mark.parametrize(
        "config",
        [
            RuntimeConfig(num_locales=4, network="ugni"),
            RuntimeConfig(num_locales=4, network="none"),
            RuntimeConfig(num_locales=8, network="ugni", topology="hier:2x2"),
            RuntimeConfig(num_locales=8, network="none", topology="dragonfly:2"),
        ],
        ids=["flat-ugni", "flat-none", "hier-2x2", "dragonfly-2"],
    )
    def test_one_step_charges_equal_the_stepwise_recurrence(self, config):
        got = _drive_ctrl(config, _one_step_ctrl)
        want = _drive_ctrl(config, _reference_ctrl)
        assert got[0] == want[0]  # every clock reading, bit for bit
        assert got[1] == want[1]  # every point's full state
        assert got[2:] == want[2:]  # per-locale diagnostics, comm totals
        assert any(p[2] > 0.0 for p in got[1])  # the banked branch ran


# ---------------------------------------------------------------------------
# Fused atomic charges (every atomic type, one charge body)
# ---------------------------------------------------------------------------

#: The four machines the charge-equivalence tests drive.
_MACHINES = [
    RuntimeConfig(num_locales=4, network="ugni"),
    RuntimeConfig(num_locales=4, network="none"),
    RuntimeConfig(num_locales=8, network="ugni", topology="hier:2x2"),
    RuntimeConfig(num_locales=8, network="none", topology="dragonfly:2"),
]
_MACHINE_IDS = ["flat-ugni", "flat-none", "hier-2x2", "dragonfly-2"]

#: Plain pointer ops and their ABA variants, shared by both object types.
_PTR_OPS = (
    lambda c: c.read(),
    lambda c: c.write(NIL),
    lambda c: c.exchange(NIL),
    lambda c: c.compare_and_swap(NIL, NIL),
    lambda c: c.compare_exchange(NIL, NIL),
)
_ABA_OPS = (
    lambda c: c.read_aba(),
    lambda c: c.write_aba(NIL),
    lambda c: c.exchange_aba(NIL),
    lambda c: c.compare_and_swap_aba(ABA(NIL, 0), NIL),
)
_REF_OPS = (
    lambda c: c.read(),
    lambda c: c.write(None),
    lambda c: c.exchange(None),
    lambda c: c.compare_and_swap(None, None),
    lambda c: c.compare_exchange(None, None),
)
_BOOL_OPS = (
    lambda c: c.read(),
    lambda c: c.write(True),
    lambda c: c.exchange(False),
    lambda c: c.test_and_set(),
    lambda c: c.clear(),
    lambda c: c.compare_and_swap(False, True),
)
_WIDE_OPS = (
    lambda c: c.read(),
    lambda c: c.write((1, 2)),
    lambda c: c.exchange((0, 0)),
    lambda c: c.compare_and_swap((0, 0), (3, 4)),
    lambda c: c.compare_exchange((3, 4), (0, 0)),
    lambda c: c.bump_exchange_lo(5),
)
_UINT_OPS = (
    lambda c: c.read(),
    lambda c: c.write(4),
    lambda c: c.exchange(6),
    lambda c: c.compare_and_swap(c.peek(), 7),  # succeeds
    lambda c: c.compare_and_swap(c.peek() + 1, 0),  # fails
    lambda c: c.fetch_add(3),
    lambda c: c.add(1),
    lambda c: c.fetch_sub(2),
    lambda c: c.sub(1),
    lambda c: c.fetch_or(6),
    lambda c: c.fetch_and(5),
    lambda c: c.fetch_xor(1),
    lambda c: c.compare_exchange(4, 9),
)


def _atomic_cases(rt, home):
    """``(cell, op, wide, opt_out)`` for every fused atomic op on ``home``;
    ``wide``/``opt_out`` are what ``network.atomic_op`` must be told to
    charge the same route."""
    cases = []
    for mode in ("compressed", "dcas", "descriptor"):
        obj = AtomicObject(rt, locale=home, mode=mode)
        cases += [(obj, op, mode == "dcas", False) for op in _PTR_OPS]
        cases += [(obj, op, True, False) for op in _ABA_OPS]
    local = LocalAtomicObject(rt, locale=home)
    cases += [(local, op, False, True) for op in _PTR_OPS]
    cases += [(local, op, True, True) for op in _ABA_OPS]
    for opt_out in (False, True):
        for make, ops, wide in (
            (AtomicRef, _REF_OPS, False),
            (AtomicBool, _BOOL_OPS, False),
            (AtomicWide128, _WIDE_OPS, True),
            (AtomicUInt64, _UINT_OPS, False),
            (AtomicInt64, _UINT_OPS, False),
        ):
            cell = make(rt, home, opt_out=opt_out)
            cases += [(cell, op, wide, opt_out) for op in ops]
    return cases


def _drive_atomics(config, fused):
    """Every atomic op from every source against every home, charged by
    the cell itself (``fused``) or by the reference ``atomic_op`` on the
    cell's line.  Source clocks start staggered, so arrivals at shared
    points come out of virtual-time order and every serve branch runs."""
    rt = Runtime(config=config)
    try:
        net = rt.network
        ctxs = [
            TaskContext(rt, src, src * 1e-7, src)
            for src in range(rt.num_locales)
        ]
        cases = [c for home in range(rt.num_locales) for c in _atomic_cases(rt, home)]
        clocks = []
        for _round in range(2):
            for cell, op, wide, opt_out in cases:
                for ctx in ctxs:
                    if fused:
                        ctx.call(op, cell)
                    else:
                        net.atomic_op(ctx, cell.home, cell.line, wide=wide, opt_out=opt_out)
                    clocks.append(ctx.now)
        lines = {id(cell): cell.line for cell, *_ in cases}.values()
        # NIC/progress/uplink points keep their full state; a cell line
        # keeps only its recurrence (atomics/cell.py).
        points = [
            (p.name, p.next_free, p.idle_bank, p.busy_time, p.served)
            for p in net.nic + net.progress + list(net.uplinks.values())
        ] + [(ln.name, ln.next_free, ln.idle_bank) for ln in lines]
        return clocks, points, net.diags.per_locale(), rt.comm_totals()
    finally:
        rt.close()


class TestFusedAtomicCharges:
    @pytest.mark.parametrize("config", _MACHINES, ids=_MACHINE_IDS)
    def test_fused_paths_equal_the_reference_atomic_op(self, config):
        got = _drive_atomics(config, fused=True)
        want = _drive_atomics(config, fused=False)
        assert got[0] == want[0]  # every clock reading, bit for bit
        assert got[1] == want[1]  # every point's full state, every line's recurrence
        assert got[2:] == want[2:]  # per-locale diagnostics, comm totals
        assert any(p[2] > 0.0 for p in got[1])  # the banked branch ran

    def test_cells_share_one_plan_per_home_and_opt_out(self):
        rt = Runtime(num_locales=4, network="ugni")
        try:
            net = rt.network
            for home in range(4):
                plain = net.cell_plan(home, False)
                opted = net.cell_plan(home, True)
                assert plain is not opted
                assert AtomicUInt64(rt, home)._plan is plain
                assert AtomicBool(rt, home)._plan is plain
                assert AtomicObject(rt, locale=home)._plan is plain
                assert AtomicRef(rt, home)._plan is opted
                assert LocalAtomicObject(rt, locale=home)._plan is opted
                assert AtomicWide128(rt, home, opt_out=True)._plan is opted
        finally:
            rt.close()
