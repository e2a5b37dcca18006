"""The network model: routing and charging every PGAS operation.

This is the single choke point between algorithm code and the simulated
interconnect.  Given the runtime's :class:`~repro.runtime.config.NetworkType`,
:class:`~repro.comm.costs.CostModel` and
:class:`~repro.comm.topology.Topology`, it decides for each operation

1. which *latency class* applies (CPU atomic / NIC atomic / active message /
   RDMA data) — a function of the operation, the network flavour, and the
   **distance class** between the issuing locale and the home locale,
2. which *serial resources* the operation occupies (the target locale's NIC
   pipeline, its progress thread, its node/group's shared uplink, and the
   target cache line), and
3. which diagnostic counter to bump.

Routing rules for the flat (default) topology, straight from the paper:

=====================  =======================  ==========================
operation              ``ugni``                 ``none``
=====================  =======================  ==========================
64-bit atomic, local   NIC atomic (incoherent!) CPU atomic
64-bit atomic, remote  NIC (RDMA) atomic        active message round trip
128-bit DCAS, local    CPU ``CMPXCHG16B``       CPU ``CMPXCHG16B``
128-bit DCAS, remote   active message           active message
GET/PUT, local         CPU load/store           CPU load/store
GET/PUT, remote        RDMA                     RDMA
remote fork (``on``)   active message           active message
=====================  =======================  ==========================

The 128-bit row is why the paper's ``AtomicObject (ABA)`` cannot use the
RDMA fast path: no interconnect offers a 16-byte network atomic.

Multi-level topologies refine the "remote" column per distance class
(see :mod:`repro.comm.topology` and docs/TOPOLOGY.md): a ``coherent``
peer (same socket) pays CPU prices with no serial network resource, a
``nic`` peer (same node) rides the NIC fabric, and an ``am``/uplink peer
(cross-node, cross-group) pays scaled active-message prices through a
*shared* uplink service point.  A 128-bit DCAS against a coherent peer is
still a CPU ``CMPXCHG16B`` — coherence is exactly what a wide CAS needs.

Because every input to a routing decision is fixed at construction time,
the table above is *precompiled*: each home locale gets a per-distance-
class :class:`~repro.comm.routes.AtomicRoute` table (rows: narrow-plain,
narrow-opt-out and wide — a DCAS ignores opt-out; columns: distance
classes) plus one
:class:`~repro.comm.routes.DataRoute` per (transfer class, distance
class), built lazily on first use and cached for the runtime's life.
Under the flat topology the class rows hold the legacy 8-entry (wide,
opt_out, local) cube, verified entry-by-entry against the branchy
reference compile (:meth:`_compile_legacy_atomic_table`) in
tests/test_topology.py.  Atomic cells charge through one memoised
:class:`~repro.comm.routes.CellPlan` per (home, opt_out)
(:meth:`cell_plan`), then commit their value change.  The other hot
paths (:meth:`read`, :meth:`write`, :meth:`bulk`, and the control-plane
AM/fork/alloc/free charges) are straight-line: one distance-row index,
one precompiled diagnostic bump, one or two service-point passes.
:meth:`atomic_op` keeps the branchy reference semantics as a thin
wrapper over the same tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..errors import LocaleError
from ..runtime.clock import ServicePoint
from .aggregation import UplinkAggregator
from .costs import CostModel
from .counters import CommDiagnostics, CommOp
from .routes import AtomicRoute, CellPlan, DataRoute, atomic_route_index
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.config import RuntimeConfig
    from ..runtime.context import TaskContext

__all__ = ["NetworkModel"]

#: Precompiled diagnostic indices of the control-plane charges.
_AM = CommDiagnostics.op_index(CommOp.AM)
_FORK = CommDiagnostics.op_index(CommOp.FORK)


class NetworkModel:
    """Charges virtual time and counts operations for one runtime instance."""

    def __init__(self, config: RuntimeConfig) -> None:
        self.config = config
        self.costs: CostModel = config.costs
        #: The interconnect shape (distance classes over locale pairs).
        self.topology: Topology = config.resolved_topology()
        #: Per-locale NIC pipelines (serialize RDMA atomics & data ops).
        self.nic: List[ServicePoint] = [
            ServicePoint(f"nic[{i}]") for i in range(config.num_locales)
        ]
        #: Per-locale progress threads (serialize active messages).
        self.progress: List[ServicePoint] = [
            ServicePoint(f"progress[{i}]") for i in range(config.num_locales)
        ]
        #: Shared uplink service points, one per topology uplink group —
        #: only materialized when some distance class declares one (the
        #: flat topology has none).
        self.uplinks: dict = {}
        if any(c.shared_uplink for c in self.topology.classes):
            groups = {
                self.topology.uplink_group(lid)
                for lid in range(config.num_locales)
            }
            self.uplinks = {
                g: ServicePoint(f"uplink[{g}]") for g in sorted(groups)
            }
        #: Operation counters, bucketed by initiating locale.
        self.diags = CommDiagnostics(config.num_locales)
        #: Full-detail trace recorder (docs/OBSERVABILITY.md), or None —
        #: the common case.  Installed by :meth:`install_tracer` when the
        #: runtime's trace detail is ``full``; charge sites then emit one
        #: ``op`` event per operation.  When None the only added cost per
        #: charge is the attribute check.
        self._tracer = None
        #: The validated message-aggregation window for this machine.
        self.aggregation = config.resolved_aggregation()
        # Per-distance-class cost models: the base model with only the
        # network-facing fields scaled by the class's link factor.  Scale
        # 1.0 returns the base object itself, keeping flat-topology routes
        # bit-identical to the legacy compile.
        self._class_costs: Tuple[CostModel, ...] = tuple(
            self.costs.network_scaled(c.scale) for c in self.topology.classes
        )
        #: Which classes are communication-free (self or CPU-coherent).
        self._coherent_class: Tuple[bool, ...] = tuple(
            i == 0 or c.transport == "coherent"
            for i, c in enumerate(self.topology.classes)
        )
        # Precompiled route caches, one slot per home locale, filled on
        # first use (a 2**16-locale machine should not pay for 2**16
        # tables up front).
        nloc = config.num_locales
        self._dist_rows: List[Optional[Tuple[int, ...]]] = [None] * nloc
        self._class_tables: List[
            Optional[Tuple[Tuple[AtomicRoute, ...], ...]]
        ] = [None] * nloc
        self._get_routes: List[Optional[Tuple[Optional[DataRoute], ...]]] = [None] * nloc
        self._put_routes: List[Optional[Tuple[Optional[DataRoute], ...]]] = [None] * nloc
        self._bulk_routes: List[Optional[Tuple[Optional[DataRoute], ...]]] = [None] * nloc
        self._ctrl_tables: List[Optional[tuple]] = [None] * nloc
        # Two fused cell plans per home: slot ``2 * home + opt_out``.
        self._cell_plans: List[Optional[CellPlan]] = [None] * (2 * nloc)
        # Scalars lifted out of the hot paths.
        self._cpu_load_latency = self.costs.cpu_load_latency
        self._bulk_byte_cost = self.costs.rdma_byte_cost
        #: The coalescing layer for same-uplink operation batches (see
        #: :mod:`repro.comm.aggregation`).  Inert — every call degenerates
        #: to the legacy per-op path — when the window is 1 or the
        #: topology has no shared uplinks.  The window is owned by the
        #: machine's window policy (docs/POLICY.md): static by default,
        #: adaptive under ``policy = "adaptive:lo..hi"``.
        self.aggregator = UplinkAggregator(
            self,
            self.aggregation,
            config.resolved_policy().make_window_policy(self.aggregation.window),
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def install_tracer(self, tracer) -> None:
        """Install a full-detail trace recorder on every charge site and
        ServicePoint (called once, at Runtime construction, when
        ``config.trace == "full"``).  Atomic-cell lines pick the recorder
        up from ``runtime._full_tracer`` at cell construction."""
        self._tracer = tracer
        for p in self.nic:
            p._tracer = tracer
        for p in self.progress:
            p._tracer = tracer
        for p in self.uplinks.values():
            p._tracer = tracer

    # ------------------------------------------------------------------
    # topology plumbing
    # ------------------------------------------------------------------
    def distance_row(self, home: int) -> Tuple[int, ...]:
        """Distance class of every source locale against ``home`` (cached).

        Cells fetch this once at construction; the hot paths index it by
        the issuing locale id — the only per-operation topology cost.
        This is the one row cache: it lives with the runtime, and builds
        each row once with the topology's closed-form
        ``build_distance_row``.  The topology
        itself caches nothing — it belongs to the config, which a
        scenario spec keeps for as long as it lives.
        """
        row = self._dist_rows[home]
        if row is None:
            row = self._dist_rows[home] = self.topology.build_distance_row(home)
        return row

    def is_coherent(self, src: int, dst: int) -> bool:
        """True when ``src`` reaches ``dst`` without a network message
        (the same locale, or a peer in the same CPU-coherence domain)."""
        return self._coherent_class[self.distance_row(dst)[src]]

    def spawn_broadcast_cost(self, src: int, targets) -> float:
        """Per-hop cost of a spawn tree rooted at ``src`` spanning
        ``targets``: ``task_spawn_remote`` scaled by the *worst* distance
        class the broadcast crosses (a tree spanning a dragonfly's
        degraded inter-group links pays the degraded per-hop price).  A
        tree that never leaves ``src``'s coherence domain spawns over
        shared memory — ``task_spawn_local`` per hop, matching
        :meth:`remote_fork`'s pricing (and no-FORK accounting) for the
        same peers.  Class 0 keeps the legacy ``task_spawn_remote``
        constant: the pre-topology engine charged it for every spawn tree
        regardless of locality, and the flat baselines pin that."""
        # distance(src, target) orientation — rows are keyed by target.
        worst = max(
            (self.distance_row(t)[src] for t in targets), default=0
        )
        if worst and self._coherent_class[worst]:
            return self.costs.task_spawn_local
        return self._class_costs[worst].task_spawn_remote

    def _class_point(
        self, class_index: int, home: int, *, am_path: bool
    ) -> ServicePoint:
        """The serial resource class ``class_index`` ops against ``home``
        occupy: the shared uplink when the class declares one, else the
        home's NIC pipeline (``am_path=False``) or progress thread."""
        if self.topology.classes[class_index].shared_uplink:
            return self.uplinks[self.topology.uplink_group(home)]
        return (self.progress if am_path else self.nic)[home]

    # ------------------------------------------------------------------
    # route compilation
    # ------------------------------------------------------------------
    def atomic_class_routes(
        self, home: int
    ) -> Tuple[Tuple[AtomicRoute, ...], ...]:
        """The per-distance-class atomic route table for ``home``.

        Three rows — ``[narrow-plain, narrow-opt-out, wide]`` (row index
        ``2 if wide else (1 if opt_out else 0)``; a wide DCAS is never a
        NIC op, so it ignores opt_out) — each a tuple with one
        :class:`AtomicRoute` per distance class, class 0 being the home
        locale itself.  Cells fetch the rows for their own ``opt_out``
        once at construction and index them with their home's distance
        row.
        """
        table = self._class_tables[home]
        if table is None:
            table = self._compile_class_routes(home)
            self._class_tables[home] = table
        return table

    def _compile_class_routes(
        self, home: int
    ) -> Tuple[Tuple[AtomicRoute, ...], ...]:
        idx = CommDiagnostics.op_index
        local_amo = idx(CommOp.LOCAL_AMO)
        amo = idx(CommOp.AMO)
        am = idx(CommOp.AM)
        ugni = self.config.uses_network_atomics

        narrow_plain: List[AtomicRoute] = []
        narrow_opt: List[AtomicRoute] = []
        wide: List[AtomicRoute] = []
        for ci, cls in enumerate(self.topology.classes):
            cc = self._class_costs[ci]
            cpu = AtomicRoute(
                local_amo, cc.cpu_atomic_latency, None, 0.0, cc.cpu_atomic_service
            )
            dcas_cpu = AtomicRoute(
                local_amo, cc.cpu_dcas_latency, None, 0.0, cc.cpu_dcas_service
            )
            transport = cls.transport
            if transport == "local":
                # The issuing locale itself: under ugni even a local narrow
                # atomic rides the NIC (network atomics are not coherent
                # with CPU atomics); under none it is a plain CPU atomic.
                if ugni:
                    narrow = AtomicRoute(
                        local_amo,
                        cc.nic_atomic_local_latency,
                        self.nic[home],
                        cc.nic_atomic_service,
                        cc.nic_atomic_service,
                    )
                else:
                    narrow = cpu
                narrow_plain.append(narrow)
                narrow_opt.append(cpu)
                wide.append(dcas_cpu)
                continue
            if transport == "coherent":
                # Same CPU coherence domain: CPU prices, no network
                # resource — and a wide CAS is still a local CMPXCHG16B.
                narrow_plain.append(cpu)
                narrow_opt.append(cpu)
                wide.append(dcas_cpu)
                continue
            # Genuinely networked classes.  "remote" follows the flavour
            # ("nic" under ugni, "am" under none); an explicit "nic"
            # demotes to "am" when the network offers no atomics.
            effective = transport
            if effective == "remote":
                effective = "nic" if ugni else "am"
            elif effective == "nic" and not ugni:
                effective = "am"
            am_route = AtomicRoute(
                am,
                2.0 * cc.am_latency,
                self._class_point(ci, home, am_path=True),
                cc.am_service,
                cc.cpu_atomic_service,
            )
            if effective == "nic":
                narrow_plain.append(
                    AtomicRoute(
                        amo,
                        cc.nic_atomic_remote_latency,
                        self._class_point(ci, home, am_path=False),
                        cc.nic_atomic_service,
                        cc.nic_atomic_service,
                    )
                )
            else:
                narrow_plain.append(am_route)
            # Opting out removes the NIC detour, not physics: a networked
            # access to an opted-out atomic still pays the AM price.
            narrow_opt.append(am_route)
            # Remote DCAS = remote execution: round trip through the
            # class's serial point, then the line.
            wide.append(
                AtomicRoute(
                    am,
                    2.0 * cc.am_latency,
                    self._class_point(ci, home, am_path=True),
                    cc.am_service,
                    cc.cpu_dcas_service,
                )
            )
        # ``wide`` ignores opt_out entirely (a DCAS is never a NIC op).
        return (tuple(narrow_plain), tuple(narrow_opt), tuple(wide))

    def cell_plan(self, home: int, opt_out: bool) -> CellPlan:
        """The fused charge plan of every atomic on ``home`` with this
        ``opt_out`` (compiled once, shared by all such cells).

        See :mod:`repro.atomics.cell` for how a cell runs it: reserve
        the home-level point, reserve the line, then commit the value.
        Every cell passes through here once, at construction, so this is
        where an out-of-range ``home`` is rejected — before it could index
        (and poison) another home's slot.
        """
        nloc = len(self._dist_rows)
        if not 0 <= home < nloc:
            raise LocaleError(f"locale {home} out of range [0, {nloc})")
        slot = 2 * home + (1 if opt_out else 0)
        plan = self._cell_plans[slot]
        if plan is None:
            plan = self._cell_plans[slot] = self._compile_cell_plan(home, opt_out)
        return plan

    def _compile_cell_plan(self, home: int, opt_out: bool) -> CellPlan:
        rows = self.atomic_class_routes(home)

        def steps(routes) -> Tuple[tuple, ...]:
            return tuple(
                (
                    route.diag_index,
                    route.latency,
                    None if route.point is None else route.point.serve_locked,
                    route.point_service,
                    route.line_service,
                )
                for route in routes
            )

        # Only AtomicObject charges the wide route, and it never opts out.
        return CellPlan(
            self.distance_row(home),
            steps(rows[1] if opt_out else rows[0]),
            None if opt_out else steps(rows[2]),
        )

    def _compile_legacy_atomic_table(self, home: int) -> Tuple[AtomicRoute, ...]:
        """The pre-topology branchy compile, kept as the reference the
        flat per-class compile is verified against (entry by entry) in
        tests/test_topology.py.  Not used on any production path."""
        c = self.costs
        idx = CommDiagnostics.op_index
        local_amo = idx(CommOp.LOCAL_AMO)
        amo = idx(CommOp.AMO)
        am = idx(CommOp.AM)
        progress = self.progress[home]
        nic = self.nic[home]

        cpu_local = AtomicRoute(
            local_amo, c.cpu_atomic_latency, None, 0.0, c.cpu_atomic_service
        )
        cpu_remote = AtomicRoute(
            am, 2.0 * c.am_latency, progress, c.am_service, c.cpu_atomic_service
        )
        dcas_local = AtomicRoute(
            local_amo, c.cpu_dcas_latency, None, 0.0, c.cpu_dcas_service
        )
        dcas_remote = AtomicRoute(
            am, 2.0 * c.am_latency, progress, c.am_service, c.cpu_dcas_service
        )
        if self.config.uses_network_atomics:
            narrow_local = AtomicRoute(
                local_amo,
                c.nic_atomic_local_latency,
                nic,
                c.nic_atomic_service,
                c.nic_atomic_service,
            )
            narrow_remote = AtomicRoute(
                amo,
                c.nic_atomic_remote_latency,
                nic,
                c.nic_atomic_service,
                c.nic_atomic_service,
            )
        else:
            narrow_local = cpu_local
            narrow_remote = cpu_remote
        table: List[Optional[AtomicRoute]] = [None] * 8
        for wide in (False, True):
            for opt_out in (False, True):
                if wide:
                    remote, local = dcas_remote, dcas_local
                elif opt_out:
                    remote, local = cpu_remote, cpu_local
                else:
                    remote, local = narrow_remote, narrow_local
                table[atomic_route_index(wide, opt_out, False)] = remote
                table[atomic_route_index(wide, opt_out, True)] = local
        return tuple(table)

    def _data_routes(
        self,
        cache: List[Optional[Tuple[Optional[DataRoute], ...]]],
        home: int,
        op: str,
    ) -> Tuple[Optional[DataRoute], ...]:
        routes = cache[home]
        if routes is None:
            diag = CommDiagnostics.op_index(op)
            built: List[Optional[DataRoute]] = []
            for ci in range(len(self.topology.classes)):
                if self._coherent_class[ci]:
                    # Self / same coherence domain: a bare local load —
                    # callers take the no-route fast path.
                    built.append(None)
                    continue
                cc = self._class_costs[ci]
                built.append(
                    DataRoute(
                        diag,
                        cc.rdma_small_latency,
                        cc.rdma_byte_cost,
                        self._class_point(ci, home, am_path=False),
                        cc.rdma_service,
                    )
                )
            routes = tuple(built)
            cache[home] = routes
        return routes

    def _ctrl_routes(self, home: int) -> tuple:
        """Per-class control-plane recipes for AMs/forks/allocs against
        ``home``: ``None`` for communication-free classes, else
        ``(point, class_costs)``."""
        table = self._ctrl_tables[home]
        if table is None:
            table = tuple(
                None
                if self._coherent_class[ci]
                else (self._class_point(ci, home, am_path=True), self._class_costs[ci])
                for ci in range(len(self.topology.classes))
            )
            self._ctrl_tables[home] = table
        return table

    # ------------------------------------------------------------------
    # atomics
    # ------------------------------------------------------------------
    def charge_atomic(
        self, ctx: "TaskContext", line: ServicePoint, route: AtomicRoute
    ) -> None:
        """Charge one atomic op along a precompiled route.

        The body of the reference :meth:`atomic_op` only: every simulated
        atomic charges through its :meth:`cell_plan` instead, fused with
        its value commit, and tests check those fused paths against this
        one.  ``line`` is the per-cell service point (the cache line /
        NIC-side address pipeline for that atomic variable) — this is what
        makes a *hot* atomic serialize even when the rest of the machine
        is idle.  The plain store of the serve result is the same as
        ``advance(latency)`` + ``advance_to(finish)``: a serve never
        finishes before its arrival ``now + latency``.
        """
        self.diags.record_index(ctx.locale_id, route.diag_index)
        t = ctx.now + route.latency
        point = route.point
        if point is not None:
            t = point.serve_locked(t, route.point_service)
        ctx.now = line.serve_locked(t, route.line_service)

    def atomic_op(
        self,
        ctx: "TaskContext",
        home: int,
        line: ServicePoint,
        *,
        wide: bool = False,
        opt_out: bool = False,
    ) -> None:
        """Charge one atomic memory operation against locale ``home``.

        Reference entry point mirroring the routing table in the module
        docstring; resolves the precompiled route for the caller's
        distance class and defers to :meth:`charge_atomic`.  Cells never
        call it: they run the same routes through :meth:`cell_plan`.

        ``wide=True`` selects the 128-bit DCAS rules (never RDMA).

        ``opt_out=True`` models the paper's deliberate avoidance of network
        atomics for variables that are only ever accessed locally (e.g. the
        per-locale limbo-list heads): the op is priced as a CPU atomic even
        under ``ugni``.  A networked access to an opted-out atomic still
        pays the active-message price — opting out removes the NIC detour,
        not physics.
        """
        rows = self.atomic_class_routes(home)
        row = rows[2 if wide else (1 if opt_out else 0)]
        self.charge_atomic(
            ctx, line, row[self.distance_row(home)[ctx.locale_id]]
        )

    # ------------------------------------------------------------------
    # one-sided data movement
    # ------------------------------------------------------------------
    def read(self, ctx: "TaskContext", home: int, nbytes: int = 8) -> None:
        """Charge a GET of ``nbytes`` from locale ``home``."""
        tr = self._tracer
        t0 = ctx.now if tr is not None else 0.0
        row = self._dist_rows[home]
        if row is None:
            row = self.distance_row(home)
        routes = self._get_routes[home]
        if routes is None:
            routes = self._data_routes(self._get_routes, home, CommOp.GET)
        dclass = row[ctx.locale_id]
        r = routes[dclass]
        if r is None:
            # Self or coherent peer: one local load, no communication.
            ctx.now += self._cpu_load_latency
        else:
            self.diags.record_index(ctx.locale_id, r.diag_index)
            t = ctx.now + r.latency + nbytes * r.byte_cost
            ctx.now = r.point.serve_locked(t, r.service)
        if tr is not None:
            tr.op("get", t0, ctx.now, dclass, home, nbytes=nbytes)

    def write(self, ctx: "TaskContext", home: int, nbytes: int = 8) -> None:
        """Charge a PUT of ``nbytes`` to locale ``home``."""
        tr = self._tracer
        t0 = ctx.now if tr is not None else 0.0
        row = self._dist_rows[home]
        if row is None:
            row = self.distance_row(home)
        routes = self._put_routes[home]
        if routes is None:
            routes = self._data_routes(self._put_routes, home, CommOp.PUT)
        dclass = row[ctx.locale_id]
        r = routes[dclass]
        if r is None:
            ctx.now += self._cpu_load_latency
        else:
            self.diags.record_index(ctx.locale_id, r.diag_index)
            t = ctx.now + r.latency + nbytes * r.byte_cost
            ctx.now = r.point.serve_locked(t, r.service)
        if tr is not None:
            tr.op("put", t0, ctx.now, dclass, home, nbytes=nbytes)

    def bulk(self, ctx: "TaskContext", home: int, nbytes: int) -> None:
        """Charge a bulk one-sided transfer of ``nbytes`` to/from ``home``."""
        tr = self._tracer
        t0 = ctx.now if tr is not None else 0.0
        row = self._dist_rows[home]
        if row is None:
            row = self.distance_row(home)
        routes = self._bulk_routes[home]
        if routes is None:
            routes = self._data_routes(self._bulk_routes, home, CommOp.BULK)
        dclass = row[ctx.locale_id]
        r = routes[dclass]
        if r is None:
            ctx.now += self._cpu_load_latency + nbytes * self._bulk_byte_cost
        else:
            self.diags.record_bulk(ctx.locale_id, nbytes)
            t = ctx.now + r.latency + nbytes * r.byte_cost
            ctx.now = r.point.serve_locked(t, r.service)
        if tr is not None:
            tr.op("bulk", t0, ctx.now, dclass, home, nbytes=nbytes)

    # ------------------------------------------------------------------
    # remote execution and memory management (the control plane)
    #
    # One step per message: the cached distance row and control-plane
    # table are read directly, the diagnostic is recorded by precompiled
    # index, and the task's ``now`` takes the serve result as a plain
    # store — the same float operations as adding the latency, serving
    # and moving to the later of the two, since a serve never finishes
    # before its arrival.
    # ------------------------------------------------------------------
    def remote_fork(self, ctx: "TaskContext", target: int) -> None:
        """Charge initiating an ``on`` statement (blocking remote fork)."""
        row = self._dist_rows[target]
        if row is None:
            row = self.distance_row(target)
        lid = ctx.locale_id
        dclass = row[lid]
        if dclass == 0:
            return
        tr = self._tracer
        t0 = ctx.now if tr is not None else 0.0
        table = self._ctrl_tables[target]
        if table is None:
            table = self._ctrl_routes(target)
        ctrl = table[dclass]
        if ctrl is None:
            # Coherent peer: scheduling a task on a core we share memory
            # with — a local spawn, no message, so (like every other
            # coherent-class charge) nothing is recorded in comm diags.
            ctx.now += self.costs.task_spawn_local
        else:
            self.diags.record_index(lid, _FORK)
            point, cc = ctrl
            ctx.now = point.serve_locked(ctx.now + cc.task_spawn_remote, cc.am_service)
        if tr is not None:
            tr.op("fork", t0, ctx.now, dclass, target)

    def remote_return(self, ctx: "TaskContext", origin: int) -> None:
        """Charge returning from an ``on`` statement back to ``origin``."""
        row = self._dist_rows[origin]
        if row is None:
            row = self.distance_row(origin)
        lid = ctx.locale_id
        dclass = row[lid]
        if dclass == 0:
            return
        tr = self._tracer
        t0 = ctx.now if tr is not None else 0.0
        table = self._ctrl_tables[origin]
        if table is None:
            table = self._ctrl_routes(origin)
        ctrl = table[dclass]
        if ctrl is None:
            # Coherent peer: no return message either (see remote_fork).
            ctx.now += self._cpu_load_latency
        else:
            self.diags.record_index(lid, _AM)
            point, cc = ctrl
            ctx.now = point.serve_locked(ctx.now + cc.am_latency, cc.am_service)
        if tr is not None:
            tr.op("return", t0, ctx.now, dclass, origin)

    def _rpc_then_local(
        self,
        ctx: "TaskContext",
        home: int,
        rpc: bool,
        local: float,
        kind: str,
        count: int = 0,
    ) -> None:
        """An AM round trip to a non-coherent ``home`` (when ``rpc``), then
        ``local`` seconds of allocator work — the body of :meth:`alloc`,
        :meth:`free` and :meth:`bulk_free`.  Traces an ``am`` event for the
        round trip inside one enclosing ``kind`` event."""
        row = self._dist_rows[home]
        if row is None:
            row = self.distance_row(home)
        lid = ctx.locale_id
        dclass = row[lid]
        tr = self._tracer
        t0 = ctx.now
        if rpc:
            table = self._ctrl_tables[home]
            if table is None:
                table = self._ctrl_routes(home)
            ctrl = table[dclass]
            if ctrl is not None:
                self.diags.record_index(lid, _AM)
                point, cc = ctrl
                ctx.now = point.serve_locked(t0 + 2.0 * cc.am_latency, cc.am_service)
                if tr is not None:
                    tr.op("am", t0, ctx.now, dclass, home)
        ctx.now += local
        if tr is not None:
            if count:
                tr.op(kind, t0, ctx.now, dclass, home, count=count)
            else:
                tr.op(kind, t0, ctx.now, dclass, home)

    def alloc(self, ctx: "TaskContext", home: int) -> None:
        """Charge allocating one object on ``home``.

        A non-coherent remote allocation is remote execution (an AM round
        trip), which is why the paper allocates nodes locally and
        publishes them with one atomic.  A coherent peer's heap is shared
        memory: no message, just the allocator cost.
        """
        self._rpc_then_local(ctx, home, True, self.costs.alloc_latency, "alloc")

    def alloc_many(self, ctx: "TaskContext", homes: Sequence[int]) -> None:
        """Charge :meth:`alloc` once per entry of ``homes``, in order.

        The same serves, float op for float op, and the same ``am``
        count; each home's route is resolved once and the diagnostics are
        counted in one add.  Under a full tracer it is the :meth:`alloc`
        loop itself, so the per-object ``am``/``alloc`` events are those
        of the loop.
        """
        if self._tracer is not None:
            for home in homes:
                self.alloc(ctx, home)
            return
        lid = ctx.locale_id
        # Per home: None for a coherent home (allocator cost only), else
        # the AM round trip's (point, control-plane costs).
        ctrl = {
            home: self._ctrl_routes(home)[self.distance_row(home)[lid]]
            for home in set(homes)
        }
        alloc_latency = self.costs.alloc_latency
        now = ctx.now
        n_am = 0
        for home in homes:
            route = ctrl[home]
            if route is not None:
                point, cc = route
                now = point.serve_locked(now + 2.0 * cc.am_latency, cc.am_service)
                n_am += 1
            now += alloc_latency
        ctx.now = now
        self.diags._rows[lid][_AM] += n_am

    def free(self, ctx: "TaskContext", home: int) -> None:
        """Charge freeing one object on ``home`` (non-coherent => RPC)."""
        self._rpc_then_local(ctx, home, True, self.costs.free_latency, "free")

    def bulk_free(
        self, ctx: "TaskContext", home: int, count: int, *, rpc: bool = True
    ) -> None:
        """Charge freeing ``count`` objects on ``home`` as one batch.

        This is the scatter-list payoff: one RPC (if non-coherent) plus an
        amortized per-object cost, instead of ``count`` RPCs.  ``rpc=False``
        charges only the amortized frees — for callers whose crossing was
        already paid by an aggregated batch.
        """
        if count <= 0:
            return
        c = self.costs
        self._rpc_then_local(
            ctx,
            home,
            rpc,
            c.free_latency + (count - 1) * c.bulk_free_per_object,
            "bulk_free",
            count,
        )

    # ------------------------------------------------------------------
    # measurement control
    # ------------------------------------------------------------------
    def reset_measurements(self) -> None:
        """Zero all service points and counters (between benchmark trials).

        Routes are untouched: they reference service points by identity,
        and ``reset`` zeroes points in place.
        """
        for p in self.nic:
            p.reset()
        for p in self.progress:
            p.reset()
        for p in self.uplinks.values():
            p.reset()
        self.diags.reset()
        if self._tracer is not None:
            self._tracer.reset_points()
