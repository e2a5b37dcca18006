"""Precompiled cost routes: the network model's routing table, flattened.

The seed engine re-evaluated a five-way branch chain (opt-out? wide?
network atomics? local?) on *every* simulated atomic operation, and a
string-keyed diagnostic dispatch on every GET/PUT/AMO/AM.  Since every
input to that decision — the network flavour, the cost constants, the home
locale's service points, the cell's opt-out flag — is fixed at construction
time, the decision itself can be made exactly once.

This module defines the two flavours of precompiled route:

* :class:`AtomicRoute` — one atomic-operation recipe.  Routes are
  compiled per (home locale, wide?, opt_out?, **distance class**) — see
  :mod:`repro.comm.topology`; under the default two-class
  :class:`~repro.comm.topology.FlatTopology` this collapses to the
  legacy 8-entry (wide, opt_out, local) cube laid out by
  :func:`atomic_route_index`, entry for entry.  Cells share their home's
  table through one memoised :class:`CellPlan` per (home, opt_out)
  (``NetworkModel.cell_plan``), and the hot path reduces to one
  distance-row index.
* :class:`DataRoute` — one GET/PUT/BULK recipe per (home locale,
  distance class), carrying the byte-cost slope so any transfer size
  reuses the same route.  Coherent classes (same socket) compile to no
  route at all — the charge is a bare local-load clock advance.

Charging semantics are bit-identical to the branchy reference
implementation (kept as ``NetworkModel.atomic_op`` for tests and docs):
advance the issuing task's clock by the route latency, pass through the
home-level service point (NIC pipeline or progress thread) if the route
has one, then through the cell's line, and bump one precompiled diagnostic
index.  Diagnostic indices come from
:meth:`~repro.comm.counters.CommDiagnostics.op_index`, the single place op
names are validated, so an index-based route can never miscount.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.clock import ServicePoint

__all__ = ["AtomicRoute", "CellPlan", "DataRoute", "atomic_route_index"]


def atomic_route_index(wide: bool, opt_out: bool, local: bool) -> int:
    """Index into a home's 8-entry atomic route table.

    Layout: bit 2 = wide, bit 1 = opt_out, bit 0 = local.  Callers compute
    this inline on the hot path; the helper exists for table construction
    and tests.
    """
    return (4 if wide else 0) | (2 if opt_out else 0) | (1 if local else 0)


class AtomicRoute:
    """One precompiled atomic-op recipe for a (home, wide, opt_out, local) cell.

    ``point`` is the home-level serial resource the op occupies *before*
    the cell's own line — the NIC pipeline under ``ugni`` routing or the
    progress thread for active-message routing — or ``None`` when the op
    is a pure CPU atomic.  ``line_service`` is the time the per-cell line
    is held; the line itself is supplied by the cell at charge time.
    """

    __slots__ = ("diag_index", "latency", "point", "point_service", "line_service")

    def __init__(
        self,
        diag_index: int,
        latency: float,
        point: "Optional[ServicePoint]",
        point_service: float,
        line_service: float,
    ) -> None:
        self.diag_index = diag_index
        self.latency = latency
        self.point = point
        self.point_service = point_service
        self.line_service = line_service

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AtomicRoute(diag={self.diag_index}, latency={self.latency:.2e},"
            f" point={self.point!r})"
        )


class CellPlan(NamedTuple):
    """The fused charge plan shared by every atomic on one (home, opt_out).

    ``narrow`` and ``wide`` hold one hot 5-tuple per distance class,
    ``(diag_index, latency, outer, point_service, line_service)``, where
    ``outer`` is the home-level serve callable run inside the cell lock:
    ``lock_point.serve_locked`` when the cell lock IS that point's lock,
    another point's self-locking ``serve``, or ``None`` for pure-CPU
    routes.  ``lock_point`` is the point whose lock every such cell
    adopts, or ``None`` when each cell locks its own line.  ``dist`` is
    the home's distance row (source locale -> class index).
    """

    dist: Tuple[int, ...]
    lock_point: "Optional[ServicePoint]"
    narrow: Tuple[tuple, ...]
    wide: Tuple[tuple, ...]


class DataRoute:
    """One precompiled one-sided-transfer recipe for a (home, class) pair.

    Total latency for ``nbytes`` is ``latency + nbytes * byte_cost``; the
    transfer then occupies ``point`` — the home's NIC pipeline, or its
    shared uplink for cross-node/cross-group classes — for ``service``
    seconds.  Local and coherent-class transfers never construct one of
    these — they are a bare clock advance on the issuing task.
    """

    __slots__ = ("diag_index", "latency", "byte_cost", "point", "service")

    def __init__(
        self,
        diag_index: int,
        latency: float,
        byte_cost: float,
        point: "Optional[ServicePoint]",
        service: float,
    ) -> None:
        self.diag_index = diag_index
        self.latency = latency
        self.byte_cost = byte_cost
        self.point = point
        self.service = service

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DataRoute(diag={self.diag_index}, latency={self.latency:.2e},"
            f" byte_cost={self.byte_cost:.2e})"
        )
