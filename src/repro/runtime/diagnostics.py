"""Runtime-wide introspection: service-point utilization and heap stats.

The paper argues its design keeps the global-epoch locale from being
"bogged down by redundant requests"; this module exposes the numbers that
let tests and ablations check such claims quantitatively rather than by
eyeballing curves: per-locale progress-thread busy time, NIC busy time,
heap allocation/reuse counters, and communication totals, bundled in one
snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import Runtime

__all__ = ["RuntimeSnapshot", "snapshot"]


@dataclass
class RuntimeSnapshot:
    """A point-in-time view of every measurable resource in a runtime."""

    #: Virtual busy seconds of each locale's AM progress thread.
    progress_busy: List[float]
    #: Requests served by each progress thread.
    progress_served: List[int]
    #: Virtual busy seconds of each locale's NIC pipeline.
    nic_busy: List[float]
    #: Requests served by each NIC.
    nic_served: List[int]
    #: Heap statistics per locale (see :class:`repro.memory.heap.HeapStats`).
    heap_stats: List[Dict[str, int]]
    #: Communication totals across locales.
    comm_totals: Dict[str, int]

    @property
    def hottest_progress_locale(self) -> int:
        """Locale whose progress thread accumulated the most busy time."""
        return max(range(len(self.progress_busy)), key=self.progress_busy.__getitem__)



def snapshot(runtime: "Runtime") -> RuntimeSnapshot:
    """Collect a :class:`RuntimeSnapshot` from a runtime (no cost charged)."""
    net = runtime.network
    return RuntimeSnapshot(
        progress_busy=[p.busy_time for p in net.progress],
        progress_served=[p.served for p in net.progress],
        nic_busy=[p.busy_time for p in net.nic],
        nic_served=[p.served for p in net.nic],
        heap_stats=[loc.heap.snapshot_stats().as_dict() for loc in runtime.locales],
        comm_totals=net.diags.totals(),
    )
