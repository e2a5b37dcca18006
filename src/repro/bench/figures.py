"""Figure drivers: regenerate every plot in the paper's evaluation.

Each ``figure_*`` function sweeps the paper's parameter grid and returns
:class:`~repro.bench.report.Panel` objects whose series correspond one to
one with the lines in the paper's plots.  The CLI (``python -m
repro.bench``) and the pytest-benchmark entry points under ``benchmarks/``
both drive these functions; ``--json`` records their output.

Since the scenario engine landed, the drivers here are *thin wrappers*
over registered scenario specs (:mod:`repro.bench.scenarios`): each grid
point derives the paper base scenario (``paper-atomic-mix`` or
``paper-reclaim-endonly``) with the point's topology and workload
parameters and hands it to :func:`~repro.bench.scenarios.run_scenario` —
one engine serves the paper's grid and every new scenario alike.

Scale note: ``ops_per_task`` defaults keep a full figure under a few
minutes of wall time on a laptop; the *virtual* seconds reported scale
linearly with it, so curve shapes (the reproduction target) are unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .report import Panel
from .scenarios import get_scenario, run_scenario

__all__ = [
    "DEFAULT_SHARED_TASKS",
    "DEFAULT_LOCALES",
    "figure3_shared",
    "figure3_distributed",
    "figure_epoch_deletion",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
]

#: Task counts of Figure 3's shared-memory panel.
DEFAULT_SHARED_TASKS: Sequence[int] = (1, 2, 4, 8, 16, 32)
#: Locale counts of the distributed panels (Figures 3-6; Fig 7 starts at 2).
DEFAULT_LOCALES: Sequence[int] = (1, 2, 4, 8, 16, 32, 64)
#: Locale counts for the epoch-manager figures (paper starts them at 2).
DEFAULT_EPOCH_LOCALES: Sequence[int] = (2, 4, 8, 16, 32, 64)


def _point_elapsed(
    base: str,
    *,
    locales: int,
    network: str,
    tasks_per_locale: int,
    **workload: Any,
) -> float:
    """Virtual seconds for one grid point derived from a base scenario."""
    spec = (
        get_scenario(base)
        .with_topology(
            locales=locales, network=network, tasks_per_locale=tasks_per_locale
        )
        .with_workload(**workload)
    )
    return run_scenario(spec).result.elapsed


# ---------------------------------------------------------------------------
# Figure 3 — AtomicObject vs atomic int
# ---------------------------------------------------------------------------


def figure3_shared(
    *,
    tasks: Sequence[int] = DEFAULT_SHARED_TASKS,
    total_ops: int = 1 << 15,
) -> Panel:
    """Figure 3 (left): shared memory, strong scaling over task counts.

    Total operation count is fixed; each task performs ``total/tasks`` ops
    on locale-local cells.  Series: ``atomic int``, ``AtomicObject``,
    ``AtomicObject (ABA)``.
    """
    panel = Panel(title="Figure 3 (shared memory) — time (s)", xlabel="tasks", xs=list(tasks))
    series: Dict[str, List[float]] = {
        "atomic int": [],
        "AtomicObject": [],
        "AtomicObject (ABA)": [],
    }
    kinds = {
        "atomic int": "atomic_int",
        "AtomicObject": "atomic_object",
        "AtomicObject (ABA)": "atomic_object_aba",
    }
    for ntasks in tasks:
        ops_per_task = max(1, total_ops // ntasks)
        for label, kind in kinds.items():
            series[label].append(
                _point_elapsed(
                    "paper-atomic-mix",
                    locales=1,
                    network="none",
                    tasks_per_locale=ntasks,
                    cell=kind,
                    ops_per_task=ops_per_task,
                )
            )
    for label, vals in series.items():
        panel.add(label, vals)
    return panel


def figure3_distributed(
    *,
    locales: Sequence[int] = DEFAULT_LOCALES,
    ops_per_task: int = 1 << 11,
    tasks_per_locale: int = 1,
) -> Panel:
    """Figure 3 (right): distributed, 1-64 locales.

    Each task performs a fixed number of operations against cyclically
    distributed cells (the remote fraction grows with locales).  Series:
    ``atomic int (none/ugni)``, ``AtomicObject (ABA)``,
    ``AtomicObject (none/ugni)``.
    """
    panel = Panel(
        title="Figure 3 (distributed memory) — time (s)", xlabel="locales", xs=list(locales)
    )
    specs = [
        ("atomic int (none)", "atomic_int", "none"),
        ("atomic int (ugni)", "atomic_int", "ugni"),
        ("AtomicObject (ABA)", "atomic_object_aba", "ugni"),
        ("AtomicObject (none)", "atomic_object", "none"),
        ("AtomicObject (ugni)", "atomic_object", "ugni"),
    ]
    for label, kind, network in specs:
        vals: List[float] = []
        for nloc in locales:
            vals.append(
                _point_elapsed(
                    "paper-atomic-mix",
                    locales=nloc,
                    network=network,
                    tasks_per_locale=tasks_per_locale,
                    cell=kind,
                    ops_per_task=ops_per_task,
                )
            )
        panel.add(label, vals)
    return panel


# ---------------------------------------------------------------------------
# Figures 4-7 — EpochManager
# ---------------------------------------------------------------------------


def figure_epoch_deletion(
    *,
    figure_name: str,
    reclaim_every: Optional[int],
    locales: Sequence[int] = DEFAULT_EPOCH_LOCALES,
    ops_per_task: int = 1 << 10,
    tasks_per_locale: int = 1,
    remote_percents: Sequence[int] = (0, 50, 100),
) -> List[Panel]:
    """Shared driver for Figures 4, 5 and 6 (three panels each).

    ``reclaim_every``: 1024 -> Figure 4 (sparse), 1 -> Figure 5 (dense),
    ``None`` -> Figure 6 (cleanup only at the end).
    """
    panels: List[Panel] = []
    for rp in remote_percents:
        panel = Panel(
            title=f"{figure_name} — {rp}% remote objects — time (s)",
            xlabel="locales",
            xs=list(locales),
        )
        for network in ("none", "ugni"):
            vals: List[float] = []
            for nloc in locales:
                vals.append(
                    _point_elapsed(
                        "paper-reclaim-endonly",
                        locales=nloc,
                        network=network,
                        tasks_per_locale=tasks_per_locale,
                        ops_per_task=ops_per_task,
                        remote_percent=rp,
                        delete=True,
                        reclaim_every=reclaim_every,
                        cleanup_at_end=True,
                    )
                )
            panel.add(network, vals)
        panels.append(panel)
    return panels


def figure4(**kwargs) -> List[Panel]:
    """Figure 4: deletion with ``tryReclaim`` once per 1024 iterations."""
    kwargs.setdefault("reclaim_every", 1024)
    return figure_epoch_deletion(
        figure_name="Figure 4 (Pin-Unpin w/ Sparse tryReclaim)", **kwargs
    )


def figure5(**kwargs) -> List[Panel]:
    """Figure 5: deletion with ``tryReclaim`` called every iteration."""
    kwargs.setdefault("reclaim_every", 1)
    return figure_epoch_deletion(
        figure_name="Figure 5 (Pin-Unpin w/ Dense tryReclaim)", **kwargs
    )


def figure6(**kwargs) -> List[Panel]:
    """Figure 6: deletion with reclamation only performed at the end."""
    kwargs.setdefault("reclaim_every", None)
    return figure_epoch_deletion(
        figure_name="Figure 6 (Pin-Unpin w/ Deletion + Cleanup)", **kwargs
    )


def figure7(
    *,
    locales: Sequence[int] = DEFAULT_EPOCH_LOCALES,
    ops_per_task: int = 1 << 11,
    tasks_per_locale: int = 1,
) -> Panel:
    """Figure 7: read-only pin/unpin workload (no deletion).

    The paper's headline privatization result: the curve stays essentially
    flat across locales because every pin/unpin touches only locale-local
    state.
    """
    panel = Panel(
        title="Figure 7 (Pin-Unpin, read-only) — time (s)",
        xlabel="locales",
        xs=list(locales),
    )
    for network in ("none", "ugni"):
        vals: List[float] = []
        for nloc in locales:
            vals.append(
                _point_elapsed(
                    "paper-reclaim-endonly",
                    locales=nloc,
                    network=network,
                    tasks_per_locale=tasks_per_locale,
                    ops_per_task=ops_per_task,
                    remote_percent=0,
                    delete=False,
                    reclaim_every=None,
                    cleanup_at_end=False,
                )
            )
        panel.add(network, vals)
    return panel
