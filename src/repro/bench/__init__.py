"""Benchmark harness: regenerate every figure in the paper's evaluation.

Entry points:

* ``python -m repro.bench --figure all`` — print every figure's series.
* ``python -m repro.bench scenarios --list/--run/--all`` — the declarative
  scenario engine (docs/SCENARIOS.md).
* :mod:`repro.bench.figures` — programmatic drivers (used by the pytest
  benchmarks under ``benchmarks/``), thin wrappers over registered
  scenarios.
* :mod:`repro.bench.scenarios` — scenario specs, registry, grid runner,
  regression baselines.
* :mod:`repro.bench.ablations` — the design-choice ablations
  (``--figure ablations``).
* :mod:`repro.bench.workloads` — the underlying workload generators.
"""

from .ablations import (
    ablation_compression,
    ablation_epoch_cycle,
    ablation_election,
    ablation_privatization,
    ablation_reclaimers,
    ablation_scatter,
)
from .figures import (
    figure3_distributed,
    figure3_shared,
    figure4,
    figure5,
    figure6,
    figure7,
)
from .report import Panel, Series, render_figure, render_panel
from .scenarios import (
    MeasureSpec,
    ScenarioError,
    ScenarioRun,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_report,
    get_scenario,
    iter_scenarios,
    register_scenario,
    run_scenario,
    run_scenario_grid,
    scenario_names,
)
from .workloads import (
    WorkloadResult,
    run_atomic_mix,
    run_epoch_mixed,
    run_epoch_workload,
    run_multi_structure,
    run_producer_consumer,
)

__all__ = [
    "figure3_shared",
    "figure3_distributed",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "ablation_compression",
    "ablation_epoch_cycle",
    "ablation_privatization",
    "ablation_scatter",
    "ablation_election",
    "ablation_reclaimers",
    "Panel",
    "Series",
    "render_panel",
    "render_figure",
    "WorkloadResult",
    "run_atomic_mix",
    "run_epoch_workload",
    "run_epoch_mixed",
    "run_producer_consumer",
    "run_multi_structure",
    # scenarios
    "ScenarioError",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "MeasureSpec",
    "ScenarioRun",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "run_scenario",
    "run_scenario_grid",
    "build_report",
]
