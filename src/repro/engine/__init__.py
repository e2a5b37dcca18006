"""Batch-compiled workload execution (the ``engine = "compiled"`` axis).

Four pieces (see docs/ENGINE.md):

* :mod:`repro.engine.opstream` — the columnar IR: lowering a task's fixed
  op stream into per-op target columns ahead of the run.
* :mod:`repro.engine.executor` — the replay engine.  The *columnar* tier
  replays the scheduler's spawn-submission order on the root task
  between ``forall`` joins — where nothing else runs, so it charges the
  real service points, cells, reclaim chains and diagnostics in place;
  the *serial* tier runs the real task bodies on the
  scheduler for value-dependent phases.
  Bit-identical to the interpreter by construction; wall-clock only.
* :mod:`repro.engine.coverage` — the one predicate deciding which tier a
  workload shape gets, the per-runtime effective-engine log, and the
  ``compiled-strict`` fallback-is-an-error enforcement.
* :mod:`repro.engine.cache` — the cross-run compilation cache sharing
  lowered columns across ``--repeats`` and scenario-grid runtimes.
"""

from .cache import COLUMN_CACHE, CompilationCache
from .coverage import EngineLog, compiled_plan, engine_summary, note_phase
from .executor import (
    run_alloc_phase,
    run_ebr_epoch_phase,
    run_epoch_workload_phase,
    run_guard_epoch_phase,
    run_uniform_atomic_phase,
)
from .opstream import (
    fast_randbelow,
    mix_column,
    mix_column_fn,
    zipf_column,
    zipf_column_fn,
)

__all__ = [
    "run_alloc_phase",
    "run_uniform_atomic_phase",
    "run_ebr_epoch_phase",
    "run_guard_epoch_phase",
    "run_epoch_workload_phase",
    "compiled_plan",
    "EngineLog",
    "note_phase",
    "engine_summary",
    "CompilationCache",
    "COLUMN_CACHE",
    "fast_randbelow",
    "mix_column",
    "mix_column_fn",
    "zipf_column",
    "zipf_column_fn",
]
