"""Compiled-engine coverage: one predicate, three consumers.

The question "does this workload shape lower?" is answered in exactly one
place — :func:`compiled_plan` — and consumed by

* the workload generators (:mod:`repro.bench.workloads`), which call
  :func:`note_phase` at each phase gate: it evaluates the plan, records
  the *effective* engine on the runtime's :class:`EngineLog`, and raises
  :class:`~repro.errors.CompiledFallbackError` under the strict engine;
* the scenario lister (``scenarios --list``), whose compiled-coverage
  column is computed from the same predicate so it can never drift from
  what the generators actually do;
* the reports: :func:`engine_summary` folds a run's log into the
  ``"engine"`` block scenario reports emit.

Execution tiers
---------------
``"columnar"``
    The phase is a ``forall`` whose task bodies replay lowered charge
    streams (:mod:`repro.engine.executor`) — the fast tier.
``"serial"``
    The phase runs the real task bodies on the runtime's one scheduler
    (:mod:`repro.runtime.tasking`), exactly as an interpreted run does.
    It keeps value-dependent structure traversals compiled-engine-clean:
    no lowering is needed for them to count as compiled.
``"interpreted"``
    The documented fallback: the phase also runs the real task bodies on
    the one scheduler, but is logged as a shape the compiled engine does
    not cover.  Silent and exact under ``"compiled"``; an error under
    ``"compiled-strict"``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import CompiledFallbackError

__all__ = [
    "compiled_plan",
    "EngineLog",
    "note_phase",
    "engine_summary",
]

#: Reclaimer schemes whose rounds each lowering replays.  A lowering stays
#: only where forcing its shape serial measurably slows a benchmark
#: workload (docs/ENGINE.md, "Which lowerings stay"); every other scheme
#: runs the same shape on the serial tier.
_COLUMNAR_SCHEMES = {"epoch": ("ebr",), "epoch_mixed": ("ebr", "hp")}


def compiled_plan(
    kind: str,
    *,
    reclaimer: str = "ebr",
    trace: str = "off",
    tasks_per_locale: int = 1,
    reclaim_every: Optional[int] = None,
    wants_pin_times: bool = False,
    wants_retire_times: bool = False,
) -> Tuple[str, Optional[str]]:
    """Decide the execution tier for one workload phase shape.

    Returns ``(tier, reason)`` where ``tier`` is ``"columnar"``,
    ``"serial"`` or ``"interpreted"`` and ``reason`` explains an
    interpreter fallback (None otherwise).  ``reclaimer`` is the runtime's
    scheme: the epoch rounds lower only for the schemes in
    ``_COLUMNAR_SCHEMES``.  Pure function of the shape —
    the generators resolve the runtime's actual trace detail and policy
    wants and pass them in, the scenario lister resolves the same values
    from the spec, so the two can never disagree.

    Every tier equals an interpreted run bit for bit: the columnar
    replay reproduces the one scheduler's order, and the other two tiers
    are that scheduler.  ``"interpreted"`` marks the shapes left
    uncovered: mid-phase elections, whose outcomes the replay does not
    model, multi-task in-forall registration, and full tracing.
    """
    if trace == "full":
        # Full-detail tracing needs per-op events the columnar replay
        # does not emit (docs/OBSERVABILITY.md).
        return ("interpreted", "trace=full needs per-op events")
    if kind in ("atomic_mix", "atomic_hotspot"):
        return ("columnar", None)
    if kind == "epoch":
        if reclaim_every is not None:
            return (
                "interpreted",
                "mid-phase tryReclaim elections are schedule-scoped",
            )
        if tasks_per_locale != 1:
            return (
                "interpreted",
                "in-forall registration with >1 task/locale reuses tokens"
                " in real-arrival order",
            )
    if kind in _COLUMNAR_SCHEMES:
        # The columnar replay never calls pin()/defer_delete(), so the
        # virtual-time facts a tracking policy reads would be missing; the
        # serial tier runs the real bodies and records them exactly.
        if (
            wants_pin_times
            or wants_retire_times
            or reclaimer not in _COLUMNAR_SCHEMES[kind]
        ):
            return ("serial", None)
        return ("columnar", None)
    if kind in ("churn", "multi_structure"):
        # Structure traversals are value-dependent (CAS loops over heads,
        # hand-over-hand bucket walks) — not columnar material — so they
        # run the real bodies on the serial tier.
        return ("serial", None)
    return ("interpreted", f"no lowering for workload kind {kind!r}")


class EngineLog:
    """Per-:class:`~repro.runtime.runtime.Runtime` effective-engine record.

    One entry per workload phase gate: ``(workload, tier, reason)``.
    Attached lazily by :func:`note_phase` (the runtime itself never
    imports the engine package), read back by the scenario runner and the
    wall-clock benchmark after the run.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[Tuple[str, str, Optional[str]]] = []

    def note(self, workload: str, tier: str, reason: Optional[str]) -> None:
        self.entries.append((workload, tier, reason))


def note_phase(rt: Any, workload: str, tier: str, reason: Optional[str]) -> str:
    """Record one phase's effective tier; enforce strict mode.

    Called by a generator at its engine gate with the tier
    :func:`compiled_plan` chose.  Under ``engine="compiled-strict"`` an
    ``"interpreted"`` tier raises :class:`CompiledFallbackError` instead
    of silently falling back.  Returns ``tier`` so gates read naturally::

        tier = note_phase(rt, "epoch_mixed", *compiled_plan(...))
    """
    log = getattr(rt, "_engine_log", None)
    if log is None:
        log = rt._engine_log = EngineLog()
    log.note(workload, tier, reason)
    if tier == "interpreted" and rt.config.engine == "compiled-strict":
        raise CompiledFallbackError(
            f"strict compiled engine: workload {workload!r} fell back to"
            f" the interpreter ({reason})"
        )
    return tier


def engine_summary(rt: Any) -> Dict[str, Any]:
    """Fold a runtime's :class:`EngineLog` into a report-ready block.

    ``effective`` is ``"compiled"`` when every gated phase ran a compiled
    tier (columnar or serial), ``"interpreted"`` when every phase fell
    back (or the engine was never asked for compiled execution), and
    ``"mixed"`` otherwise.  ``fallbacks`` lists each interpreted phase
    with its reason — the observability the bench labeling satellite is
    about: a ``"compiled"`` label now provably means compiled.
    """
    configured = rt.config.engine
    log = getattr(rt, "_engine_log", None)
    if configured == "interpreted" or log is None or not log.entries:
        return {"configured": configured, "effective": configured}
    tiers: Dict[str, int] = {}
    fallbacks = []
    for workload, tier, reason in log.entries:
        tiers[tier] = tiers.get(tier, 0) + 1
        if tier == "interpreted":
            fallbacks.append({"workload": workload, "reason": reason})
    if tiers.get("interpreted", 0) == 0:
        effective = "compiled"
    elif len(tiers) == 1:
        effective = "interpreted"
    else:
        effective = "mixed"
    out: Dict[str, Any] = {
        "configured": configured,
        "effective": effective,
        "phases": dict(sorted(tiers.items())),
    }
    if fallbacks:
        out["fallbacks"] = fallbacks
    return out
