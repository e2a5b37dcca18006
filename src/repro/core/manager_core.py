"""``ManagerCore``: the manager machinery every reclamation scheme shares.

The paper's :class:`~repro.core.epoch_manager.EpochManager` and the
list-based schemes' :class:`~repro.reclaim.protocol.ReclaimerBase` are
peers behind one guard protocol.  What they have in common lives here:
policy and tracer setup, the root-driven policy gate and its
:class:`~repro.policy.EpochFacts`, the per-distance-class crossing fold,
the ``clear`` epilogue, peak-pending sampling and the normalized
``stats()``.

The core defines no protocol entry point (``register`` / ``try_reclaim``
/ ``clear`` / ...): each scheme class defines its own, so host-time
tooling that wraps a scheme's entry points sees each call exactly once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from ..errors import ReclaimerError
from ..policy import EpochFacts, parse_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["ManagerCore"]


class ManagerCore:
    """Policy, tracing and accounting shared by every reclaimer.

    A scheme supplies ``pending_count()``; ``_fact_folds()``, returning
    ``(pending per scan unit, last pin, oldest retire)`` for the policy
    facts; and ``_counts()``, its counters including
    ``reclaim_attempts``, ``objects_reclaimed``, ``reclaims``,
    ``scan_batches`` and ``uplink_crossings``.
    """

    #: Scheme name as accepted by ``make_reclaimer`` / config.
    scheme = "base"
    #: Raised by :meth:`_check_alive` after ``destroy()``.
    _destroyed_error = ReclaimerError

    def __init__(self, runtime: "Runtime", *, policy: Any = None) -> None:
        self._rt = runtime
        self._destroyed = False
        # The epoch-advance policy (docs/POLICY.md): gates root-driven
        # reclaim attempts on virtual-time facts.  ``None`` resolves the
        # runtime's configured policy axis.
        policy_spec = (
            runtime.config.resolved_policy()
            if policy is None
            else parse_policy(policy)
        )
        self.policy = policy_spec.make_epoch_policy()
        self._track_pins = self.policy.wants_pin_times
        # Flight-recorder hooks (docs/OBSERVABILITY.md): the spans-level
        # recorder carries policy decisions and root-driven reclaim
        # summaries; the full-detail one adds guard pin/retire events and
        # limbo-age records.  Both are None when tracing is off.
        self._tracer = getattr(runtime, "_tracer", None)
        self._full = getattr(runtime, "_full_tracer", None)
        #: Retire timestamps are recorded only when the policy consumes
        #: limbo ages or full tracing is on — the stock policies pay zero
        #: per-retire work.
        self._track_ages = (
            self.policy.wants_retire_times or self._full is not None
        )
        #: Shared-uplink crossings folded per distance class — the
        #: :attr:`~repro.policy.EpochFacts.crossings` policy input.
        self._crossings_by_class: Dict[int, int] = {}
        self._peak_pending = 0

    def _check_alive(self) -> None:
        if self._destroyed:
            raise self._destroyed_error(
                f"{type(self).__name__} used after destroy()"
            )

    # ------------------------------------------------------------------
    # the epoch-advance policy gate (docs/POLICY.md)
    # ------------------------------------------------------------------
    def _policy_defers(self) -> bool:
        """True when the policy defers this reclaim attempt (cost-free).

        The default ``fixed`` policy short-circuits without computing
        facts, so the legacy paths stay bit-identical.  Schemes call this
        at the top of their root-driven ``try_reclaim``: a deferral skips
        the whole scan/drain pipeline, charges nothing, and ticks the
        window policy here.
        """
        pol = self.policy
        if pol.always_advance:
            return False
        facts = self._policy_facts()
        advance = pol.decide(facts)
        tr = self._tracer
        if tr is not None:
            tr.policy_decision(
                pol.kind,
                "advance" if advance else "defer",
                facts.now,
                facts.as_dict(),
            )
        if advance:
            return False
        self._policy_tick()
        return True

    def _policy_facts(self) -> EpochFacts:
        """Cost-free facts snapshot; every fold is order-independent, so
        it is deterministic at the root-driven decision points."""
        pending, last_pin, oldest = self._fact_folds()
        cbc = self._crossings_by_class
        crossings = (
            tuple(cbc.get(i, 0) for i in range(max(cbc) + 1)) if cbc else ()
        )
        ctx = self._rt._ctx
        return EpochFacts(
            now=ctx.now if ctx is not None else 0.0,
            pending=pending,
            last_pin=last_pin,
            crossings=crossings,
            oldest_retire=oldest,
        )

    def _policy_tick(self) -> None:
        """Window-policy tick at a sequential reclaim point (a no-op for
        static windows)."""
        self._rt.network.aggregator.policy_tick()

    def _after_clear(self, freed: int) -> None:
        """``clear`` epilogue: the trace summary and a window tick —
        ``clear`` is a sequential quiescent point by contract."""
        tr = self._tracer
        if tr is not None:
            ctx = self._rt._ctx
            tr.reclaim(
                "clear",
                self.scheme,
                ctx.now if ctx is not None else 0.0,
                freed=freed,
            )
        self._policy_tick()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _fold_crossings(self, by_class) -> None:
        """Fold ``(distance class, crossings)`` pairs into the policy's
        per-class facts; only classes with a shared uplink count."""
        classes = self._rt.network.topology.classes
        fold = self._crossings_by_class
        for dclass, n in by_class:
            if classes[dclass].shared_uplink:
                fold[dclass] = fold.get(dclass, 0) + n

    def _note_pending(self) -> None:
        """Sample pending garbage into the peak counter (cost-free)."""
        pending = self.pending_count()
        if pending > self._peak_pending:
            self._peak_pending = pending

    def stats(self) -> Dict[str, Any]:
        """Scheme counters plus the normalized cross-scheme keys.

        ``retired`` / ``freed`` / ``pending`` / ``peak_pending`` are the
        cross-scheme comparison columns in the scenario JSON report;
        ``reclaim_attempts`` / ``objects_reclaimed`` keep the shape of the
        historical EpochManager stats dict.
        """
        out: Dict[str, Any] = self._counts()
        freed = out["objects_reclaimed"]
        pending = 0 if self._destroyed else self.pending_count()
        out.update(
            scheme=self.scheme,
            retired=freed + pending,
            freed=freed,
            pending=pending,
            peak_pending=self._peak_pending,
            # Policy diagnostics (docs/POLICY.md): the epoch half's spec
            # and deferral count, and the window policy's live window.
            policy=self.policy.spec(),
            policy_deferrals=self.policy.deferrals,
            window=self._rt.network.aggregator.window,
        )
        return out
