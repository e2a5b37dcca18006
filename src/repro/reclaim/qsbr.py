"""``QSBRReclaimer``: quiescent-state-based reclamation.

The cheapest possible read side: ``pin``/``unpin`` publish **nothing** —
no epoch announcement, no hazard slot, zero virtual cost beyond the plain
program order a real compiler fence would impose.  Safety instead comes
from *quiescent states*: moments a task declares it holds no protected
references.  In this repository those moments are the natural ``forall``
phase boundaries — :meth:`QSBRReclaimer.phase_boundary` (called by the
workload drivers after each phase joins) marks every unpinned guard
quiescent at the current interval; a long-running task may also call
:meth:`_QSBRGuard.quiesce` itself.

Mechanics (the classic interval scheme, as in userspace RCU):

* the manager keeps a monotonically increasing **interval counter**
  (advanced only by ``try_reclaim`` — root-driven, like the workload
  discipline for EBR's ``tryReclaim``);
* each guard owns one local atomic word holding the last interval at
  which it was quiescent (initialized at registration — registering is
  itself a quiescent point);
* ``defer_delete`` tags the retired address with the current interval
  and appends to the guard-local buffer (one plain local store);
* ``try_reclaim`` reads every guard's announcement (remote guards cost
  an active message — the write-side scan), computes the minimum, frees
  every retirement tagged strictly before it, then advances the
  interval.

The liveness trade is the mirror image of the read-side win: one guard
that never passes a quiescent point blocks **all** reclamation (worse
than IBR, same failure mode as a stuck EBR pin), and garbage is unbounded
between quiescent points — which is exactly what the write-heavy
cross-scheme scenarios make visible in ``peak_pending``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from ..atomics.integer import AtomicUInt64
from ..comm.aggregation import BatchCounters
from ..errors import TokenStateError
from .protocol import GuardBase, ReclaimerBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["QSBRReclaimer"]


class _QSBRGuard(GuardBase):
    """Per-task quiescence announcement + retired buffer."""

    __slots__ = ("seen",)

    def __init__(
        self, reclaimer: "QSBRReclaimer", locale_id: int, guard_id: int
    ) -> None:
        super().__init__(reclaimer, locale_id, guard_id)
        #: Last interval this guard was quiescent at.  Local announcements
        #: are plain CPU atomics (opt-out); the reclaim scan reads them
        #: remotely.  Registration is a quiescent point, so start current.
        self.seen = AtomicUInt64(
            reclaimer._rt,
            locale_id,
            reclaimer._interval,
            name=f"qsbr{guard_id}@{locale_id}",
            opt_out=True,
        )

    # pin/unpin: inherited zero-cost flag flips — the QSBR selling point.

    def quiesce(self) -> None:
        """Announce a quiescent state (one local atomic store).

        Contract: the guard must not be pinned — a quiescent state means
        "this task holds no protected references right now".
        """
        self._check_usable()
        if self._pinned:
            raise TokenStateError("cannot quiesce while pinned")
        self.seen.write(self._rec._interval)  # type: ignore[attr-defined]

    def _retire_tag(self) -> int:
        # Interval reads are plain Python loads: the counter only moves
        # at root-driven try_reclaim, never concurrently with workers
        # under the workload discipline.
        return self._rec._interval  # type: ignore[attr-defined]


class QSBRReclaimer(ReclaimerBase):
    """Quiescent-state-based reclamation manager."""

    scheme = "qsbr"

    def __init__(self, runtime: "Runtime") -> None:
        super().__init__(runtime)
        #: The global interval counter.  Plain int: advanced only inside
        #: ``try_reclaim`` (root-driven), read racily-but-harmlessly by
        #: workers tagging retirements.
        self._interval = 1

    # ------------------------------------------------------------------
    def _make_guard(self, locale_id: int, guard_id: int) -> _QSBRGuard:
        return _QSBRGuard(self, locale_id, guard_id)

    def phase_boundary(self) -> None:
        """Mark every unpinned guard quiescent (the ``forall`` join hook).

        Charged from the calling (root) task: announcing for a guard on
        another locale is a remote store — the bookkeeping a real QSBR
        runtime would have folded into each task's own loop, surfaced
        here at the phase boundary where the workload discipline puts it.
        """
        self._check_alive()
        interval = self._interval
        guards = [g for g in self._registered_guards() if not g._pinned]
        ctx = self._rt._ctx
        if ctx is None:
            for guard in guards:
                guard.seen.write(interval)  # type: ignore[attr-defined]
            return
        # Quiescence announcements destined for guards behind one shared
        # uplink ride one aggregated AM per window-sized batch.
        counters = BatchCounters()
        self._rt.network.aggregator.write_cells(
            ctx,
            [(guard.seen, interval) for guard in guards],  # type: ignore[attr-defined]
            counters,
        )
        self._scan_batches += counters.batches

    def try_reclaim(self) -> bool:
        """Free everything retired before the minimum quiescent interval.

        Never blocks: with a never-quiescing guard the minimum pins the
        horizon and the call simply frees nothing and returns ``False``.
        """
        self._check_alive()
        ctx = self._rt._own_context("try_reclaim")
        self._reclaim_attempts += 1
        self._note_pending()
        # Epoch-policy gate (docs/POLICY.md): a deferral skips the
        # announcement scan and leaves the interval unchanged, so guards'
        # quiescence marks stay comparable on the next attempt.
        if self._policy_defers():
            return False
        min_seen = self._interval
        guards = self._registered_guards()
        # The write-side scan, domain-ordered: same-uplink guards'
        # announcements are read in batches (docs/AGGREGATION.md).
        counters = BatchCounters()
        seen = self._rt.network.aggregator.read_cells(
            ctx, [guard.seen for guard in guards], counters  # type: ignore[attr-defined]
        )
        self._scan_batches += counters.batches
        for s in seen:
            if s < min_seen:
                min_seen = s
        freed = self._drain_retired(guards, lambda entry: entry[1] >= min_seen)
        self._interval += 1
        if freed:
            self._reclaims += 1
        tr = self._tracer
        if tr is not None:
            tr.reclaim(
                "advance",
                self.scheme,
                ctx.now,
                interval=self._interval,
                min_seen=min_seen,
                freed=freed,
            )
        self._policy_tick()
        return freed > 0

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["interval"] = self._interval
        return out
