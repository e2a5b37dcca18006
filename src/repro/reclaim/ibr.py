"""``IntervalReclaimer``: interval-based reclamation (birth-era tagging).

The design point between EBR and hazard pointers (after Wen et al.'s
interval-based reclamation): readers announce a cheap per-region **birth
era** instead of per-pointer hazards, and retired objects carry their
**retire era**.  An object may be freed once every active reader began
*after* it was retired — a stalled reader only holds back the garbage
retired since its own birth, never the whole history:

* a single **global era** counter lives on the creating locale (the only
  distributed state, like EBR's global epoch), with one locale-private
  cached copy per locale (plain CPU atomics, like EBR's
  ``locale_epoch``);
* ``pin`` reads the local era cache and publishes it as the guard's
  birth era (two local CPU atomics, with the same publish/re-validate
  loop as EBR's pin); ``unpin`` clears it;
* ``defer_delete`` tags the address with the locale era (one local
  atomic read + one plain store);
* ``try_reclaim`` — root-driven, at phase boundaries, like every other
  scheme here — advances the global era (a CAS, single-setter), refreshes
  every locale's cache (remote stores), scans every guard's birth cell
  (remote reads), and frees all retirements tagged strictly before the
  minimum live birth era.

Contrast with EBR: the era *always* advances — there is no global scan
veto — so a guard pinned forever cannot freeze the epoch cycle; it merely
pins the reclamation horizon at its own birth era while everything older
keeps draining (``tests/test_reclaimers.py`` demonstrates exactly this
against EBR's behaviour).  Contrast with HP: no per-pointer protect
traffic and no validation re-reads, but garbage is bounded by reader
*intervals* rather than by a hard per-guard constant.

Era advancement must not race reader pins (the mid-advance stale-cache
window described at :data:`repro.core.epoch_manager.EPOCH_CYCLE` for EBR
applies here too), which is
why ``try_reclaim`` belongs to the root task at quiescent phase
boundaries — the same discipline the scenario workloads already follow
for every scheme.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..atomics.integer import AtomicUInt64
from ..comm.aggregation import BatchCounters
from .protocol import GuardBase, ReclaimerBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["IntervalReclaimer"]


class _IBRGuard(GuardBase):
    """Per-task birth-era announcement + retired buffer."""

    __slots__ = ("birth", "_era_cache")

    def __init__(
        self, reclaimer: "IntervalReclaimer", locale_id: int, guard_id: int
    ) -> None:
        super().__init__(reclaimer, locale_id, guard_id)
        #: Era this guard entered its current region at; 0 = inactive.
        self.birth = AtomicUInt64(
            reclaimer._rt,
            locale_id,
            0,
            name=f"ibr{guard_id}@{locale_id}",
            opt_out=True,
        )
        #: The locale's era cache (shared by every guard on the locale).
        self._era_cache = reclaimer._locale_eras[locale_id]

    def pin(self) -> None:
        """Publish the birth era (EBR-style publish + re-validate loop)."""
        ctx = self._check_usable()
        cache = self._era_cache
        birth = self.birth
        era = cache.read()
        while True:
            birth.write(era)
            current = cache.read()
            if current == era:
                break
            era = current
        self._note_pin(ctx)
        self._pinned = True

    def unpin(self) -> None:
        """Clear the birth era (one local atomic store)."""
        self._check_usable()
        self.birth.write(0)
        self._pinned = False

    def _retire_tag(self) -> int:
        return self._era_cache.read()

    def _on_unregister(self) -> None:
        if self._pinned:
            self.birth.write(0)


class IntervalReclaimer(ReclaimerBase):
    """Interval-based reclamation manager.

    The global era lives on the creating task's locale (locale 0
    outside a task), as ``EpochManager``'s global epoch does.
    """

    scheme = "ibr"

    def __init__(self, runtime: "Runtime") -> None:
        super().__init__(runtime)
        ctx = runtime._ctx
        self.home = ctx.locale_id if ctx is not None else 0
        #: The authoritative era (a true network atomic, like EBR's
        #: global epoch: remote locales read and CAS it during reclaim).
        self._era = AtomicUInt64(
            runtime, self.home, 1, name=f"ibr_era@{self.home}"
        )
        #: Locale-private era caches (plain CPU atomics for pins/retires).
        self._locale_eras: List[AtomicUInt64] = [
            AtomicUInt64(
                runtime, lid, 1, name=f"ibr_era_cache@{lid}", opt_out=True
            )
            for lid in range(runtime.num_locales)
        ]

    # ------------------------------------------------------------------
    def _make_guard(self, locale_id: int, guard_id: int) -> _IBRGuard:
        return _IBRGuard(self, locale_id, guard_id)

    def current_era(self) -> int:
        """Cost-free read of the global era (tests only)."""
        return self._era.peek()

    def try_reclaim(self) -> bool:
        """Advance the era and free everything older than every reader.

        Root/phase-boundary discipline applies (module docstring).  The
        CAS keeps advancement single-owner when callers race: losers back
        off and return ``False`` without draining, like EBR's advance.
        """
        self._check_alive()
        ctx = self._rt._own_context("try_reclaim")
        self._reclaim_attempts += 1
        self._note_pending()
        # Epoch-policy gate (docs/POLICY.md): a deferral leaves the era
        # untouched — no CAS, no cache refresh, no birth scan.
        if self._policy_defers():
            return False
        era = self._era.read()
        if not self._era.compare_and_swap(era, era + 1):
            # CAS loser: another racer owns this advance (and its tick).
            return False
        new_era = era + 1
        guards = self._registered_guards()
        aggregator = self._rt.network.aggregator
        # Domain-ordered refresh + scan (docs/AGGREGATION.md): era pushes
        # to every locale's cache and the birth-era reads; those behind
        # one shared uplink ride one batched AM per window.
        counters = BatchCounters()
        aggregator.write_cells(
            ctx, [(cache, new_era) for cache in self._locale_eras], counters
        )
        births = aggregator.read_cells(
            ctx, [guard.birth for guard in guards], counters  # type: ignore[attr-defined]
        )
        self._scan_batches += counters.batches
        min_birth: Optional[int] = None
        for b in births:
            if b and (min_birth is None or b < min_birth):
                min_birth = b
        horizon = new_era if min_birth is None else min_birth
        freed = self._drain_retired(guards, lambda entry: entry[1] >= horizon)
        if freed:
            self._reclaims += 1
        tr = self._tracer
        if tr is not None:
            tr.reclaim(
                "advance",
                self.scheme,
                ctx.now,
                era=new_era,
                horizon=horizon,
                freed=freed,
            )
        self._policy_tick()
        return True

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["era"] = self._era.peek()
        return out
