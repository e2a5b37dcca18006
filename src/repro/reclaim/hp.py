"""``HazardPointerReclaimer``: per-task hazard-pointer reclamation.

Michael's hazard pointers, mapped onto the simulated PGAS machine:

* every guard owns ``slots_per_guard`` **hazard slots** — 64-bit atomic
  words on the guard's locale holding compressed wide pointers (0 =
  empty).  They are opted out of network atomics (the owner publishes
  with plain CPU atomics — the cheap store+fence of real HP), so
  ``protect`` and the clearing ``unpin`` cost one local CPU atomic per
  slot through the
  precompiled routes in :mod:`repro.comm.routes`; a *remote* scanner
  reading them pays the active-message price, which is precisely HP's
  distributed-memory weakness the cross-scheme scenarios expose;
* ``protect(addr, slot)`` publishes ``addr`` to a slot and returns it;
  callers must re-validate their source pointer afterwards (the
  structures in :mod:`repro.structures` do this when
  ``guard.needs_protect`` is set — the standard HP protect/validate
  handshake).  HP's guards are the only ones with a ``protect``;
* ``defer_delete`` appends to a guard-local retired buffer; when the
  buffer reaches ``scan_threshold`` the guard **scans**: it reads every
  registered guard's slots, frees the retired objects no slot protects
  (bulk-grouped by owning locale), and keeps the rest.

The payoff relative to epoch-based schemes is the *bounded garbage*
guarantee: a guard's unreclaimed retirements never exceed
``scan_threshold`` plus the number of live hazard slots machine-wide,
regardless of stalled tasks — a stalled (even pinned) guard only holds
back the specific addresses its slots name.  The price is the scan
(remote reads proportional to guards x slots) and the per-pointer
protect traffic on the read side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Set

from ..atomics.integer import AtomicUInt64
from ..comm.aggregation import BatchCounters
from ..errors import TokenStateError
from ..memory.address import GlobalAddress, is_nil
from ..memory.compression import COMPRESSED_NIL, compress
from .protocol import GuardBase, ReclaimerBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["HazardPointerReclaimer"]


class _HPGuard(GuardBase):
    """One task's hazard slots + retired buffer."""

    needs_protect = True

    __slots__ = ("slots", "_occupied")

    def __init__(
        self, reclaimer: "HazardPointerReclaimer", locale_id: int, guard_id: int
    ) -> None:
        super().__init__(reclaimer, locale_id, guard_id)
        rt = reclaimer._rt
        self.slots: List[AtomicUInt64] = [
            AtomicUInt64(
                rt,
                locale_id,
                COMPRESSED_NIL,
                name=f"hp{guard_id}.{k}@{locale_id}",
                opt_out=True,
            )
            for k in range(reclaimer.slots_per_guard)
        ]
        #: Owner-local shadow of which slots hold a hazard, so ``unpin``
        #: only pays a (charged) clearing store for slots actually used.
        self._occupied = [False] * reclaimer.slots_per_guard

    # ------------------------------------------------------------------
    def protect(self, addr: GlobalAddress, slot: int = 0) -> GlobalAddress:
        """Publish ``addr`` in hazard ``slot`` (one local atomic store).

        The caller must re-read its source pointer afterwards and retry
        if it changed — publication alone does not prove the object was
        still reachable when the hazard became visible.
        """
        self._check_usable()
        if not self._pinned:
            raise TokenStateError("protect requires a pinned guard")
        word = COMPRESSED_NIL if is_nil(addr) else compress(addr)
        self.slots[slot].write(word)
        self._occupied[slot] = word != COMPRESSED_NIL
        return addr

    def unpin(self) -> None:
        """Leave the region: clear every occupied slot, then unpin."""
        self._check_usable()
        for k, occupied in enumerate(self._occupied):
            if occupied:
                self.slots[k].write(COMPRESSED_NIL)
                self._occupied[k] = False
        self._pinned = False

    def _on_unregister(self) -> None:
        for k, occupied in enumerate(self._occupied):
            if occupied:
                self.slots[k].write(COMPRESSED_NIL)
                self._occupied[k] = False

    # ------------------------------------------------------------------
    def _after_retire(self) -> None:
        rec: "HazardPointerReclaimer" = self._rec  # type: ignore[assignment]
        if len(self._retired) >= rec.scan_threshold:
            rec._scan([self])

    def try_reclaim(self) -> bool:
        """Scan now, for this guard's retired buffer only."""
        self._check_usable()
        rec: "HazardPointerReclaimer" = self._rec  # type: ignore[assignment]
        return rec._scan([self]) > 0


class HazardPointerReclaimer(ReclaimerBase):
    """Hazard-pointer reclamation manager.

    Parameters
    ----------
    runtime:
        The simulated machine.
    slots_per_guard:
        Hazard slots per guard (default 4 — enough for the hand-over-hand
        traversals in :mod:`repro.structures`).
    scan_threshold:
        Retired-buffer length that triggers a guard's scan (default 128).
        Lower bounds garbage tighter but scans — and their remote slot
        reads — more often.
    """

    scheme = "hp"

    def __init__(
        self,
        runtime: "Runtime",
        *,
        slots_per_guard: int = 4,
        scan_threshold: int = 128,
    ) -> None:
        if slots_per_guard < 1:
            raise ValueError(
                f"slots_per_guard must be >= 1, got {slots_per_guard}"
            )
        if scan_threshold < 1:
            raise ValueError(
                f"scan_threshold must be >= 1, got {scan_threshold}"
            )
        super().__init__(runtime)
        self.slots_per_guard = int(slots_per_guard)
        self.scan_threshold = int(scan_threshold)
        self._scans = 0

    # ------------------------------------------------------------------
    def _make_guard(self, locale_id: int, guard_id: int) -> _HPGuard:
        return _HPGuard(self, locale_id, guard_id)

    def _hazard_set(self) -> Set[int]:
        """Read every registered guard's slots (charged atomic reads).

        Local slots cost a CPU atomic apiece; slots on other locales pay
        the active-message round trip — the scan is where HP's costs
        concentrate on distributed memory.  With the aggregation window
        open on a multi-level topology, slots of guards behind the same
        shared uplink are read in window-sized batches — one uplink
        traversal per batch instead of one AM round trip per slot — the
        domain-ordered scan of docs/AGGREGATION.md.  Outcomes are
        unchanged: the same words are observed, only the message count
        (and with it the charged time) drops.
        """
        cells = [
            cell
            for guard in self._registered_guards()
            for cell in guard.slots
        ]
        counters = BatchCounters()
        words = self._rt.network.aggregator.read_cells(
            self._rt._own_context("hazard scan"), cells, counters
        )
        self._scan_batches += counters.batches
        return {word for word in words if word != COMPRESSED_NIL}

    def _scan(self, guards: List[_HPGuard], *, global_sample: bool = False) -> int:
        """Scan hazards and free the unprotected retirements of ``guards``.

        Also drains the orphan list (retirements whose guard has
        unregistered) — orphans have no announcing task left, so only a
        live hazard can keep them.

        ``global_sample`` controls the peak-pending bookkeeping: the
        machine-wide sample is only meaningful (and only deterministic)
        from quiescent root calls; a guard's own mid-phase threshold
        scan samples just the buffers it is about to drain — other
        guards' buffers are concurrently mutating, and reading their
        lengths would make the reported peak depend on task order.
        """
        self._check_alive()
        self._reclaim_attempts += 1
        if global_sample:
            self._note_pending()
        else:
            pending = sum(len(g._retired) for g in guards)
            if pending > self._peak_pending:
                self._peak_pending = pending
        hazards = self._hazard_set()
        freed = self._drain_retired(
            guards, lambda entry: compress(entry[0]) in hazards
        )
        self._scans += 1
        if freed:
            self._reclaims += 1
        return freed

    def try_reclaim(self) -> bool:
        """Scan on behalf of *every* guard (root / phase-boundary use)."""
        ctx = self._rt._own_context("try_reclaim")
        # Epoch-policy gate (docs/POLICY.md): a deferral skips the scan —
        # and with it every remote hazard read — entirely.  Guard-local
        # threshold scans (``_after_retire``) are NOT gated: they are HP's
        # bounded-garbage guarantee, not a cadence choice.
        if self._policy_defers():
            self._reclaim_attempts += 1
            return False
        freed = self._scan(
            self._registered_guards(), global_sample=True  # type: ignore[arg-type]
        )
        tr = self._tracer
        if tr is not None:
            # Root-driven summary (docs/OBSERVABILITY.md); guard-local
            # threshold scans are worker-driven and stay un-summarized.
            tr.reclaim("scan", self.scheme, ctx.now, freed=freed)
        self._policy_tick()
        return freed > 0

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out.update(
            scans=self._scans,
            slots_per_guard=self.slots_per_guard,
            scan_threshold=self.scan_threshold,
        )
        return out
