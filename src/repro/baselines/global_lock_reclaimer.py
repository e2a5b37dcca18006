"""A blocking reclamation baseline: global reader counter + drain.

The ablation counterpart to the :class:`~repro.core.epoch_manager.EpochManager`.
Instead of per-locale epochs, it keeps **one** global atomic reader count
(on locale 0): every task entering a protected region does a remote
``fetch_add`` and exiting does a ``fetch_sub``.  Reclamation spins until
the count is zero, then frees everything deferred.

Two deliberate weaknesses, both measured by the ablation benchmark:

* every ``enter``/``exit`` is a *remote* atomic on one hot cell — the
  coordination cost grows with locales instead of staying flat (contrast
  Figure 7's privatized pin/unpin);
* ``try_reclaim`` *blocks* (spins) waiting for readers, so a stalled
  reader stalls reclamation — the liveness weakening the paper's
  non-blocking design avoids importing into its data structures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..atomics.integer import AtomicInt64
from ..memory.address import GlobalAddress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["GlobalLockReclaimer", "ReclaimerGuard"]


class ReclaimerGuard:
    """Token-shaped adapter so workloads can swap reclaimers uniformly."""

    #: Guard-protocol flag (see repro.reclaim): no per-pointer hazards.
    needs_protect = False

    __slots__ = ("_mgr",)

    def __init__(self, mgr: "GlobalLockReclaimer") -> None:
        self._mgr = mgr

    def pin(self) -> None:
        """Enter the protected region (remote fetch_add on the hot counter)."""
        self._mgr.enter()

    def unpin(self) -> None:
        """Leave the protected region (remote fetch_sub)."""
        self._mgr.exit()

    def protect(self, addr: GlobalAddress, slot: int = 0) -> GlobalAddress:
        """Guard-protocol no-op (region-based protection)."""
        return addr

    def defer_delete(self, addr: GlobalAddress) -> None:
        """Queue ``addr`` for the next drain."""
        self._mgr.defer(addr)

    def try_reclaim(self) -> bool:
        """Drain if no readers are active (spins briefly)."""
        return self._mgr.try_reclaim()

    def unregister(self) -> None:
        """No-op (no per-task state to release)."""

    close = unregister


class GlobalLockReclaimer:
    """Reader-counter-based deferred reclamation (blocking baseline)."""

    def __init__(self, runtime: "Runtime", *, home: int = 0, spin_limit: int = 64) -> None:
        self._rt = runtime
        self.home = runtime.locale(home).id
        #: The single hot cell every task on every locale hits.
        self.readers = AtomicInt64(runtime, self.home, 0, name="glr.readers")
        self._deferred: List[GlobalAddress] = []
        #: Bounded spin in try_reclaim (it *blocks*, but not forever).
        self.spin_limit = spin_limit
        self.objects_reclaimed = 0

    def register(self) -> ReclaimerGuard:
        """Interface parity with ``EpochManager.register``."""
        return ReclaimerGuard(self)

    # ------------------------------------------------------------------
    def enter(self) -> None:
        """Reader entry: one (usually remote) atomic increment."""
        self.readers.add(1)

    def exit(self) -> None:
        """Reader exit: one (usually remote) atomic decrement."""
        self.readers.sub(1)

    def defer(self, addr: GlobalAddress) -> None:
        """Queue an address for the next successful drain."""
        self._deferred.append(addr)

    # ------------------------------------------------------------------
    def try_reclaim(self) -> bool:
        """Spin (bounded) for zero readers, then free everything queued.

        Returns True when a drain happened.  The spin is the blocking step
        the paper's design eliminates.
        """
        for _ in range(self.spin_limit):
            if self.readers.read() == 0:
                break
        else:
            return False
        batch, self._deferred = self._deferred, []
        if not batch:
            return True
        # NOTE: unlike EBR this has a race window (a reader may enter just
        # after the zero observation) — acceptable for a baseline whose
        # purpose is cost comparison; correctness-critical tests use EBR.
        by_locale: dict = {}
        for addr in batch:
            by_locale.setdefault(addr.locale, []).append(addr.offset)
        for lid, offsets in by_locale.items():
            self._rt.free_bulk(lid, offsets)
        self.objects_reclaimed += len(batch)
        return True

    def clear(self) -> int:
        """Free everything regardless of readers (quiescent teardown)."""
        batch, self._deferred = self._deferred, []
        by_locale: dict = {}
        for addr in batch:
            by_locale.setdefault(addr.locale, []).append(addr.offset)
        for lid, offsets in by_locale.items():
            self._rt.free_bulk(lid, offsets)
        self.objects_reclaimed += len(batch)
        return len(batch)
