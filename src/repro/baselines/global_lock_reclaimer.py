"""A read-side baseline: one global hot reader counter.

The ablation counterpart to the :class:`~repro.core.epoch_manager.EpochManager`'s
privatized pin/unpin.  Instead of per-locale epochs it keeps **one**
global atomic reader count (on locale 0): every task entering a
protected region does a remote ``fetch_add`` and exiting does a
``fetch_add(-1)``.  The coordination cost therefore grows with locales
instead of staying flat (contrast Figure 7's privatized pin/unpin), which
is what ``ablation_reclaimers`` measures.  It reclaims nothing: the
ablation compares only the read side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..atomics.integer import AtomicInt64

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["GlobalLockReclaimer", "ReclaimerGuard"]


class ReclaimerGuard:
    """Token-shaped adapter so the ablation drives both schemes alike."""

    #: Guard-protocol flag (see repro.reclaim): no per-pointer hazards.
    needs_protect = False

    __slots__ = ("_mgr",)

    def __init__(self, mgr: "GlobalLockReclaimer") -> None:
        self._mgr = mgr

    def pin(self) -> None:
        """Enter the protected region (remote fetch_add on the hot counter)."""
        self._mgr.enter()

    def unpin(self) -> None:
        """Leave the protected region (remote decrement)."""
        self._mgr.exit()

    def unregister(self) -> None:
        """No-op (no per-task state to release)."""

    def close(self) -> None:
        """Alias for :meth:`unregister`; hooks ``forall`` task cleanup."""
        self.unregister()


class GlobalLockReclaimer:
    """Read-side hot-counter baseline: every pin and unpin is one atomic
    on the same cell."""

    def __init__(self, runtime: "Runtime") -> None:
        #: The single hot cell every task on every locale hits (locale 0).
        self.readers = AtomicInt64(runtime, 0, 0, name="glr.readers")

    def register(self) -> ReclaimerGuard:
        """Interface parity with ``EpochManager.register``."""
        return ReclaimerGuard(self)

    def enter(self) -> None:
        """Reader entry: one (usually remote) atomic increment."""
        self.readers.add(1)

    def exit(self) -> None:
        """Reader exit: one (usually remote) atomic decrement."""
        self.readers.sub(1)
