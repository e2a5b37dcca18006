"""``LocalEpochManager``: the shared-memory-optimized EBR variant.

Functionally the paper's ``LocalEpochManager``: same token / limbo-list /
3-epoch machinery as :class:`~repro.core.epoch_manager.EpochManager`, but

* there is exactly **one** instance, on the creating locale — no
  privatization table, no per-locale fan-out;
* there is **no global epoch object** — the locale epoch *is* the epoch,
  so ``try_reclaim`` never leaves the locale (no coforall, no network
  flags);
* remote objects are **not** considered: deferring a remote address is an
  error (the paper's variant simply doesn't handle them), so reclamation
  is always a purely local bulk free.

Use it for structures confined to one locale.  Its state — epoch cell,
election flag, node pool, limbo lists, token lists — is exactly one
privatized instance of the distributed manager, so the class *is* an
``_EpochManagerInstance`` that acts as its own manager.  Its ``stats()``
has the same keys as ``EpochManager.stats()`` (both come from
:class:`~repro.core.manager_core.ManagerCore`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..errors import EpochManagerError, TokenStateError
from .epoch_manager import EpochManager, EpochManagerStats, _EpochManagerInstance
from .manager_core import ManagerCore
from .token import Token

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["LocalEpochManager"]


class LocalEpochManager(ManagerCore, _EpochManagerInstance):
    """Single-locale epoch-based reclamation (no distributed state)."""

    scheme = "ebr"
    _destroyed_error = EpochManagerError

    def __init__(self, runtime: "Runtime", *, locale: Optional[int] = None) -> None:
        if locale is None:
            ctx = runtime._ctx
            locale = ctx.locale_id if ctx is not None else 0
        # Policy and tracer hooks first: tokens read them through the
        # same manager interface the distributed manager exposes.  The
        # single-locale manager itself keeps the fixed cadence — policies
        # drive the *distributed* reclaim paths, which it has none of.
        ManagerCore.__init__(self, runtime)
        _EpochManagerInstance.__init__(self, self, runtime, runtime.locale(locale).id)
        self._counters = EpochManagerStats()

    def get_privatized_instance(self, locale_id: Optional[int] = None) -> "LocalEpochManager":
        """The one instance, which is the manager itself (an unregistering
        token finds its free list here)."""
        return self

    # ------------------------------------------------------------------
    def register(self) -> Token:
        """Obtain a token; caller must be on the manager's locale."""
        self._check_alive()
        ctx = self._rt._own_context("register")
        if ctx.locale_id != self.locale_id:
            raise TokenStateError(
                f"LocalEpochManager on locale {self.locale_id} cannot register"
                f" a task on locale {ctx.locale_id}; use EpochManager"
            )
        return self.take_token()

    # ------------------------------------------------------------------
    def try_reclaim(self) -> bool:
        """Advance the local epoch if every local token allows it.

        Entirely locale-local: one flag, one scan over this locale's
        tokens, one limbo-list drain, one bulk free.  Samples peak
        pending garbage first, as ``EpochManager.try_reclaim`` does.
        """
        self._check_alive()
        self._note_pending()
        return self._try_reclaim()

    tryReclaim = try_reclaim

    def _try_reclaim(self) -> bool:
        """The attempt itself (also a token's unsampled ``try_reclaim``)."""
        self._check_alive()
        self._counters.inc("reclaim_attempts")
        if self.is_setting_epoch.test_and_set():
            self._counters.inc("elections_lost_local")
            return False
        try:
            this_epoch = self.locale_epoch.read()
            for token in self.allocated_tokens:
                e = token.local_epoch.read()
                if e != 0 and e != this_epoch:
                    self._counters.inc("scans_unsafe")
                    return False
            new_epoch = (this_epoch % self.cycle) + 1
            self.locale_epoch.write(new_epoch)
            freed = self._drain([new_epoch % self.cycle])
            self._counters.inc("advances")
            self._counters.inc("objects_reclaimed", freed)
            return True
        finally:
            self.is_setting_epoch.clear()

    def _drain(self, indices: List[int]) -> int:
        """Drain the given limbo lists; everything must be local."""
        offsets: List[int] = []
        for idx in indices:
            for addr in self.limbo_lists[idx].drain():
                if addr.locale != self.locale_id:
                    raise TokenStateError(
                        "LocalEpochManager does not support remote objects;"
                        f" got an address on locale {addr.locale}"
                    )
                offsets.append(addr.offset)
        if offsets:
            return self.runtime.free_bulk(self.locale_id, offsets)
        return 0

    def clear(self) -> int:
        """Reclaim everything (caller guarantees quiescence)."""
        self._check_alive()
        self._note_pending()
        freed = self._drain(list(range(self.cycle)))
        self._counters.inc("objects_reclaimed", freed)
        return freed

    def destroy(self) -> None:
        """Final clear; further use raises."""
        if self._destroyed:
            return
        self.clear()
        self._destroyed = True

    def current_epoch(self) -> int:
        """Cost-free read of the epoch (tests only)."""
        return self.locale_epoch.peek()

    def pending_count(self) -> int:
        """Cost-free count of objects currently in limbo."""
        return self.limbo_count()

    _counts = EpochManager._counts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LocalEpochManager(locale={self.locale_id},"
            f" epoch={self.current_epoch()})"
        )
