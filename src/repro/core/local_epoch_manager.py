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
``_EpochManagerInstance`` that acts as its own manager.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..errors import EpochManagerError, TokenStateError
from .epoch_manager import EpochManagerStats, _EpochManagerInstance
from .token import Token

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["LocalEpochManager"]


class LocalEpochManager(_EpochManagerInstance):
    """Single-locale epoch-based reclamation (no distributed state)."""

    def __init__(self, runtime: "Runtime", *, locale: Optional[int] = None) -> None:
        from ..runtime.context import maybe_context

        if locale is None:
            ctx = maybe_context()
            locale = ctx.locale_id if ctx is not None else 0
        super().__init__(self, runtime, runtime.locale(locale).id)
        self.stats = EpochManagerStats()
        self._destroyed = False
        #: Epoch policy (docs/POLICY.md).  Tokens consult
        #: ``policy.wants_pin_times``; the single-locale manager itself
        #: keeps the fixed cadence — policies drive the *distributed*
        #: reclaim paths, which this helper has none of.
        self.policy = runtime.config.resolved_policy().make_epoch_policy()
        #: Flight-recorder hooks (docs/OBSERVABILITY.md): tokens read
        #: these through the same manager interface the distributed
        #: manager exposes, so limbo-age facts and retire events work
        #: identically on the single-locale path.
        self._full = getattr(runtime, "_full_tracer", None)
        self._track_ages = self.policy.wants_retire_times or self._full is not None

    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self._destroyed:
            raise EpochManagerError("LocalEpochManager used after destroy()")

    def register(self) -> Token:
        """Obtain a token; caller must be on the manager's locale."""
        self._check_alive()
        from ..runtime.context import current_context

        ctx = current_context()
        if ctx.locale_id != self.locale_id:
            raise TokenStateError(
                f"LocalEpochManager on locale {self.locale_id} cannot register"
                f" a task on locale {ctx.locale_id}; use EpochManager"
            )
        token = self.free_tokens.pop()
        if token is None:
            token = self.make_token()
        else:
            token._registered = True
        return token

    # ------------------------------------------------------------------
    def try_reclaim(self) -> bool:
        """Advance the local epoch if every local token allows it.

        Entirely locale-local: one flag, one scan over this locale's
        tokens, one limbo-list drain, one bulk free.
        """
        self._check_alive()
        self.stats.inc("reclaim_attempts")
        if self.is_setting_epoch.test_and_set():
            self.stats.inc("elections_lost_local")
            return False
        try:
            this_epoch = self.locale_epoch.read()
            for token in self.allocated_tokens:
                e = token.local_epoch.read()
                if e != 0 and e != this_epoch:
                    self.stats.inc("scans_unsafe")
                    return False
            new_epoch = (this_epoch % self.cycle) + 1
            self.locale_epoch.write(new_epoch)
            freed = self._drain([new_epoch % self.cycle])
            self.stats.inc("advances")
            self.stats.inc("objects_reclaimed", freed)
            return True
        finally:
            self.is_setting_epoch.clear()

    tryReclaim = try_reclaim

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
        freed = self._drain(list(range(self.cycle)))
        self.stats.inc("objects_reclaimed", freed)
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LocalEpochManager(locale={self.locale_id},"
            f" epoch={self.current_epoch()})"
        )
