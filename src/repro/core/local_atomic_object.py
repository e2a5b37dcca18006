"""``LocalAtomicObject``: the shared-memory-only variant.

The paper's initial prototype: ignore the locality half of the wide pointer
entirely and keep a 64-bit atomic of just the virtual address.  Valid only
when every object it will ever hold lives on the *same* locale as the
atomic itself — which it enforces — in exchange for always paying CPU-atomic
prices (it "opts out" of network atomics even under ``ugni``, since no
remote agent ever touches it).

API-compatible with :class:`~repro.core.atomic_object.AtomicObject`
(including the ``*_aba`` variants, backed by a local DCAS), so shared-memory
data structures can be written once and upgraded to distributed operation by
swapping the atomic type — mirroring how the Chapel module pair is used.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..atomics.cell import ChargedWord
from ..errors import LocaleError, RuntimeStateError
from ..memory.address import NIL, GlobalAddress, is_nil
from .aba import ABA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["LocalAtomicObject"]


class LocalAtomicObject(ChargedWord):
    """Atomic wide-pointer cell restricted to objects on its own locale.

    Narrow ops opt out of network atomics (the ``opt_out`` plan of its
    home); the ``*_aba`` variants take the wide (DCAS) route, where
    ``opt_out`` is irrelevant.
    """

    __slots__ = ("aba_protection", "_addr", "_count")

    def __init__(
        self,
        runtime: "Runtime",
        *,
        locale: int = 0,
        initial: GlobalAddress = NIL,
        aba_protection: bool = True,
        name: str = "",
    ) -> None:
        home = runtime.locale(locale).id
        super().__init__(runtime, home, name, name or f"localatomic@{home}", True)
        self.aba_protection = bool(aba_protection)
        self._addr = self._validate(initial)
        self._count = 0

    # ------------------------------------------------------------------
    def _validate(self, addr: GlobalAddress) -> GlobalAddress:
        if not isinstance(addr, GlobalAddress):
            raise TypeError(
                f"LocalAtomicObject holds GlobalAddress values,"
                f" got {type(addr).__name__}"
            )
        if not is_nil(addr) and addr.locale != self.home:
            raise LocaleError(
                f"LocalAtomicObject on locale {self.home} cannot hold a"
                f" pointer to locale {addr.locale}; use AtomicObject"
            )
        return addr

    def _require_aba(self) -> None:
        if not self.aba_protection:
            raise RuntimeStateError(
                "this LocalAtomicObject was created with aba_protection=False"
            )

    # ------------------------------------------------------------------
    # normal operations (64-bit CPU atomics)
    # ------------------------------------------------------------------
    def read(self) -> GlobalAddress:
        """Atomically load the pointer."""
        self._enter(False)
        addr = self._addr
        self._lock.release()
        return addr

    def write(self, addr: GlobalAddress) -> None:
        """Atomically store a (same-locale) pointer."""
        addr = self._validate(addr)
        self._enter(False)
        self._addr = addr
        self._lock.release()

    def exchange(self, addr: GlobalAddress) -> GlobalAddress:
        """Atomically store ``addr``; return the previous pointer."""
        addr = self._validate(addr)
        self._enter(False)
        old = self._addr
        self._addr = addr
        self._lock.release()
        return old

    def compare_and_swap(
        self, expected: GlobalAddress, desired: GlobalAddress
    ) -> bool:
        """Pointer-word CAS (ABA-prone by design; see the ABA variants)."""
        desired = self._validate(desired)
        self._enter(False)
        try:
            ok = self._addr == expected
            if ok:
                self._addr = desired
        finally:
            self._lock.release()
        return ok

    def compare_exchange(
        self, expected: GlobalAddress, desired: GlobalAddress
    ) -> Tuple[bool, GlobalAddress]:
        """CAS returning ``(success, observed_pointer)``."""
        desired = self._validate(desired)
        self._enter(False)
        try:
            observed = self._addr
            ok = observed == expected
            if ok:
                self._addr = desired
        finally:
            self._lock.release()
        return ok, observed

    # ------------------------------------------------------------------
    # ABA-protected operations (local DCAS)
    # ------------------------------------------------------------------
    def read_aba(self) -> ABA[GlobalAddress]:
        """128-bit load of (pointer, counter)."""
        self._require_aba()
        self._enter(True)
        addr, count = self._addr, self._count
        self._lock.release()
        return ABA(addr, count)

    def write_aba(self, addr: GlobalAddress) -> None:
        """128-bit store; bumps the counter."""
        self._require_aba()
        addr = self._validate(addr)
        self._enter(True)
        self._addr = addr
        self._count += 1
        self._lock.release()

    def exchange_aba(self, addr: GlobalAddress) -> ABA[GlobalAddress]:
        """128-bit swap; returns the previous snapshot."""
        self._require_aba()
        addr = self._validate(addr)
        self._enter(True)
        old, count = self._addr, self._count
        self._addr = addr
        self._count = count + 1
        self._lock.release()
        return ABA(old, count)

    def compare_and_swap_aba(
        self, expected: ABA[GlobalAddress], desired: GlobalAddress
    ) -> bool:
        """DCAS against (pointer, counter); immune to address recycling."""
        self._require_aba()
        desired = self._validate(desired)
        value, count = expected.value, expected.count
        self._enter(True)
        try:
            ok = self._count == count and self._addr == value
            if ok:
                self._addr = desired
                self._count = count + 1
        finally:
            self._lock.release()
        return ok

    # Chapel-style aliases.
    readABA = read_aba
    writeABA = write_aba
    exchangeABA = exchange_aba
    compareAndSwapABA = compare_and_swap_aba
    compareAndSwap = compare_and_swap

    # ------------------------------------------------------------------
    def peek(self) -> GlobalAddress:
        """Cost-free load (tests only)."""
        return self._addr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LocalAtomicObject(home={self.home}, addr={self._addr!r})"
