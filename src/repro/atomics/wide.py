"""128-bit double-word atomics (DCAS / ``CMPXCHG16B`` emulation).

Two of the paper's mechanisms need to update *two* adjacent 64-bit words as
one atomic unit:

* the **ABA wrapper**: a 64-bit (compressed) pointer next to a 64-bit
  modification counter — a CAS that also checks the counter cannot be fooled
  by address recycling;
* the **uncompressed fallback**: when more than 2**16 locales preclude
  pointer compression, the full wide pointer (48-bit address + locale word)
  must be swapped whole.

Crucially, *no interconnect offers a 128-bit network atomic*: a remote DCAS
is always remote execution (an active message handled by the target's
progress thread), never RDMA.  The routing in
:meth:`repro.comm.network.NetworkModel.atomic_op` encodes that with
``wide=True``, and it is why the paper's ``AtomicObject (ABA)`` series track
the active-message cost curves in Figure 3 even when ``ugni`` is available.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from .cell import AtomicCell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["AtomicWide128"]

_MASK64 = (1 << 64) - 1

Pair = Tuple[int, int]


def _norm(pair: Pair) -> Pair:
    """Truncate both halves of a pair to 64-bit words."""
    lo, hi = pair
    return lo & _MASK64, hi & _MASK64


class AtomicWide128(AtomicCell):
    """An atomically-updated pair of 64-bit words ``(lo, hi)``.

    By convention throughout this library ``lo`` holds the (compressed)
    pointer word and ``hi`` holds the ABA counter — matching the paper's
    layout of a 64-bit counter adjacent to the 64-bit word.
    """

    __slots__ = ("_lo", "_hi")

    def __init__(
        self,
        runtime: "Runtime",
        home: int,
        initial: Pair = (0, 0),
        name: str = "",
        *,
        opt_out: bool = False,
    ) -> None:
        super().__init__(runtime, home, name, opt_out=opt_out)
        self._lo, self._hi = _norm(initial)

    # ------------------------------------------------------------------
    def read(self) -> Pair:
        """Atomically load the pair.

        A 128-bit atomic load is implemented on x86 via a DCAS of the value
        against itself, so it pays the wide-op price.
        """
        self._enter(True)
        pair = self._lo, self._hi
        self._lock.release()
        return pair

    def write(self, pair: Pair) -> None:
        """Atomically store the pair."""
        lo, hi = _norm(pair)
        self._enter(True)
        self._lo, self._hi = lo, hi
        self._lock.release()

    def peek(self) -> Pair:
        """Cost-free load (tests only)."""
        return self._lo, self._hi

    def exchange(self, pair: Pair) -> Pair:
        """Atomically store ``pair``; return the previous pair."""
        lo, hi = _norm(pair)
        self._enter(True)
        old = self._lo, self._hi
        self._lo, self._hi = lo, hi
        self._lock.release()
        return old

    def compare_and_swap(self, expected: Pair, desired: Pair) -> bool:
        """DCAS: store ``desired`` iff the pair equals ``expected``.

        This is the operation that defeats ABA: even if the pointer half
        has been recycled back to the same bits, the counter half will have
        advanced and the DCAS fails.
        """
        elo, ehi = _norm(expected)
        dlo, dhi = _norm(desired)
        self._enter(True)
        ok = self._lo == elo and self._hi == ehi
        if ok:
            self._lo, self._hi = dlo, dhi
        self._lock.release()
        return ok

    def compare_exchange(self, expected: Pair, desired: Pair) -> Tuple[bool, Pair]:
        """DCAS returning ``(success, observed_pair)``."""
        elo, ehi = _norm(expected)
        dlo, dhi = _norm(desired)
        self._enter(True)
        observed = self._lo, self._hi
        ok = observed == (elo, ehi)
        if ok:
            self._lo, self._hi = dlo, dhi
        self._lock.release()
        return ok, observed

    # ------------------------------------------------------------------
    def bump_exchange_lo(self, lo: int) -> Pair:
        """Atomically set ``lo`` and increment the counter; return old pair.

        Convenience for exchange-style operations that still want ABA
        protection on subsequent CASes (used by the limbo list's node
        recycling stack).
        """
        lo &= _MASK64
        self._enter(True)
        old = self._lo, self._hi
        self._lo = lo
        self._hi = (old[1] + 1) & _MASK64
        self._lock.release()
        return old
