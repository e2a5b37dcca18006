"""64-bit atomic integers and booleans (Chapel's ``atomic int`` analogue).

These are the primitives the paper benchmarks ``AtomicObject`` against in
Figure 3, and the raw material the rest of the library is built from:
every flag in the epoch manager's election protocol is an
:class:`AtomicBool`, and the epoch counters are integer cells.
:class:`~repro.core.atomic_object.AtomicObject` keeps its compressed
pointer word itself rather than in an :class:`AtomicUInt64`, but shares
the same base (:class:`~repro.atomics.cell.ChargedWord`), plan and lock
domain, so a compressed pointer op costs exactly what an ``AtomicUInt64``
op costs.

Semantics follow Chapel's ``atomic`` type closely:

* ``read`` / ``write`` / ``exchange`` / ``compareAndSwap`` (spelled
  ``compare_and_swap``, returning ``bool``) / ``compareExchange``
  (returning the observed value too) / ``fetch_add`` & friends;
* integer arithmetic wraps modulo 2**64, with :class:`AtomicInt64`
  interpreting the word as two's-complement signed.

Every operation is routed through the network model: under ``ugni`` it pays
the NIC price even locally (network atomics are not coherent); under
``none`` a remote op pays an active-message round trip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from .cell import AtomicCell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["AtomicUInt64", "AtomicInt64", "AtomicBool"]

_MASK64 = (1 << 64) - 1
_SIGN_BIT = 1 << 63
_TWO64 = 1 << 64


def _to_signed(word: int) -> int:
    """Interpret a 64-bit word as two's-complement signed."""
    return word - (1 << 64) if word & _SIGN_BIT else word


def _to_word(value: int) -> int:
    """Truncate a Python int to a 64-bit word (two's complement)."""
    return value & _MASK64


class AtomicUInt64(AtomicCell):
    """An unsigned 64-bit atomic word.

    The workhorse: its operation set and costs are exactly what the
    paper's RDMA-atomic fast path pays, and a compressed ``AtomicObject``
    op is charged identically.
    """

    __slots__ = ("_value",)

    def __init__(
        self,
        runtime: "Runtime",
        home: int,
        initial: int = 0,
        name: str = "",
        *,
        opt_out: bool = False,
    ) -> None:
        super().__init__(runtime, home, name, opt_out=opt_out)
        self._value = _to_word(initial)

    # -- reads / writes ---------------------------------------------------
    # Every op charges through ChargedWord._enter, the one charge body.
    # read/write/exchange/compare_and_swap normalize their operands before
    # it, so their commits cannot raise and need no try/finally; the
    # fetch_* ops compute under the lock and keep one.

    def read(self) -> int:
        """Atomically load the current value."""
        self._enter(False)
        value = self._value
        self._lock.release()
        return value

    def write(self, value: int) -> None:
        """Atomically store ``value``.

        The lock orders the store against in-flight read-modify-writes
        (a blind store racing a fetch_add must serialize, not vanish).
        """
        value &= _MASK64
        self._enter(False)
        self._value = value
        self._lock.release()

    def peek(self) -> int:
        """Non-atomic, cost-free load (test/debug instrumentation only)."""
        return self._value

    def poke(self, value: int) -> None:
        """Non-atomic, cost-free store (test/debug instrumentation only)."""
        self._value = _to_word(value)

    # -- read-modify-write -------------------------------------------------
    def exchange(self, value: int) -> int:
        """Atomically store ``value`` and return the previous value."""
        value &= _MASK64
        self._enter(False)
        old = self._value
        self._value = value
        self._lock.release()
        return old

    def compare_and_swap(self, expected: int, desired: int) -> bool:
        """CAS: store ``desired`` iff the value equals ``expected``.

        Returns ``True`` on success (Chapel's ``compareAndSwap``).
        """
        expected &= _MASK64
        desired &= _MASK64
        self._enter(False)
        ok = self._value == expected
        if ok:
            self._value = desired
        self._lock.release()
        return ok

    def compare_exchange(self, expected: int, desired: int) -> Tuple[bool, int]:
        """CAS returning ``(success, observed_value)``."""
        expected &= _MASK64
        self._enter(False)
        try:
            observed = self._value
            if observed == expected:
                self._value = desired & _MASK64
                return True, observed
            return False, observed
        finally:
            self._lock.release()

    def fetch_add(self, delta: int) -> int:
        """Atomically add ``delta`` (mod 2**64); return the previous value."""
        self._enter(False)
        try:
            old = self._value
            self._value = (old + delta) & _MASK64
            return old
        finally:
            self._lock.release()

    def add(self, delta: int) -> None:
        """Atomically add ``delta`` (result discarded)."""
        self.fetch_add(delta)

    def fetch_sub(self, delta: int) -> int:
        """Atomically subtract ``delta``; return the previous value."""
        return self.fetch_add(-delta)

    def sub(self, delta: int) -> None:
        """Atomically subtract ``delta`` (result discarded)."""
        self.fetch_add(-delta)

    def fetch_or(self, bits: int) -> int:
        """Atomic bitwise OR; returns the previous value."""
        self._enter(False)
        try:
            old = self._value
            self._value = (old | bits) & _MASK64
            return old
        finally:
            self._lock.release()

    def fetch_and(self, bits: int) -> int:
        """Atomic bitwise AND; returns the previous value."""
        self._enter(False)
        try:
            old = self._value
            self._value = (old & bits) & _MASK64
            return old
        finally:
            self._lock.release()

    def fetch_xor(self, bits: int) -> int:
        """Atomic bitwise XOR; returns the previous value."""
        self._enter(False)
        try:
            old = self._value
            self._value = (old ^ bits) & _MASK64
            return old
        finally:
            self._lock.release()


class AtomicInt64(AtomicUInt64):
    """A signed 64-bit atomic integer (Chapel's ``atomic int``).

    Shares the unsigned machinery; only the value interpretation differs.
    This is the baseline type in Figure 3's ``atomic int`` series.
    """

    __slots__ = ()

    def read(self) -> int:
        """Atomically load, interpreted as signed."""
        self._enter(False)
        value = self._value
        self._lock.release()
        return value - _TWO64 if value & _SIGN_BIT else value

    def peek(self) -> int:
        """Cost-free signed load (tests only)."""
        return _to_signed(super().peek())

    def exchange(self, value: int) -> int:
        """Atomic exchange, returning the previous signed value."""
        value &= _MASK64
        self._enter(False)
        old = self._value
        self._value = value
        self._lock.release()
        return old - _TWO64 if old & _SIGN_BIT else old

    def compare_exchange(self, expected: int, desired: int) -> Tuple[bool, int]:
        """CAS returning ``(success, observed)`` with signed ``observed``."""
        ok, observed = super().compare_exchange(expected, desired)
        return ok, _to_signed(observed)

    # fetch_sub/sub need no override: the base class routes them through
    # this signed fetch_add.

    def fetch_add(self, delta: int) -> int:
        """Wrapping atomic add, returning the previous signed value."""
        return _to_signed(super().fetch_add(delta))

    def fetch_or(self, bits: int) -> int:
        """Atomic bitwise OR, returning the previous signed value."""
        return _to_signed(super().fetch_or(bits))

    def fetch_and(self, bits: int) -> int:
        """Atomic bitwise AND, returning the previous signed value."""
        return _to_signed(super().fetch_and(bits))

    def fetch_xor(self, bits: int) -> int:
        """Atomic bitwise XOR, returning the previous signed value."""
        return _to_signed(super().fetch_xor(bits))


class AtomicBool(AtomicCell):
    """An atomic boolean flag with ``testAndSet`` / ``clear``.

    The epoch manager's election protocol (Listing 4) is built on exactly
    two of these per manager: the per-locale flag and the global flag.
    """

    __slots__ = ("_value",)

    def __init__(
        self,
        runtime: "Runtime",
        home: int,
        initial: bool = False,
        name: str = "",
        *,
        opt_out: bool = False,
    ) -> None:
        super().__init__(runtime, home, name, opt_out=opt_out)
        self._value = bool(initial)

    def read(self) -> bool:
        """Atomically load the flag."""
        self._enter(False)
        value = self._value
        self._lock.release()
        return value

    def write(self, value: bool) -> None:
        """Atomically store the flag."""
        value = bool(value)
        self._enter(False)
        self._value = value
        self._lock.release()

    def peek(self) -> bool:
        """Cost-free load (tests only)."""
        return self._value

    def exchange(self, value: bool) -> bool:
        """Atomically store ``value``; return the previous flag."""
        value = bool(value)
        self._enter(False)
        old = self._value
        self._value = value
        self._lock.release()
        return old

    def test_and_set(self) -> bool:
        """Set the flag; return the *previous* value.

        Chapel semantics: a return of ``False`` means the caller won the
        flag (it was clear); ``True`` means someone else holds it.
        """
        return self.exchange(True)

    def clear(self) -> None:
        """Reset the flag to ``False``."""
        self.write(False)

    def compare_and_swap(self, expected: bool, desired: bool) -> bool:
        """CAS on the flag; returns success."""
        expected = bool(expected)
        desired = bool(desired)
        self._enter(False)
        ok = self._value == expected
        if ok:
            self._value = desired
        self._lock.release()
        return ok
