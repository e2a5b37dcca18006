"""64-bit atomic integers and booleans (Chapel's ``atomic int`` analogue).

These are the primitives the paper benchmarks ``AtomicObject`` against in
Figure 3, and the raw material the rest of the library is built from:
every flag in the epoch manager's election protocol is an
:class:`AtomicBool`, and the epoch counters are integer cells.
:class:`~repro.core.atomic_object.AtomicObject` keeps its compressed
pointer word itself rather than in an :class:`AtomicUInt64`, but shares
the same base (:class:`~repro.atomics.cell.ChargedWord`) and plan, so a
compressed pointer op costs exactly what an ``AtomicUInt64`` op costs.

Semantics follow Chapel's ``atomic`` type closely:

* ``read`` / ``write`` / ``compareAndSwap`` (spelled
  ``compare_and_swap``, returning ``bool``) / ``fetchAdd`` (``fetch_add``,
  ``add``, ``sub``) on the integers, ``exchange`` on the signed one, and
  ``testAndSet`` / ``clear`` on the flag — the operations the simulated
  library and its workloads use;
* integer arithmetic wraps modulo 2**64, with :class:`AtomicInt64`
  interpreting the word as two's-complement signed.

Every operation is routed through the network model: under ``ugni`` it pays
the NIC price even locally (network atomics are not coherent); under
``none`` a remote op pays an active-message round trip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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
    # Every op charges through ChargedWord._enter, the one charge body,
    # and then commits.

    def read(self) -> int:
        """Atomically load the current value."""
        self._enter(False)
        value = self._value
        return value

    def write(self, value: int) -> None:
        """Atomically store ``value``."""
        value &= _MASK64
        self._enter(False)
        self._value = value

    def peek(self) -> int:
        """Non-atomic, cost-free load (test/debug instrumentation only)."""
        return self._value

    def poke(self, value: int) -> None:
        """Non-atomic, cost-free store (test/debug instrumentation only)."""
        self._value = _to_word(value)

    # -- read-modify-write -------------------------------------------------
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
        return ok

    def fetch_add(self, delta: int) -> int:
        """Atomically add ``delta`` (mod 2**64); return the previous value."""
        self._enter(False)
        old = self._value
        self._value = (old + delta) & _MASK64
        return old

    def add(self, delta: int) -> None:
        """Atomically add ``delta`` (result discarded)."""
        self.fetch_add(delta)

    def sub(self, delta: int) -> None:
        """Atomically subtract ``delta`` (result discarded)."""
        self.fetch_add(-delta)


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
        return old - _TWO64 if old & _SIGN_BIT else old

    # sub needs no override: the base class routes it through this
    # signed fetch_add.

    def fetch_add(self, delta: int) -> int:
        """Wrapping atomic add, returning the previous signed value."""
        return _to_signed(super().fetch_add(delta))


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

    def write(self, value: bool) -> None:
        """Atomically store the flag."""
        value = bool(value)
        self._enter(False)
        self._value = value

    def peek(self) -> bool:
        """Cost-free load (tests only)."""
        return self._value

    def exchange(self, value: bool) -> bool:
        """Atomically store ``value``; return the previous flag."""
        value = bool(value)
        self._enter(False)
        old = self._value
        self._value = value
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
