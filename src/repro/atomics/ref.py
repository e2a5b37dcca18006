"""Atomic references to in-memory Python objects (runtime-internal).

The public ``AtomicObject`` works on *heap addresses* (wide pointers) so it
can model compression, RDMA, and reclamation hazards.  The library's own
metadata — token free lists, the allocated-token list, limbo-list nodes —
doesn't live in the simulated heap; it is ordinary Python data private to a
locale.  :class:`AtomicRef` gives those structures a CAS-able cell holding
any Python object, priced like a 64-bit atomic.

CAS compares by **identity** (``is``), matching pointer-CAS semantics.
Because Python objects are garbage collected, Treiber-style structures over
``AtomicRef`` cannot suffer ABA-induced *corruption* (a node's identity is
never recycled while referenced) — which is precisely the "with a GC this
is safe" footnote from the shared-memory literature.  The simulated-heap
structures, which *can* suffer ABA, are where the paper's ``ABA`` wrapper
earns its keep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

from .cell import AtomicCell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["AtomicRef"]


class AtomicRef(AtomicCell):
    """A CAS-able cell holding an arbitrary Python object (or ``None``)."""

    __slots__ = ("_value",)

    def __init__(
        self,
        runtime: "Runtime",
        home: int,
        initial: Any = None,
        name: str = "",
        *,
        opt_out: bool = True,
    ) -> None:
        # opt_out defaults True: AtomicRef is used for locale-private
        # metadata, exactly the variables the paper opts out of network
        # atomics for.
        super().__init__(runtime, home, name, opt_out=opt_out)
        self._value = initial

    def read(self) -> Any:
        """Atomically load the referenced object."""
        self._enter(False)
        value = self._value
        self._lock.release()
        return value

    def write(self, value: Any) -> None:
        """Atomically store ``value``."""
        self._enter(False)
        self._value = value
        self._lock.release()

    def peek(self) -> Any:
        """Cost-free load (tests only)."""
        return self._value

    def exchange(self, value: Any) -> Any:
        """Atomically store ``value``; return the previous reference."""
        self._enter(False)
        old = self._value
        self._value = value
        self._lock.release()
        return old

    def compare_and_swap(self, expected: Any, desired: Any) -> bool:
        """Identity CAS: store ``desired`` iff the cell holds ``expected``."""
        self._enter(False)
        ok = self._value is expected
        if ok:
            self._value = desired
        self._lock.release()
        return ok

    def compare_exchange(self, expected: Any, desired: Any) -> Tuple[bool, Any]:
        """Identity CAS returning ``(success, observed)``."""
        self._enter(False)
        observed = self._value
        ok = observed is expected
        if ok:
            self._value = desired
        self._lock.release()
        return ok, observed
