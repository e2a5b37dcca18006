"""The ``ABA`` wrapper: a 64-bit value adjacent to a 64-bit counter.

The ABA problem: thread τ1 reads pointer ``α`` from an atomic; τ2 unlinks
and frees ``α``; τ3 allocates a new node that lands at the *same* address
``α`` and installs it; τ1's compare-and-swap now succeeds even though the
structure changed completely.  The classic fix — and the one the paper
adopts, because a concurrent memory-reclamation system is exactly what is
being built (the chicken-and-egg paradox) — is to pair the pointer with a
monotonically increasing counter and update both with a double-word CAS:
address recycling cannot rewind the counter, so the stale CAS fails.

:class:`ABA` is the immutable snapshot type returned by the ``*ABA``
operation variants of :class:`~repro.core.atomic_object.AtomicObject`.
Like the
Chapel original (which uses the ``forwarding`` decorator), it is designed
to be used "as if it were the value it wraps": equality, hashing, truth
value and attribute forwarding all delegate sensibly.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from ..memory.address import GlobalAddress, is_nil

T = TypeVar("T")

__all__ = ["ABA"]


class ABA(Generic[T]):
    """An immutable (value, counter) snapshot from an ABA-protected atomic.

    ``value`` is normally a :class:`~repro.memory.address.GlobalAddress`
    (the object the atomic pointed at when read); ``count`` is the write
    counter at that instant.  A ``compareAndSwapABA`` succeeds only if
    *both* still match.
    """

    __slots__ = ("_value", "_count")

    def __init__(self, value: T, count: int) -> None:
        self._value = value
        self._count = int(count)

    # -- accessors ---------------------------------------------------------
    @property
    def value(self) -> T:
        """The wrapped value (usually a wide pointer)."""
        return self._value

    @property
    def count(self) -> int:
        """The ABA counter at the time of the read."""
        return self._count

    def get_object(self) -> T:
        """The wrapped value (Listing 1's ``oldHead.getObject()``)."""
        return self._value

    # -- value semantics -----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, ABA):
            return self._value == other._value and self._count == other._count
        # Comparing against a bare value ignores the counter — the
        # "seamless forwarding" convenience from the paper.
        return bool(self._value == other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((self._value, self._count))

    def __bool__(self) -> bool:
        """Truthiness forwards to the value; a nil pointer is falsy."""
        if isinstance(self._value, GlobalAddress):
            return not is_nil(self._value)
        return bool(self._value)

    def __getattr__(self, name: str):
        """Forward unknown attribute reads to the wrapped value.

        The analogue of Chapel's ``forwarding`` decorator: an ``ABA``
        behaves like the thing it wraps for read-only use.
        """
        return getattr(self._value, name)

    def __repr__(self) -> str:
        return f"ABA(value={self._value!r}, count={self._count})"
