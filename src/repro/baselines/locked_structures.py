"""Lock-based baseline structures: stack, queue, map.

These are the synchronized counterparts the non-blocking structures are
measured against.  Each guards plain Python storage with one
:class:`~repro.baselines.spinlock.SpinLock` whose flag lives on the
structure's home locale; every operation additionally charges the data
access itself (a GET/PUT against the home locale when called remotely), so
the baselines pay realistic PGAS prices, not just lock overhead.

Semantically they are trivially correct (single lock), which also makes
them the *oracles* in differential tests: the non-blocking structures must
agree with them on any sequential history.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from ..errors import EmptyStructureError
from .spinlock import SpinLock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["LockedStack", "LockedQueue", "LockedMap"]


class _LockedBase:
    """Shared home-locale bookkeeping and data-access charging."""

    def __init__(self, runtime: "Runtime", locale: int, name: str) -> None:
        self._rt = runtime
        self.home = runtime.locale(locale).id
        self.lock = SpinLock(runtime, locale=self.home, name=f"{name}.lock")

    def _charge_data(self, nbytes: int = 64, write: bool = False) -> None:
        """Charge the payload access that the lock protects."""
        ctx = self._rt._ctx
        if ctx is None:
            return
        if write:
            self._rt.network.write(ctx, self.home, nbytes=nbytes)
        else:
            self._rt.network.read(ctx, self.home, nbytes=nbytes)


class LockedStack(_LockedBase):
    """A LIFO stack under one global spinlock."""

    def __init__(self, runtime: "Runtime", *, locale: int = 0, name: str = "lstack") -> None:
        super().__init__(runtime, locale, name)
        self._items: List[Any] = []

    def push(self, value: Any) -> None:
        """Push under the lock (one remote PUT when called off-locale)."""
        with self.lock:
            self._charge_data(write=True)
            self._items.append(value)

    def pop(self) -> Any:
        """Pop under the lock; raises :class:`EmptyStructureError` if empty."""
        with self.lock:
            self._charge_data(write=True)
            if not self._items:
                raise EmptyStructureError("pop from empty LockedStack")
            return self._items.pop()

    def try_pop(self) -> Optional[Any]:
        """Pop or ``None`` when empty."""
        try:
            return self.pop()
        except EmptyStructureError:
            return None

    def peek(self) -> Optional[Any]:
        """Read the top without removal."""
        with self.lock:
            self._charge_data()
            return self._items[-1] if self._items else None

    def __len__(self) -> int:
        with self.lock:
            return len(self._items)


class LockedQueue(_LockedBase):
    """A FIFO queue under one global spinlock."""

    def __init__(self, runtime: "Runtime", *, locale: int = 0, name: str = "lqueue") -> None:
        super().__init__(runtime, locale, name)
        self._items: deque = deque()

    def enqueue(self, value: Any) -> None:
        """Append under the lock."""
        with self.lock:
            self._charge_data(write=True)
            self._items.append(value)

    def dequeue(self) -> Any:
        """Remove the oldest; raises :class:`EmptyStructureError` if empty."""
        with self.lock:
            self._charge_data(write=True)
            if not self._items:
                raise EmptyStructureError("dequeue from empty LockedQueue")
            return self._items.popleft()

    def try_dequeue(self) -> Optional[Any]:
        """Dequeue or ``None`` when empty."""
        try:
            return self.dequeue()
        except EmptyStructureError:
            return None

    def __len__(self) -> int:
        with self.lock:
            return len(self._items)


class LockedMap(_LockedBase):
    """A hash map under one global spinlock (the hash-table baseline)."""

    def __init__(self, runtime: "Runtime", *, locale: int = 0, name: str = "lmap") -> None:
        super().__init__(runtime, locale, name)
        self._data: Dict[Any, Any] = {}

    def put(self, key: Any, value: Any) -> bool:
        """Insert/update; True when the key is new."""
        with self.lock:
            self._charge_data(write=True)
            added = key not in self._data
            self._data[key] = value
            return added

    def get(self, key: Any, default: Any = None) -> Any:
        """Look up under the lock."""
        with self.lock:
            self._charge_data()
            return self._data.get(key, default)

    def contains(self, key: Any) -> bool:
        """Membership test under the lock."""
        with self.lock:
            self._charge_data()
            return key in self._data

    def remove(self, key: Any) -> bool:
        """Delete; True when present."""
        with self.lock:
            self._charge_data(write=True)
            return self._data.pop(key, _MISSING) is not _MISSING

    def update(self, key: Any, fn, default: Any = None) -> Any:
        """Atomic read-modify-write under the lock."""
        with self.lock:
            self._charge_data(write=True)
            nv = fn(self._data.get(key, default))
            self._data[key] = nv
            return nv

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Snapshot of the contents."""
        with self.lock:
            return iter(list(self._data.items()))

    def __len__(self) -> int:
        with self.lock:
            return len(self._data)


_MISSING = object()
