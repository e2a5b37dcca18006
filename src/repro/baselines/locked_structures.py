"""Lock-based baseline structures: a queue and a map.

These are the synchronized counterparts the non-blocking structures are
measured against.  Each guards plain Python storage with one
:class:`~repro.baselines.spinlock.SpinLock` whose flag lives on the
structure's home locale, locale 0; every operation additionally charges
the data access itself (a GET/PUT against the home locale when called
remotely), so the baselines pay realistic PGAS prices, not just lock
overhead.

The examples run them next to their non-blocking counterparts
(``producer_consumer_queue.py``, ``distributed_word_count.py``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..errors import EmptyStructureError
from .spinlock import SpinLock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["LockedQueue", "LockedMap"]


class _LockedBase:
    """Shared home-locale bookkeeping and data-access charging."""

    def __init__(self, runtime: "Runtime", name: str) -> None:
        self._rt = runtime
        self.home = 0
        self.lock = SpinLock(runtime, name=f"{name}.lock")

    def _charge_data(self, write: bool = False) -> None:
        """Charge the 64-byte payload access that the lock protects."""
        ctx = self._rt._ctx
        if ctx is None:
            return
        if write:
            self._rt.network.write(ctx, self.home, nbytes=64)
        else:
            self._rt.network.read(ctx, self.home, nbytes=64)


class LockedQueue(_LockedBase):
    """A FIFO queue under one global spinlock."""

    def __init__(self, runtime: "Runtime", *, name: str = "lqueue") -> None:
        super().__init__(runtime, name)
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

    def __init__(self, runtime: "Runtime", *, name: str = "lmap") -> None:
        super().__init__(runtime, name)
        self._data: Dict[Any, Any] = {}

    def get(self, key: Any, default: Any = None) -> Any:
        """Look up under the lock."""
        with self.lock:
            self._charge_data()
            return self._data.get(key, default)

    def update(self, key: Any, fn, default: Any = None) -> Any:
        """Atomic read-modify-write under the lock."""
        with self.lock:
            self._charge_data(write=True)
            nv = fn(self._data.get(key, default))
            self._data[key] = nv
            return nv

    def __len__(self) -> int:
        with self.lock:
            return len(self._data)

