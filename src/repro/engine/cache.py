"""Cross-run compilation cache for lowered op-stream columns.

Lowered columns are a pure function of ``(column kind, shape params,
config seed, first task id, task count)``: per-task RNG streams are
seeded :func:`~repro.runtime.tasking.task_seed` of the task id and a
phase's ``forall`` hands out consecutive task ids, so two runs that
agree on those inputs draw bit-identical columns.  That makes the columns safe to memoize *across*
:class:`~repro.runtime.runtime.Runtime` instances — exactly what
``--repeats`` and ``scenarios --all`` create: a fresh runtime per
repetition or point whose lowering work was, before this cache, recomputed from
scratch every time.

The cache is deliberately process-global and lock-protected (runtimes
may be driven from several threads) with a small LRU bound — columns for
the bench shapes are a few hundred KiB, and the bound only exists so a
long ``scenarios --all`` sweep cannot grow without limit.  Charge
*plans* (the runtime's service points, route rows) are **not** cached:
they alias live runtime objects and are cheap to rebuild; only the
RNG-derived columns — the dominant lowering cost — are shared.

Keys never include runtime object identities, so there is nothing to
invalidate: a key either reproduces the same columns or is a different
key.  ``clear()`` exists for tests that want to measure the cold path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Tuple

__all__ = ["CompilationCache", "COLUMN_CACHE"]


class CompilationCache:
    """A small thread-safe LRU mapping column keys to built artifacts."""

    def __init__(self, max_entries: int = 256) -> None:
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return the cached artifact for ``key``, building it on a miss.

        ``build`` runs outside the lock — two threads racing on the same
        cold key may both build (the artifacts are equal by construction;
        last writer wins), which is cheaper than serializing all lowering
        behind one lock.
        """
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                pass
            else:
                self._entries.move_to_end(key)
                self._hits += 1
                return value
        value = build()
        with self._lock:
            self._misses += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
        return value

    def stats(self) -> Tuple[int, int, int]:
        """``(hits, misses, entries)`` — read by tests and bench reports."""
        with self._lock:
            return (self._hits, self._misses, len(self._entries))

    def clear(self) -> None:
        """Drop all entries and reset counters (tests' cold-path lever)."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0


#: The process-global column cache shared by every Runtime (see module
#: docstring for why global is the point, not an accident).
COLUMN_CACHE = CompilationCache()
