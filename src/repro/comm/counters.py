"""Communication diagnostics: counting every PGAS operation by class.

Chapel ships a ``CommDiagnostics`` module that the paper's authors use to
demonstrate that privatization makes distributed objects "no longer
communication bound".  This module is the analogue: the network layer
increments a :class:`CommDiagnostics` instance for every simulated GET, PUT,
remote atomic, active message and remote fork, bucketed per initiating
locale.

Counters are also the backbone of several tests and ablations: e.g. the
privatization ablation asserts that a pinned/unpinned epoch token performs
*zero* remote operations, and the scatter-list ablation counts AMs saved by
bulk deallocation.

Implementation: the record path is *striped* — every real thread owns a
private ``[locale][op-index]`` counter array, so recording is a plain list
increment with no lock and no string comparison (op names are resolved to
integer indices once, at route-compilation or record time).  Because a
stripe is only ever written by its owning thread, counts are exact; the
queries aggregate all stripes under a lock.  This is what lets every
simulated operation record a diagnostic without serializing the whole
runtime through one global lock, and what makes ``stop()`` genuinely free
for excluded setup/teardown phases (a single attribute check, no lock).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Tuple

__all__ = ["CommOp", "CommDiagnostics"]


class CommOp:
    """Symbolic names for the operation classes we count."""

    GET = "get"
    PUT = "put"
    AMO = "amo"  # remote (NIC) atomic memory operation
    LOCAL_AMO = "local_amo"  # atomic that stayed on the issuing locale
    AM = "am"  # active message (remote execution of a closure)
    FORK = "fork"  # remote task spawn (an `on` statement)
    BULK = "bulk"  # bulk one-sided transfer

    ALL: Tuple[str, ...] = (GET, PUT, AMO, LOCAL_AMO, AM, FORK, BULK)


#: Operation name -> stripe index; resolved once here, used everywhere
#: (routes precompile these indices so the hot path never touches strings).
_OP_TO_INDEX: Dict[str, int] = {op: i for i, op in enumerate(CommOp.ALL)}
#: Extra slot accumulating payload bytes of BULK transfers.
_BULK_INDEX = _OP_TO_INDEX[CommOp.BULK]
_BULK_BYTES_INDEX = len(CommOp.ALL)
_NUM_COUNTERS = _BULK_BYTES_INDEX + 1
#: Key order of dict views (matches the historical ``as_dict`` layout).
_KEYS: Tuple[str, ...] = CommOp.ALL + ("bulk_bytes",)


class CommDiagnostics:
    """Thread-safe, stripe-per-thread operation counters for a runtime.

    Counting can be paused/resumed (``stop()`` / ``start()``) so benchmarks
    can exclude setup and teardown, mirroring Chapel's
    ``startCommDiagnostics`` / ``stopCommDiagnostics``.  The record path is
    lock-free (see module docstring); control and query methods take the
    aggregation lock.
    """

    def __init__(self, num_locales: int) -> None:
        self._num_locales = num_locales
        self._enabled = True
        self._lock = threading.Lock()
        #: Every thread's stripe, for aggregation; stripes are appended
        #: under ``_lock`` and only ever mutated by their owning thread.
        self._stripes: List[List[List[int]]] = []
        self._tls = threading.local()

    # -- op-name resolution (the single place unknown ops are rejected) ---
    @staticmethod
    def op_index(op: str) -> int:
        """Resolve an operation name to its counter index (or raise).

        Route precompilation and :meth:`record` both come through here, so
        an unknown op string can never silently miscount — it fails fast
        with a :class:`ValueError` at the one choke point.
        """
        try:
            return _OP_TO_INDEX[op]
        except KeyError:
            raise ValueError(f"unknown comm op {op!r}") from None

    def _rows(self) -> List[List[int]]:
        """This thread's stripe (created and registered on first use)."""
        try:
            return self._tls.rows
        except AttributeError:
            return self._make_rows()

    def _make_rows(self) -> List[List[int]]:
        rows = [[0] * _NUM_COUNTERS for _ in range(self._num_locales)]
        with self._lock:
            self._stripes.append(rows)
        self._tls.rows = rows
        return rows

    # -- control ---------------------------------------------------------
    def start(self) -> None:
        """Enable counting (the default)."""
        self._enabled = True

    def stop(self) -> None:
        """Disable counting; records made while stopped are dropped."""
        self._enabled = False

    def reset(self) -> None:
        """Zero all counters on all locales.

        Call from a quiescent point (between benchmark trials): stripes
        belong to other threads and are zeroed in place.
        """
        with self._lock:
            for rows in self._stripes:
                for row in rows:
                    for i in range(_NUM_COUNTERS):
                        row[i] = 0

    # -- recording (called by the network layer) --------------------------
    def record(self, locale: int, op: str, nbytes: int = 0) -> None:
        """Attribute one operation of class ``op`` to ``locale``.

        ``nbytes`` is only meaningful for ``CommOp.BULK``.  The enabled
        check comes first so a stopped diagnostics object costs one
        attribute read per operation — nothing is locked or resolved.
        """
        if not self._enabled:
            return
        idx = self.op_index(op)
        row = self._rows()[locale]
        row[idx] += 1
        if idx == _BULK_INDEX:
            row[_BULK_BYTES_INDEX] += nbytes

    def record_index(self, locale: int, index: int) -> None:
        """Hot-path record by precompiled index (see comm.routes).

        ``ChargedWord._enter`` skips this call: it increments the same
        thread stripe through the task context's cached ``ctx.diag_rows``.
        """
        if self._enabled:
            try:
                rows = self._tls.rows
            except AttributeError:
                rows = self._make_rows()
            rows[locale][index] += 1

    def record_bulk(self, locale: int, nbytes: int) -> None:
        """Hot-path record of one BULK transfer of ``nbytes``."""
        if self._enabled:
            row = self._rows()[locale]
            row[_BULK_INDEX] += 1
            row[_BULK_BYTES_INDEX] += nbytes

    # -- queries -----------------------------------------------------------
    def _aggregate(self) -> List[List[int]]:
        """Sum all stripes into one ``[locale][counter]`` matrix."""
        out = [[0] * _NUM_COUNTERS for _ in range(self._num_locales)]
        with self._lock:
            for rows in self._stripes:
                for loc in range(self._num_locales):
                    row = rows[loc]
                    acc = out[loc]
                    for i in range(_NUM_COUNTERS):
                        acc[i] += row[i]
        return out

    def per_locale(self) -> List[Dict[str, int]]:
        """Snapshot of counters for each locale, in locale order."""
        return [dict(zip(_KEYS, row)) for row in self._aggregate()]

    def total(self, op: str) -> int:
        """Total count of one operation class across locales.

        ``op`` may be any :class:`CommOp` name or ``"bulk_bytes"``.
        """
        if op == "bulk_bytes":
            idx = _BULK_BYTES_INDEX
        else:
            idx = self.op_index(op)
        return sum(row[idx] for row in self._aggregate())

    def totals(self) -> Dict[str, int]:
        """Totals of every operation class across locales."""
        agg = self._aggregate()
        return {
            key: sum(row[i] for row in agg) for i, key in enumerate(_KEYS)
        }

    def remote_ops(self) -> int:
        """Total operations that actually crossed the network."""
        t = self.totals()
        return t["get"] + t["put"] + t["amo"] + t["am"] + t["fork"] + t["bulk"]

    def iter_nonzero(self) -> Iterator[Tuple[int, str, int]]:
        """Yield ``(locale, op, count)`` for every nonzero counter."""
        for loc, d in enumerate(self.per_locale()):
            for op, count in d.items():
                if count:
                    yield loc, op, count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CommDiagnostics(totals={self.totals()})"
