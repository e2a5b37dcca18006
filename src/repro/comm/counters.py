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

Implementation: the counters are one ``[locale][op-index]`` matrix, so
recording is a plain list increment with no string comparison (op names
are resolved to integer indices once, at route-compilation or record
time).  A runtime is used by one thread (docs/ENGINE.md, "One thread per
runtime"), so the matrix needs no lock and counts are exact.  Counting is
always on: to leave a phase out, read the totals before and after it, or
``reset()`` before it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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


#: Operation name -> counter index; resolved once here, used everywhere
#: (routes precompile these indices so the hot path never touches strings).
_OP_TO_INDEX: Dict[str, int] = {op: i for i, op in enumerate(CommOp.ALL)}
#: Extra slot accumulating payload bytes of BULK transfers.
_BULK_INDEX = _OP_TO_INDEX[CommOp.BULK]
_BULK_BYTES_INDEX = len(CommOp.ALL)
_NUM_COUNTERS = _BULK_BYTES_INDEX + 1
#: Key order of dict views (matches the historical ``as_dict`` layout).
_KEYS: Tuple[str, ...] = CommOp.ALL + ("bulk_bytes",)


class CommDiagnostics:
    """Per-locale operation counters for a runtime.

    Unlike Chapel's ``startCommDiagnostics`` / ``stopCommDiagnostics``,
    counting cannot be paused: every charge path increments the matrix
    unconditionally, and a measured window is the difference of two
    readings (or a ``reset()`` at its start, as ``Runtime.reset_measurements``
    does).
    """

    def __init__(self, num_locales: int) -> None:
        #: The ``[locale][counter]`` matrix.  Cells and the compiled
        #: replay increment it directly; it is zeroed in place, never
        #: replaced, so their references stay valid.
        self._rows: List[List[int]] = [[0] * _NUM_COUNTERS for _ in range(num_locales)]

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

    # -- control ---------------------------------------------------------
    def reset(self) -> None:
        """Zero all counters on all locales (in place)."""
        for row in self._rows:
            row[:] = [0] * _NUM_COUNTERS

    # -- recording (called by the network layer) --------------------------
    def record(self, locale: int, op: str) -> None:
        """Attribute one operation of class ``op`` to ``locale``
        (a ``CommOp.BULK`` transfer and its bytes go through
        :meth:`record_bulk`)."""
        self._rows[locale][self.op_index(op)] += 1

    def record_index(self, locale: int, index: int) -> None:
        """Hot-path record by precompiled index (see comm.routes).

        ``ChargedWord._enter`` skips this call and increments the matrix
        directly.
        """
        self._rows[locale][index] += 1

    def record_bulk(self, locale: int, nbytes: int) -> None:
        """Hot-path record of one BULK transfer of ``nbytes``."""
        row = self._rows[locale]
        row[_BULK_INDEX] += 1
        row[_BULK_BYTES_INDEX] += nbytes

    # -- queries -----------------------------------------------------------
    def per_locale(self) -> List[Dict[str, int]]:
        """Snapshot of counters for each locale, in locale order."""
        return [dict(zip(_KEYS, row)) for row in self._rows]

    def totals(self) -> Dict[str, int]:
        """Totals of every operation class across locales."""
        rows = self._rows
        return {key: sum(row[i] for row in rows) for i, key in enumerate(_KEYS)}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CommDiagnostics(totals={self.totals()})"
