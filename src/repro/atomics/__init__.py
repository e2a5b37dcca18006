"""Atomic primitives routed through the simulated interconnect.

* :class:`~repro.atomics.integer.AtomicInt64` /
  :class:`~repro.atomics.integer.AtomicUInt64` — 64-bit atomics (the RDMA
  fast path under ``ugni``; Chapel's ``atomic int`` baseline).
* :class:`~repro.atomics.integer.AtomicBool` — flags with
  ``test_and_set`` / ``clear`` (the election protocol's building block).
* :class:`~repro.atomics.ref.AtomicRef` — a CAS-able reference to
  locale-private Python data (token and limbo-list metadata).

The 128-bit DCAS (``CMPXCHG16B``; never RDMA, remote = active message) is
not a cell of its own: :class:`~repro.core.atomic_object.AtomicObject`
charges it in ``dcas`` mode and in its ``*_aba`` operations.
"""

from .cell import AtomicCell
from .integer import AtomicBool, AtomicInt64, AtomicUInt64
from .ref import AtomicRef

__all__ = [
    "AtomicCell",
    "AtomicInt64",
    "AtomicUInt64",
    "AtomicBool",
    "AtomicRef",
]
