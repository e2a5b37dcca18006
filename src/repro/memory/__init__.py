"""Distributed-memory substrate: wide pointers, compression, heaps.

* :class:`~repro.memory.address.GlobalAddress` — the 128-bit wide pointer.
* :func:`~repro.memory.compression.compress` /
  :func:`~repro.memory.compression.decompress` — the 48+16-bit packed
  pointer that enables 64-bit RDMA atomics on objects.
* :class:`~repro.memory.heap.Heap` — per-locale heap with LIFO address
  reuse (real ABA hazards) and precise use-after-free detection.
"""

from .address import NIL, GlobalAddress, is_nil
from .compression import (
    ADDRESS_BITS,
    ADDRESS_MASK,
    COMPRESSED_NIL,
    LOCALE_BITS,
    MAX_COMPRESSIBLE_LOCALES,
    compress,
    decompress,
)
from .heap import Heap, HeapStats

__all__ = [
    "GlobalAddress",
    "NIL",
    "is_nil",
    "compress",
    "decompress",
    "LOCALE_BITS",
    "ADDRESS_BITS",
    "ADDRESS_MASK",
    "MAX_COMPRESSIBLE_LOCALES",
    "COMPRESSED_NIL",
    "Heap",
    "HeapStats",
]
