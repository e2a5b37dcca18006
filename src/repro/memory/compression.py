"""Pointer compression: 48-bit virtual address + 16-bit locale in 64 bits.

The paper's key enabler for RDMA atomics on class instances: today's x86-64
processors use only the low 48 bits of a virtual address, so the top 16 bits
of a 64-bit pointer can carry the locale id.  A compressed pointer fits in
the 64-bit network atomics that Gemini/Aries offer, so an ``AtomicObject``
can be read/CAS'd/exchanged entirely by the NIC.

The compression is exact for systems with fewer than ``2**16`` locales; at
or beyond that the library must fall back to the 128-bit DCAS path (or the
descriptor-table extension) — :func:`compress` raises
:class:`~repro.errors.TooManyLocalesError` so callers can take that path
deliberately rather than corrupt addresses.

Layout (bit 63 .. bit 0)::

    +----------------+--------------------------------------------+
    | locale (16 b)  |            virtual address (48 b)          |
    +----------------+--------------------------------------------+

``nil`` (locale 0, offset 0) compresses to integer 0, matching the common
C convention that a null pointer is all-zero bits.
"""

from __future__ import annotations

from ..errors import CompressionError, TooManyLocalesError
from .address import NIL, GlobalAddress

__all__ = [
    "LOCALE_BITS",
    "ADDRESS_BITS",
    "MAX_COMPRESSIBLE_LOCALES",
    "ADDRESS_MASK",
    "COMPRESSED_NIL",
    "compress",
    "decompress",
]

#: Bits of locality information packed into the pointer's upper bits.
LOCALE_BITS = 16
#: Bits of virtual address actually used by current processors.
ADDRESS_BITS = 48
#: Compression supports strictly fewer than this many locales.
MAX_COMPRESSIBLE_LOCALES = 1 << LOCALE_BITS
#: Mask selecting the virtual-address bits of a compressed word.
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1
#: The compressed representation of the nil wide pointer.
COMPRESSED_NIL = 0


def compress(addr: GlobalAddress) -> int:
    """Pack a wide pointer into a single 64-bit integer.

    Raises
    ------
    TooManyLocalesError
        If the locale id needs more than 16 bits.
    CompressionError
        If the offset exceeds 48 bits (cannot happen for addresses issued
        by :class:`~repro.memory.heap.Heap`, which enforces the bound).
    """
    if addr.offset == 0:
        return COMPRESSED_NIL
    if not (0 <= addr.locale < MAX_COMPRESSIBLE_LOCALES):
        raise TooManyLocalesError(
            f"locale {addr.locale} does not fit in {LOCALE_BITS} bits; use the"
            " DCAS fallback or the descriptor-table extension"
        )
    if not (0 < addr.offset <= ADDRESS_MASK):
        raise CompressionError(
            f"offset {addr.offset:#x} does not fit in {ADDRESS_BITS} bits"
        )
    return (addr.locale << ADDRESS_BITS) | addr.offset


def decompress(word: int) -> GlobalAddress:
    """Unpack a 64-bit compressed pointer back into a wide pointer.

    The inverse of :func:`compress`; ``decompress(0)`` is ``NIL``.
    """
    if word == COMPRESSED_NIL:
        return NIL
    if not (0 <= word < (1 << 64)):
        raise CompressionError(f"compressed pointer {word:#x} is not a 64-bit word")
    return GlobalAddress(locale=word >> ADDRESS_BITS, offset=word & ADDRESS_MASK)
