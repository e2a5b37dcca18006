"""Per-locale simulated heaps with precise liveness tracking.

Each locale owns a :class:`Heap` that hands out 48-bit virtual addresses
for Python payload objects.  Two properties matter for the reproduction:

* **LIFO address reuse.**  Freed addresses go on a free list and the *most
  recently freed* address is reused first — exactly the allocator behaviour
  that makes the ABA problem real.  The test suite exploits this to make a
  compare-and-swap succeed wrongly on a recycled address, and to show the
  ``ABA`` wrapper / EBR preventing it.

* **Precise hazard detection.**  An address is live exactly while it is a
  key of the heap's live map, and every address ever issued lies on the
  aligned range ``[HEAP_BASE, next)``.  Loading through a stale address
  raises :class:`~repro.errors.UseAfterFreeError`; freeing twice raises
  :class:`~repro.errors.DoubleFreeError`.  On real hardware these are
  silent corruption; here they are deterministic test signals, which is
  how we *prove* the EpochManager makes reclamation safe.

The heap is purely mechanical — it charges no virtual time.  Cost accounting
lives in :class:`~repro.comm.network.NetworkModel` and is applied by the
runtime's allocation helpers, keeping policy and mechanism separate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Any, Dict, List

from ..errors import DoubleFreeError, HeapExhaustedError, InvalidAddressError, UseAfterFreeError
from .address import GlobalAddress
from .compression import ADDRESS_MASK

__all__ = ["HEAP_ALIGNMENT", "HEAP_BASE", "Heap", "HeapStats"]

#: First address every heap hands out: nonzero, so the compressed ``nil``
#: (offset 0) can never alias an allocation.
HEAP_BASE = 0x1000
#: Allocation alignment in bytes: the low four bits of every address are
#: zero, so a structure may steal them for tag bits (the Harris list's
#: deletion mark does).
HEAP_ALIGNMENT = 16

#: ``_tuple_new(GlobalAddress, (locale, offset))`` skips the named tuple's Python ``__new__``.
_tuple_new = tuple.__new__


@dataclass
class HeapStats:
    """Counters describing one heap's allocation history."""

    #: Allocations ever performed.
    allocations: int = 0
    #: Frees ever performed.
    frees: int = 0
    #: Addresses handed out more than once (ABA fuel).
    reuses: int = 0
    #: Currently live objects.
    live: int = 0
    #: High-water mark of live objects.
    peak_live: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reports."""
        return asdict(self)


class Heap:
    """The simulated memory of one locale.

    State is flat: the live map ``offset -> payload`` (live slots only),
    the LIFO free list, the next fresh offset, and plain int counters.
    ``frees`` is ``allocations - live``, and ``peak_live`` is folded in
    before every free (live only rises on alloc), so :attr:`stats` builds
    its :class:`HeapStats` on demand.

    ``locale_id`` is the owning locale, recorded into every issued
    :class:`GlobalAddress`.  Fresh addresses start at :data:`HEAP_BASE`
    and step by :data:`HEAP_ALIGNMENT`.
    """

    def __init__(self, locale_id: int) -> None:
        self.locale_id = locale_id
        self._live: Dict[int, Any] = {}  # offset -> payload, live slots only
        self._free: List[int] = []  # LIFO free list of offsets
        self._next = HEAP_BASE
        self._allocations = self._reuses = self._peak_live = 0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, payload: Any) -> GlobalAddress:
        """Allocate a slot for ``payload`` and return its wide pointer.

        Reuses the most recently freed address when one exists (LIFO), the
        behaviour that maximizes ABA hazard — deliberately.
        """
        if self._free:
            offset = self._free.pop()
            self._reuses += 1
        else:
            offset = self._next
            if offset + HEAP_ALIGNMENT > ADDRESS_MASK:
                raise self._exhausted()
            self._next = offset + HEAP_ALIGNMENT
        self._live[offset] = payload
        self._allocations += 1
        return _tuple_new(GlobalAddress, (self.locale_id, offset))

    def alloc_many(self, n: int) -> List[GlobalAddress]:
        """Allocate ``n`` fresh ``object()`` payloads in one pass.

        Returns exactly the addresses ``n`` calls of ``alloc(object())``
        would, in order: recycled addresses LIFO first, then fresh ones.
        Raises :class:`HeapExhaustedError` before allocating anything when
        the fresh addresses would not fit.
        """
        if n < 0:
            raise ValueError("alloc_many needs n >= 0")
        free = self._free
        reused = free[: -n - 1 : -1]  # the last n frees, newest first
        start = self._next
        stop = start + (n - len(reused)) * HEAP_ALIGNMENT
        if stop > ADDRESS_MASK:
            raise self._exhausted()
        del free[len(free) - len(reused) :]
        offsets = reused + list(range(start, stop, HEAP_ALIGNMENT))
        self._next = stop
        # iter(object, None) yields a fresh object() per address.
        self._live.update(zip(offsets, iter(object, None)))
        self._allocations += n
        self._reuses += len(reused)
        pairs = zip(repeat(self.locale_id), offsets)
        return list(map(_tuple_new, repeat(GlobalAddress), pairs))

    def _exhausted(self) -> HeapExhaustedError:
        """The error for running past the 48-bit address space."""
        return HeapExhaustedError(f"locale {self.locale_id} heap exhausted 48-bit space")

    # ------------------------------------------------------------------
    # access and deallocation (errors are built off the hot path)
    # ------------------------------------------------------------------
    def _issued(self, offset: int) -> bool:
        """True when ``offset`` was ever handed out (error paths only)."""
        return HEAP_BASE <= offset < self._next and not offset & (HEAP_ALIGNMENT - 1)

    def _not_live(self, offset: int, freeing: bool = False) -> Exception:
        """The error for touching (or ``freeing``) the non-live ``offset``."""
        where = f"locale {self.locale_id}: {offset:#x}"
        if not self._issued(offset):
            return InvalidAddressError(f"{where} was never allocated")
        if freeing:
            return DoubleFreeError(f"{where} freed twice")
        return UseAfterFreeError(f"{where} used after free")

    def load(self, offset: int) -> Any:
        """Return the live payload at ``offset``.

        Raises :class:`UseAfterFreeError` if the slot was freed — the
        hazard EBR exists to prevent.
        """
        try:
            return self._live[offset]
        except KeyError:
            raise self._not_live(offset) from None

    def free(self, offset: int) -> None:
        """Free the slot at ``offset``; its address becomes reusable.

        Raises :class:`DoubleFreeError` on repeated frees of the same
        allocation and :class:`InvalidAddressError` for unknown addresses.
        The payload is dropped with its live-map entry (simulated destruction).
        """
        live = self._live
        if len(live) > self._peak_live:
            self._peak_live = len(live)
        try:
            del live[offset]
        except KeyError:
            raise self._not_live(offset, freeing=True) from None
        self._free.append(offset)

    def free_bulk(self, offsets: List[int]) -> int:
        """Free many slots in one pass; returns how many were freed.

        The scatter list in ``tryReclaim`` funnels every dead object owned
        by this locale through one call, mirroring the paper's bulk
        transfer-and-delete.  The first bad offset raises as :meth:`free`
        would, with the offsets before it already freed.
        """
        live = self._live
        if len(live) > self._peak_live:
            self._peak_live = len(live)
        push = self._free.append
        for offset in offsets:
            try:
                del live[offset]
            except KeyError:
                raise self._not_live(offset, freeing=True) from None
            push(offset)
        return len(offsets)

    def drop_payloads(self) -> None:
        """Forget every live payload (``Runtime.close``): the objects a
        finished machine stored go with their last outside reference."""
        self._live.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def live_count(self) -> int:
        """Number of live allocations."""
        return len(self._live)

    @property
    def stats(self) -> HeapStats:
        """A :class:`HeapStats` snapshot, built on demand."""
        n, live = self._allocations, len(self._live)
        return HeapStats(n, n - live, self._reuses, live, max(self._peak_live, live))

    def snapshot_stats(self) -> HeapStats:
        """Copy of the stats counters (safe to keep across resets)."""
        return self.stats

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Heap(locale={self.locale_id}, {self.stats})"
