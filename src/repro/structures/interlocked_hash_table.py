"""A distributed non-blocking hash table (the paper's follow-on application).

The paper's conclusion announces a port of the *Interlocked Hash Table*
[16] built on ``AtomicObject`` + ``EpochManager`` as "complete and awaiting
release".  This module supplies that application in the style the paper's
building blocks make natural:

* **buckets are distributed cyclically** across locales (bucket *b* lives
  on locale ``b % num_locales``), so the table is a genuinely global
  structure;
* each bucket header is an :class:`~repro.core.atomic_object.AtomicObject`
  pointing at an **immutable** bucket snapshot (a sorted tuple of
  key/value pairs) allocated on the bucket's locale;
* reads are **wait-free**: one atomic read of the header plus one GET of
  the snapshot — no retries, ever;
* writes are **lock-free**: build a modified snapshot locally, publish it
  with an ABA-protected CAS on the header, and retire the old snapshot
  through an epoch-manager token — a textbook read-copy-update built from
  the paper's parts.

Copy-on-write buckets trade write bandwidth (O(bucket) copy) for wait-free
reads, the appropriate point on the spectrum for the read-mostly workloads
(hash-table lookups) the paper's Figure 7 discussion motivates.  A
quiescent ``resize()`` doubles the bucket array when load grows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Tuple

from ..core.atomic_object import AtomicObject
from ..core.token import Token
from ..memory.address import NIL, is_nil
from ..reclaim import default_reclaimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["InterlockedHashTable"]


class _BucketSnapshot:
    """Immutable sorted tuple of (hash, key, value) triples."""

    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[int, Any, Any], ...]) -> None:
        self.entries = entries


def _stable_hash(key: Any) -> int:
    """A 64-bit stable hash (Python's, masked; fine inside one process)."""
    return hash(key) & ((1 << 63) - 1)


class InterlockedHashTable:
    """Distributed lock-free hash map with wait-free lookups.

    Parameters
    ----------
    runtime:
        The simulated machine.
    buckets:
        Number of buckets (rounded up to a power of two); distributed
        cyclically over locales.
    reclaimer:
        Optional shared reclaimer from :mod:`repro.reclaim` (any scheme).
        When omitted the table asks
        :func:`repro.reclaim.default_reclaimer` for whatever scheme the
        runtime is configured for — the one shared default-construction
        factory — and owns it (``destroy()`` tears it down).  To share a
        bare :class:`EpochManager`, pass
        ``EBRReclaimer(runtime, manager=em)``.
    """

    def __init__(
        self,
        runtime: "Runtime",
        *,
        buckets: int = 64,
        reclaimer=None,
        aba_protection: bool = True,
    ) -> None:
        self._rt = runtime
        n = 1
        while n < max(1, buckets):
            n <<= 1
        self._nbuckets = n
        self._owns_reclaimer = reclaimer is None
        self.reclaimer = (
            default_reclaimer(runtime) if reclaimer is None else reclaimer
        )
        #: With ``aba_protection=False`` headers use plain 64-bit CASes —
        #: the RDMA fast path — relying on EBR to prevent snapshot-address
        #: recycling (operations must then run under a pinned token).
        self.aba_protection = bool(aba_protection)
        self._headers: List[AtomicObject] = [
            AtomicObject(
                runtime,
                locale=b % runtime.num_locales,
                initial=NIL,
                aba_protection=self.aba_protection,
                name=f"bucket{b}",
            )
            for b in range(n)
        ]

    # ------------------------------------------------------------------
    @property
    def bucket_count(self) -> int:
        """Current number of buckets."""
        return self._nbuckets

    def _bucket_of(self, h: int) -> int:
        return h & (self._nbuckets - 1)

    def owner_locale(self, key: Any) -> int:
        """Which locale owns ``key``'s bucket (placement introspection)."""
        b = self._bucket_of(_stable_hash(key))
        return self._headers[b].home

    # ------------------------------------------------------------------
    # reads (wait-free)
    # ------------------------------------------------------------------
    def _load_header(self, header: AtomicObject):
        """Read a bucket header; returns ``(snapshot-for-CAS, address)``."""
        if self.aba_protection:
            snap = header.read_aba()
            return snap, snap.get_object()
        addr = header.read()
        return addr, addr

    def _cas_header(self, header: AtomicObject, snap, new) -> bool:
        """CAS a bucket header against a :meth:`_load_header` snapshot."""
        if self.aba_protection:
            return header.compare_and_swap_aba(snap, new)
        return header.compare_and_swap(snap, new)

    def _load_header_protected(self, header: AtomicObject, guard: Optional[Token]):
        """:meth:`_load_header` plus the hazard handshake when required."""
        if guard is None or not guard.needs_protect:
            return self._load_header(header)
        while True:
            snap, addr = self._load_header(header)
            if is_nil(addr):
                return snap, addr
            guard.protect(addr)
            if self._load_header(header)[1] == addr:
                return snap, addr

    def get(
        self,
        key: Any,
        default: Any = None,
        guard: Optional[Token] = None,
    ) -> Any:
        """Look up ``key``: one header read + one snapshot fetch.

        ``guard`` is only needed under hazard-pointer reclamation, where
        the snapshot must be protected before the fetch; region-based
        schemes cover readers through their pinned guard.
        """
        h = _stable_hash(key)
        header = self._headers[self._bucket_of(h)]
        _, addr = self._load_header_protected(header, guard)
        if is_nil(addr):
            return default
        snap: _BucketSnapshot = self._rt.deref(addr)
        for eh, ek, ev in snap.entries:
            if eh == h and ek == key:
                return ev
        return default

    def contains(
        self,
        key: Any,
        guard: Optional[Token] = None,
    ) -> bool:
        """Membership test (wait-free)."""
        sentinel = object()
        return self.get(key, sentinel, guard=guard) is not sentinel

    # ------------------------------------------------------------------
    # writes (lock-free RCU on the bucket)
    # ------------------------------------------------------------------
    def _publish(
        self,
        header: AtomicObject,
        mutate,
        guard: Optional[Token],
    ) -> Tuple[bool, Any]:
        """Read-copy-update loop on one bucket header.

        ``mutate(entries) -> (new_entries | None, result)``; ``None`` means
        "no change needed" and the loop exits without a CAS.
        """
        rt = self._rt
        while True:
            snap_ref, old_addr = self._load_header_protected(header, guard)
            entries: Tuple[Tuple[int, Any, Any], ...] = ()
            if not is_nil(old_addr):
                entries = rt.deref(old_addr).entries
            new_entries, result = mutate(entries)
            if new_entries is None:
                return False, result
            # PGAS idiom: allocate the new snapshot on the *writer's*
            # locale (cheap, local) and publish it with one CAS; a remote
            # allocation would be an RPC per update.  Readers pay the same
            # one-GET price wherever the snapshot lives.
            new_addr = rt.new_obj(_BucketSnapshot(new_entries))
            if self._cas_header(header, snap_ref, new_addr):
                if not is_nil(old_addr):
                    if guard is not None:
                        guard.defer_delete(old_addr)
                    # else: leak the old snapshot (safe).
                return True, result
            # Lost the race: discard our unpublished snapshot and retry.
            rt.free(new_addr)

    def put(
        self,
        key: Any,
        value: Any,
        guard: Optional[Token] = None,
    ) -> bool:
        """Insert or update; returns True when a *new* key was added."""
        h = _stable_hash(key)
        header = self._headers[self._bucket_of(h)]

        def mutate(entries):
            for i, (eh, ek, ev) in enumerate(entries):
                if eh == h and ek == key:
                    if ev == value:
                        return None, False  # idempotent update: no publish
                    new = entries[:i] + ((h, key, value),) + entries[i + 1 :]
                    return new, False
            new = tuple(sorted(entries + ((h, key, value),), key=lambda e: e[0]))
            return new, True

        _, added = self._publish(header, mutate, guard)
        return added

    def remove(
        self,
        key: Any,
        guard: Optional[Token] = None,
    ) -> bool:
        """Delete ``key``; returns True when it was present."""
        h = _stable_hash(key)
        header = self._headers[self._bucket_of(h)]

        def mutate(entries):
            for i, (eh, ek, _) in enumerate(entries):
                if eh == h and ek == key:
                    return entries[:i] + entries[i + 1 :], True
            return None, False

        _, removed = self._publish(header, mutate, guard)
        return removed

    def update(
        self,
        key: Any,
        fn,
        default: Any = None,
        guard: Optional[Token] = None,
    ) -> Any:
        """Atomically apply ``fn(old_value_or_default) -> new_value``.

        The read-modify-write primitive (e.g. counters:
        ``table.update(k, lambda v: v + 1, default=0)``).  Returns the new
        value.
        """
        h = _stable_hash(key)
        header = self._headers[self._bucket_of(h)]

        def mutate(entries):
            for i, (eh, ek, ev) in enumerate(entries):
                if eh == h and ek == key:
                    nv = fn(ev)
                    new = entries[:i] + ((h, key, nv),) + entries[i + 1 :]
                    return new, nv
            nv = fn(default)
            new = tuple(sorted(entries + ((h, key, nv),), key=lambda e: e[0]))
            return new, nv

        _, new_value = self._publish(header, mutate, guard)
        return new_value

    # ------------------------------------------------------------------
    # quiescent operations
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Yield all pairs (quiescent snapshot; not linearizable)."""
        for header in self._headers:
            addr = header.peek()
            if is_nil(addr):
                continue
            snap = self._rt.locale(addr.locale).heap.load(addr.offset)
            for _, k, v in snap.entries:
                yield k, v

    def size(self) -> int:
        """Count entries (quiescent)."""
        return sum(1 for _ in self.items())

    def resize(self, new_buckets: int) -> None:
        """Quiescent rehash into ``new_buckets`` (power of two) buckets.

        Contract: no concurrent operations (same as ``EpochManager.clear``).
        Old snapshots are freed immediately — safe under the contract.
        """
        rt = self._rt
        pairs = list(self.items())
        for header in self._headers:
            addr = header.peek()
            if not is_nil(addr):
                rt.free(addr)
        n = 1
        while n < max(1, new_buckets):
            n <<= 1
        self._nbuckets = n
        self._headers = [
            AtomicObject(
                rt,
                locale=b % rt.num_locales,
                initial=NIL,
                aba_protection=self.aba_protection,
                name=f"bucket{b}",
            )
            for b in range(n)
        ]
        for k, v in pairs:
            self.put(k, v)

    def destroy(self) -> None:
        """Free all snapshots (and the owned reclaimer, when applicable)."""
        rt = self._rt
        for header in self._headers:
            addr = header.peek()
            if not is_nil(addr):
                rt.free(addr)
                header.write(NIL)
        if self._owns_reclaimer:
            self.reclaimer.destroy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InterlockedHashTable(buckets={self._nbuckets})"
