"""``AtomicObject``: atomic operations on (remote) class instances.

This is the paper's first contribution.  Chapel has no atomics on class
instances because an instance reference is a 128-bit *wide pointer* (64-bit
virtual address + 64 bits of locality) and network hardware offers only
64-bit atomics.  ``AtomicObject`` closes the gap with three strategies:

``compressed`` (the default for < 2**16 locales)
    Pack the 48 meaningful address bits and 16 locale bits into one 64-bit
    word (:mod:`repro.memory.compression`); plain ``read`` / ``write`` /
    ``exchange`` / ``compareAndSwap`` are then single 64-bit atomics, which
    the NIC can execute as RDMA under ``ugni`` — the scalable fast path of
    Figure 3.

``dcas`` (the fallback at >= 2**16 locales)
    Keep the full wide pointer and update it with a 128-bit double-word
    CAS.  Correct at any scale, but a remote DCAS is remote execution (an
    active message), never RDMA — the paper's measured demotion.

``descriptor`` (the paper's *future work*, implemented here as an extension)
    Store a 64-bit *descriptor index* into a replicated object table
    instead of the pointer itself.  64-bit network atomics work at any
    locale count; the price is table registration on first publish and a
    (cached) lookup on read.  See :class:`DescriptorTable`.

Independent of strategy, every operation has an ``ABA`` variant (suffix
``_aba`` here, ``ABA`` in the Chapel spelling, both provided) that reads or
CASes the pointer *together with* an adjacent 64-bit counter via DCAS —
defeating the ABA problem at the cost of the wide-op price.  Normal and ABA
variants may be mixed freely, as in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..atomics.cell import ChargedWord
from ..errors import LocaleError, RuntimeStateError
from ..memory.address import NIL, GlobalAddress, is_nil
from ..memory.compression import (
    MAX_COMPRESSIBLE_LOCALES,
    compress,
)
from .aba import ABA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["AtomicObject", "GlobalAtomicObject", "DescriptorTable"]


class DescriptorTable:
    """Replicated object table for the descriptor-indexing extension.

    Maps 64-bit descriptors to wide pointers.  Registration writes the
    entry to the table's home locale (one PUT when remote) and bumps a
    shared counter; resolution consults a per-locale cache first and pays a
    GET from the home locale only on a miss.  This reproduces the paper's
    future-work trade: the atomic stays a 64-bit (RDMA-able) word at *any*
    locale count, while reads gain one level of indirection.
    """

    def __init__(self, runtime: "Runtime", home: int = 0) -> None:
        self._rt = runtime
        self.home = home
        self._next = 1  # descriptor 0 is reserved for nil
        self._table: Dict[int, GlobalAddress] = {}
        self._caches: Tuple[Dict[int, GlobalAddress], ...] = tuple(
            {} for _ in range(runtime.num_locales)
        )

    def register(self, addr: GlobalAddress) -> int:
        """Assign (or reuse) a descriptor for ``addr``; charge the PUT."""
        if is_nil(addr):
            return 0
        desc = self._next
        self._next += 1
        self._table[desc] = addr
        ctx = self._rt._ctx
        if ctx is not None:
            self._rt.network.write(ctx, self.home, nbytes=16)
        return desc

    def resolve(self, desc: int) -> GlobalAddress:
        """Look up a descriptor, using the calling locale's cache."""
        if desc == 0:
            return NIL
        ctx = self._rt._ctx
        cache = self._caches[ctx.locale_id if ctx is not None else 0]
        hit = cache.get(desc)
        if hit is not None:
            return hit
        if ctx is not None:
            self._rt.network.read(ctx, self.home, nbytes=16)
        try:
            addr = self._table[desc]
        except KeyError:
            raise RuntimeStateError(f"unknown descriptor {desc}") from None
        cache[desc] = addr
        return addr


class AtomicObject(ChargedWord):
    """An atomic cell holding a wide pointer to a (possibly remote) object.

    Parameters
    ----------
    runtime:
        The owning runtime.
    locale:
        Home locale of the atomic cell itself (where its memory lives).
    initial:
        Initial wide pointer (default nil).
    aba_protection:
        When True (default) the adjacent 64-bit counter is maintained and
        the ``*_aba`` variants are available; when False those variants
        raise and the object is a bare 64-bit-word atomic, like the
        ``AtomicObject`` (no ABA) series in Figure 3.
    mode:
        ``"auto"`` (compressed when the runtime fits in 2**16 locales,
        DCAS otherwise), or explicitly ``"compressed"`` / ``"dcas"`` /
        ``"descriptor"``.

    Every operation charges through the shared
    :class:`~repro.atomics.cell.ChargedWord` machinery and then commits,
    exactly like an integer cell on the same home.  Plain operations take
    the narrow route unless the mode is ``dcas``; the ``*_aba`` variants
    always take the wide (DCAS) route.  The narrow route opts out of
    network atomics only in the ``"local"`` mode of the
    :class:`~repro.core.local_atomic_object.LocalAtomicObject` subclass.
    """

    __slots__ = (
        "mode",
        "aba_protection",
        "_dcas",
        "_addr",
        "_count",
        "_descriptors",
        "_desc_of_current",
    )

    #: Modes this class accepts (``"auto"`` resolves to one of them).
    _MODES = ("compressed", "dcas", "descriptor")

    def __init__(
        self,
        runtime: "Runtime",
        *,
        locale: int = 0,
        initial: GlobalAddress = NIL,
        aba_protection: bool = True,
        mode: str = "auto",
        name: str = "",
    ) -> None:
        compressible = runtime.num_locales < MAX_COMPRESSIBLE_LOCALES
        if mode == "auto":
            mode = "compressed" if compressible else "dcas"
        if mode not in self._MODES:
            raise ValueError(f"unknown {type(self).__name__} mode {mode!r}")
        # A runtime too large for compression must use dcas/descriptor —
        # matching the paper's fallback rule.
        if mode == "compressed" and not compressible:
            raise LocaleError(
                "compressed mode requires fewer than 2**16 locales;"
                " use mode='dcas' or mode='descriptor'"
            )
        home = runtime.locale(locale).id
        local = mode == "local"
        line = f"{'localatomic' if local else 'atomicobject'}@{home}"
        super().__init__(runtime, home, name, name or line, local)
        self.mode = mode
        self.aba_protection = bool(aba_protection)
        #: Plain ops pay the wide price only when the word is a full wide
        #: pointer (a 128-bit load/CAS is a DCAS on x86).
        self._dcas = mode == "dcas"
        self._addr: GlobalAddress = self._validate(initial)
        self._count = 0
        self._descriptors: Optional[DescriptorTable] = None
        #: Descriptor of the current pointer (descriptor mode; else 0).
        self._desc_of_current = 0
        if mode == "descriptor":
            self._descriptors = DescriptorTable(runtime, home=home)
            self._desc_of_current = self._descriptors.register(initial)

    # ------------------------------------------------------------------
    def _validate(self, addr: GlobalAddress) -> GlobalAddress:
        if not isinstance(addr, GlobalAddress):
            raise TypeError(
                f"{type(self).__name__} holds GlobalAddress values,"
                f" got {type(addr).__name__}"
            )
        if self.mode == "compressed":
            compress(addr)  # enforce representability (raises otherwise)
        return addr

    def _register(self, addr: GlobalAddress) -> int:
        """Descriptor for ``addr`` (descriptor mode; charges the table PUT
        before the cell op), else 0."""
        table = self._descriptors
        return 0 if table is None else table.register(addr)

    # ------------------------------------------------------------------
    # normal (64-bit word) operations
    # ------------------------------------------------------------------
    def read(self) -> GlobalAddress:
        """Atomically load the wide pointer.

        Narrow modes pay one 64-bit atomic (RDMA-able); ``dcas`` mode pays
        the wide price (a 128-bit load is a DCAS on x86).  In descriptor
        mode the pointer and its descriptor are captured by the same op,
        then the descriptor resolves through the (cached) table.
        """
        self._enter(self._dcas)
        addr = self._addr
        desc = self._desc_of_current
        if self._descriptors is not None:
            self._descriptors.resolve(desc)
        return addr

    def write(self, addr: GlobalAddress) -> None:
        """Atomically store a new wide pointer."""
        addr = self._validate(addr)
        desc = self._register(addr)
        self._enter(self._dcas)
        self._addr = addr
        self._desc_of_current = desc

    def exchange(self, addr: GlobalAddress) -> GlobalAddress:
        """Atomically store ``addr``; return the previous pointer."""
        addr = self._validate(addr)
        desc = self._register(addr)
        self._enter(self._dcas)
        old = self._addr
        self._addr = addr
        self._desc_of_current = desc
        return old

    def compare_and_swap(
        self, expected: GlobalAddress, desired: GlobalAddress
    ) -> bool:
        """CAS on the pointer word alone (no counter check).

        Subject to the ABA problem by design — this is the fast path; use
        :meth:`compare_and_swap_aba` when recycling is possible.
        """
        desired = self._validate(desired)
        desc = self._register(desired)
        self._enter(self._dcas)
        ok = self._addr == expected
        if ok:
            self._addr = desired
            self._desc_of_current = desc
        return ok

    def compare_exchange(
        self, expected: GlobalAddress, desired: GlobalAddress
    ) -> Tuple[bool, GlobalAddress]:
        """CAS returning ``(success, observed_pointer)``."""
        desired = self._validate(desired)
        desc = self._register(desired)
        self._enter(self._dcas)
        observed = self._addr
        ok = observed == expected
        if ok:
            self._addr = desired
            self._desc_of_current = desc
        return ok, observed

    # ------------------------------------------------------------------
    # ABA-protected (128-bit) operations
    # ------------------------------------------------------------------
    def _require_aba(self) -> None:
        if not self.aba_protection:
            raise RuntimeStateError(
                f"this {type(self).__name__} was created with"
                " aba_protection=False"
            )

    def read_aba(self) -> ABA[GlobalAddress]:
        """Atomically load pointer *and* counter (a 128-bit read)."""
        self._require_aba()
        self._enter(True)
        addr, count = self._addr, self._count
        return ABA(addr, count)

    def write_aba(self, addr: GlobalAddress) -> None:
        """Store ``addr`` and bump the counter as one 128-bit write."""
        self._require_aba()
        addr = self._validate(addr)
        self._enter(True)
        self._addr = addr
        self._count += 1

    def exchange_aba(self, addr: GlobalAddress) -> ABA[GlobalAddress]:
        """Swap in ``addr`` (counter bumped); return the previous snapshot."""
        self._require_aba()
        addr = self._validate(addr)
        self._enter(True)
        old, count = self._addr, self._count
        self._addr = addr
        self._count = count + 1
        return ABA(old, count)

    def compare_and_swap_aba(
        self, expected: ABA[GlobalAddress], desired: GlobalAddress
    ) -> bool:
        """DCAS: succeed only if pointer *and* counter still match.

        The counter is incremented on success, so a recycled address can
        never satisfy a stale snapshot — the ABA defeat from the paper.
        """
        self._require_aba()
        desired = self._validate(desired)
        value, count = expected.value, expected.count
        self._enter(True)
        ok = self._count == count and self._addr == value
        if ok:
            self._addr = desired
            self._count = count + 1
        return ok

    # Chapel-style aliases (paper Listing 1 spellings).
    readABA = read_aba
    writeABA = write_aba
    exchangeABA = exchange_aba
    compareAndSwapABA = compare_and_swap_aba
    compareAndSwap = compare_and_swap

    # ------------------------------------------------------------------
    def peek(self) -> GlobalAddress:
        """Cost-free load (tests only)."""
        return self._addr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(home={self.home}, mode={self.mode},"
            f" aba={self.aba_protection}, addr={self._addr!r})"
        )


#: The paper's name for the distributed variant; identical type here.
GlobalAtomicObject = AtomicObject
