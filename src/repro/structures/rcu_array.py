"""``RCUArray``: an RCU-like parallel-safe distributed resizable array.

The paper's related-work lineage (reference [15], Jenkins, IPDPSW'18)
builds a distributed resizable array where *readers never block*: the
array's metadata — a descriptor listing its blocks — is published through
an atomic pointer and replaced wholesale on resize, RCU style.  With this
repository's building blocks the construction is a few dozen lines, which
is rather the point of the paper: once ``AtomicObject`` and
``EpochManager`` exist, RCU-like schemes fall out.

Design:

* elements live in fixed-size **blocks** allocated round-robin across
  locales (so a large array is automatically distributed);
* an immutable **descriptor** (block-address tuple + logical length) is
  the unit of RCU publication: the root is an ABA-protected
  ``AtomicObject``;
* ``read``/``write`` are wait-free: one root read, one descriptor GET,
  one block GET/PUT — never a retry;
* ``resize`` builds a new descriptor (reusing surviving blocks), publishes
  it with one CAS, and retires the old descriptor — and any dropped
  blocks — through a reclamation guard of any scheme
  (:mod:`repro.reclaim`).  Readers that raced the resize keep using the
  old descriptor safely until they quiesce: exactly the RCU grace-period
  argument, provided by whichever reclaimer the guard belongs to.  Under
  a hazard-pointer guard, element reads/writes that pass a guard protect
  the descriptor (slot 0) *and* the resolved block (slot 1), re-validating
  the root between the two publications — blocks dropped by a shrink are
  retired as independent addresses, so the descriptor hazard alone would
  not keep them live through a scan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from ..core.atomic_object import AtomicObject
from ..core.token import Token
from ..errors import StructureError
from ..memory.address import GlobalAddress, is_nil

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["RCUArray"]


class _Descriptor:
    """Immutable array metadata: logical length + block addresses."""

    __slots__ = ("length", "blocks", "block_size")

    def __init__(
        self, length: int, blocks: Tuple[GlobalAddress, ...], block_size: int
    ) -> None:
        self.length = length
        self.blocks = blocks
        self.block_size = block_size


class RCUArray:
    """Distributed resizable array with wait-free element access.

    Parameters
    ----------
    runtime:
        The simulated machine.
    length:
        Initial logical length (elements default to ``fill``).
    block_size:
        Elements per block; blocks are placed round-robin over locales.
    fill:
        Default element value.

    The root pointer lives on locale 0.
    """

    def __init__(
        self,
        runtime: "Runtime",
        length: int = 0,
        *,
        block_size: int = 64,
        fill: Any = None,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._rt = runtime
        self.block_size = block_size
        self.fill = fill
        self.home = 0
        blocks = self._make_blocks(length)
        desc = _Descriptor(length, blocks, block_size)
        desc_addr = runtime.locale(self.home).heap.alloc(desc)
        self._root = AtomicObject(
            runtime, locale=self.home, initial=desc_addr, name="rcuarray.root"
        )

    # ------------------------------------------------------------------
    def _make_blocks(
        self, length: int, start_block: int = 0
    ) -> Tuple[GlobalAddress, ...]:
        """Allocate enough blocks for ``length`` elements, round-robin."""
        rt = self._rt
        nblocks = (length + self.block_size - 1) // self.block_size
        out: List[GlobalAddress] = []
        for b in range(start_block, nblocks):
            target = b % rt.num_locales
            payload = [self.fill] * self.block_size
            out.append(rt.locale(target).heap.alloc(payload))
        return tuple(out)

    def _descriptor(self, guard: Optional[Token] = None) -> _Descriptor:
        """Fetch the current descriptor (one atomic read + one GET).

        With a hazard-pointer guard the descriptor address is published
        and re-validated before the dereference; other schemes skip the
        handshake entirely.
        """
        addr = self._root.read_aba().get_object()
        if guard is not None and guard.needs_protect:
            while True:
                guard.protect(addr)
                current = self._root.read_aba().get_object()
                if current == addr:
                    break
                addr = current
        return self._rt.deref(addr)

    def _locate(self, desc: _Descriptor, index: int) -> Tuple[GlobalAddress, int]:
        if not (0 <= index < desc.length):
            raise StructureError(
                f"index {index} out of range for RCUArray of length {desc.length}"
            )
        return desc.blocks[index // desc.block_size], index % desc.block_size

    # ------------------------------------------------------------------
    # wait-free element access
    # ------------------------------------------------------------------
    def _locate_protected(
        self, index: int, guard: Optional[Token]
    ) -> Tuple[_Descriptor, GlobalAddress, int]:
        """Resolve ``index`` to its block, with the HP double handshake.

        Under a hazard-pointer guard both the descriptor (slot 0) and the
        resolved block (slot 1) must be published: a shrink retires
        dropped blocks as their own addresses, so only a hazard naming
        the block keeps it live through a scan.  After publishing the
        block hazard the root is re-read — if it still names our
        descriptor, the blocks it references had not been retired when
        the hazard became visible.  Region-based schemes skip all of it.
        """
        if guard is None or not guard.needs_protect:
            desc = self._descriptor(guard)
            block_addr, off = self._locate(desc, index)
            return desc, block_addr, off
        while True:
            snap_addr = self._root.read_aba().get_object()
            guard.protect(snap_addr, 0)
            if self._root.read_aba().get_object() != snap_addr:
                continue
            desc: _Descriptor = self._rt.deref(snap_addr)
            block_addr, off = self._locate(desc, index)
            guard.protect(block_addr, 1)
            if self._root.read_aba().get_object() != snap_addr:
                continue  # resized under us: the block may be retired
            return desc, block_addr, off

    def read(
        self,
        index: int,
        guard: Optional[Token] = None,
    ) -> Any:
        """Load element ``index`` (wait-free: no loops, no CAS).

        ``guard`` is only consulted under hazard-pointer reclamation
        (descriptor + block protection); region-based schemes need none
        here.
        """
        _, block_addr, off = self._locate_protected(index, guard)
        block = self._rt.deref(block_addr)
        return block[off]

    def write(
        self,
        index: int,
        value: Any,
        guard: Optional[Token] = None,
    ) -> None:
        """Store element ``index`` (wait-free).

        Element writes mutate blocks in place — RCU protects the array's
        *structure* (the descriptor), not individual elements, exactly as
        in the RCUArray paper.
        """
        _, block_addr, off = self._locate_protected(index, guard)
        block = self._rt.deref(block_addr)
        ctx = self._rt._ctx
        if ctx is not None:
            self._rt.network.write(ctx, block_addr.locale, nbytes=8)
        block[off] = value

    def __len__(self) -> int:
        return self._descriptor().length

    # ------------------------------------------------------------------
    # RCU structural updates
    # ------------------------------------------------------------------
    def resize(
        self,
        new_length: int,
        guard: Optional[Token] = None,
    ) -> None:
        """Grow or shrink to ``new_length`` (lock-free RCU publication).

        Surviving blocks are shared between the old and new descriptors;
        dropped blocks and the old descriptor are retired through
        ``guard`` (or leaked safely without one).  Concurrent readers keep
        a consistent view throughout.
        """
        if new_length < 0:
            raise ValueError("new_length must be >= 0")
        self._publish(lambda _old_length: new_length, guard)

    def append(
        self,
        value: Any,
        guard: Optional[Token] = None,
    ) -> int:
        """Append one element; returns its index.

        The new length is computed from the same descriptor the publishing
        CAS checks, so concurrent appends each get their own slot.
        """
        idx = self._publish(lambda old_length: old_length + 1, guard)
        self.write(idx, value, guard)
        return idx

    def _publish(
        self,
        new_length_of: Callable[[int], int],
        guard: Optional[Token],
    ) -> int:
        """The RCU update loop: publish a descriptor of length
        ``new_length_of(old length)``, where the old length comes from the
        snapshot the CAS checks.  Returns that old length."""
        rt = self._rt
        protecting = guard is not None and guard.needs_protect
        while True:
            snap = self._root.read_aba()
            old_addr = snap.get_object()
            if protecting:
                guard.protect(old_addr)
                if self._root.read_aba().get_object() != old_addr:
                    continue  # descriptor republished before hazard visible
            old_desc: _Descriptor = rt.deref(old_addr)
            new_length = new_length_of(old_desc.length)
            old_nblocks = len(old_desc.blocks)
            new_nblocks = (new_length + self.block_size - 1) // self.block_size
            if new_nblocks > old_nblocks:
                grown = self._make_blocks(
                    new_length, start_block=old_nblocks
                )
                blocks = old_desc.blocks + grown
            else:
                blocks = old_desc.blocks[:new_nblocks]
            new_desc = _Descriptor(new_length, blocks, self.block_size)
            new_addr = rt.new_obj(new_desc, locale=self.home)
            if self._root.compare_and_swap_aba(snap, new_addr):
                # Retire the old descriptor and any dropped blocks.
                if guard is not None:
                    guard.defer_delete(snap.get_object())
                    for dropped in old_desc.blocks[new_nblocks:]:
                        guard.defer_delete(dropped)
                return old_desc.length
            # Lost the race: clean up our candidate and retry.
            rt.free(new_addr)
            if new_nblocks > old_nblocks:
                for b in blocks[old_nblocks:]:
                    rt.free(b)

    # ------------------------------------------------------------------
    def snapshot(self) -> List[Any]:
        """Copy out the whole array through one descriptor (consistent)."""
        desc = self._descriptor()
        out: List[Any] = []
        for i in range(desc.length):
            block_addr, off = self._locate(desc, i)
            out.append(self._rt.deref(block_addr)[off])
        return out

    def block_locales(self) -> List[int]:
        """Owning locale of each block (placement introspection)."""
        return [b.locale for b in self._descriptor().blocks]

    def destroy(self) -> None:
        """Free the descriptor and all blocks (quiescent teardown)."""
        rt = self._rt
        addr = self._root.peek()
        if is_nil(addr):
            return
        desc: _Descriptor = rt.locale(addr.locale).heap.load(addr.offset)
        for b in desc.blocks:
            rt.free(b)
        rt.free(addr)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RCUArray(len={len(self)}, block_size={self.block_size})"
