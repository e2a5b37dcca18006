"""A distributed Harris/Michael lock-free sorted linked list (set/map).

The third classic from the paper's motivation.  The interesting mechanics:

* each node's ``next`` field is a 64-bit atomic word holding a
  **compressed** wide pointer with the low bit stolen as the *logical
  deletion mark* — possible because the simulated heaps align allocations
  (16 bytes by default), exactly like tag-bit tricks on real hardware;
* removal is two-phase: CAS the mark into the victim's ``next`` (logical
  removal — the linearization point), then unlink it from its predecessor
  (physical removal, possibly *helped* by any later traversal);
* unlinked nodes are deferred through a reclamation guard of any scheme
  (:mod:`repro.reclaim`): this is the structure where "logically removed,
  physically reclaimed later" — the premise of the whole reclamation
  subsystem — is clearest.  Under a hazard-pointer guard traversals run
  hand-over-hand protection: each visited node is published in an
  alternating hazard slot and re-validated against its predecessor's
  ``next`` word before the dereference.

Mark-in-pointer works *because of* pointer compression: a full 128-bit wide
pointer couldn't ride a 64-bit atomic, mark bit or not.  (With >= 2**16
locales this structure would need the DCAS fallback throughout.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Tuple

from ..atomics.integer import AtomicUInt64
from ..core.token import Token
from ..memory.address import NIL, GlobalAddress, is_nil
from ..memory.compression import compress, decompress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["ListNode", "LockFreeOrderedList"]

_MARK = 1


def _pack(addr: GlobalAddress, marked: bool) -> int:
    """Compress ``addr`` and fold the deletion mark into bit 0."""
    return compress(addr) | (_MARK if marked else 0)


def _unpack(word: int) -> Tuple[GlobalAddress, bool]:
    """Split a packed word back into (wide pointer, mark)."""
    return decompress(word & ~_MARK), bool(word & _MARK)


class ListNode:
    """One list node; ``next`` is a packed (pointer | mark) atomic word."""

    __slots__ = ("key", "value", "next")

    def __init__(self, runtime: "Runtime", key: Any, value: Any, locale: int) -> None:
        self.key = key
        self.value = value
        self.next = AtomicUInt64(runtime, locale, 0, name=f"listnext@{locale}")


class LockFreeOrderedList:
    """Sorted lock-free list keyed by any totally-ordered type.

    ``insert`` / ``remove`` / ``contains`` / ``get`` are lock-free;
    traversals help unlink logically-deleted nodes they pass.  Reclamation
    of unlinked nodes goes through the optional per-operation ``guard``.
    """

    def __init__(self, runtime: "Runtime", *, locale: int = 0, name: str = "list") -> None:
        self._rt = runtime
        self.home = runtime.locale(locale).id
        # Head sentinel: no key, lives on the list's home locale.  Allocated
        # directly on the heap (no task context required at construction).
        head_node = ListNode(runtime, None, None, self.home)
        self._head_addr = runtime.locale(self.home).heap.alloc(head_node)
        self._head_node = head_node
        self.name = name

    # ------------------------------------------------------------------
    # internal search (Michael's find, with helping)
    # ------------------------------------------------------------------
    def _find(
        self, key: Any, guard: Optional[Token]
    ) -> Tuple[AtomicUInt64, GlobalAddress, GlobalAddress, Optional["ListNode"]]:
        """Locate the insertion window for ``key``.

        Returns ``(prev_next_cell, cur_addr, next_addr, cur_node)`` where
        ``cur`` is the first unmarked node with ``node.key >= key`` (or nil
        at end of list).  Marked nodes encountered on the way are unlinked
        (helping), and deferred through ``guard`` when given.
        """
        rt = self._rt
        protecting = guard is not None and guard.needs_protect
        while True:  # restart label
            prev_cell = self._head_node.next
            cur_word = prev_cell.read()
            cur_addr, _ = _unpack(cur_word)
            restart = False
            depth = 0
            while not is_nil(cur_addr):
                if protecting:
                    # Hand-over-hand hazard publication: cur lives in slot
                    # (depth & 1) and the still-needed predecessor in the
                    # other slot (parity flips only when prev *advances*,
                    # below — a marked node replaced by helping reuses the
                    # same slot, so prev's hazard is never clobbered).
                    # Re-validate the link before dereferencing.
                    guard.protect(cur_addr, depth & 1)
                    if prev_cell.read() != _pack(cur_addr, False):
                        restart = True
                        break
                cur_node = rt.deref(cur_addr)
                next_word = cur_node.next.read()
                next_addr, cur_marked = _unpack(next_word)
                if cur_marked:
                    # cur is logically deleted: unlink it from prev.
                    if not prev_cell.compare_and_swap(
                        _pack(cur_addr, False), _pack(next_addr, False)
                    ):
                        restart = True
                        break
                    if guard is not None:
                        guard.defer_delete(cur_addr)
                    # prev is unchanged: the successor takes over cur's
                    # hazard slot on the next iteration (same parity).
                    cur_addr = next_addr
                    continue
                if cur_node.key >= key:
                    return prev_cell, cur_addr, next_addr, cur_node
                prev_cell = cur_node.next
                cur_addr = next_addr
                depth += 1
            if restart:
                continue
            return prev_cell, NIL, NIL, None

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def insert(
        self,
        key: Any,
        value: Any = None,
        guard: Optional[Token] = None,
    ) -> bool:
        """Insert ``key`` (with ``value``); False if already present."""
        rt = self._rt
        while True:
            prev_cell, cur_addr, _, cur_node = self._find(key, guard)
            if cur_node is not None and cur_node.key == key:
                return False
            here = rt.here()
            node = ListNode(rt, key, value, here)
            node.next.poke(_pack(cur_addr, False))  # pre-publication write
            addr = rt.new_obj(node)
            if prev_cell.compare_and_swap(
                _pack(cur_addr, False), _pack(addr, False)
            ):
                return True
            # Window moved: discard our unpublished node and retry.
            rt.free(addr)

    def remove(
        self,
        key: Any,
        guard: Optional[Token] = None,
    ) -> bool:
        """Logically then physically remove ``key``; False if absent."""
        while True:
            prev_cell, cur_addr, next_addr, cur_node = self._find(key, guard)
            if cur_node is None or cur_node.key != key:
                return False
            # Phase 1: plant the mark (the linearization point).
            if not cur_node.next.compare_and_swap(
                _pack(next_addr, False), _pack(next_addr, True)
            ):
                continue  # somebody marked or extended cur; retry
            # Phase 2: try to unlink; failure is fine — traversals help.
            if prev_cell.compare_and_swap(
                _pack(cur_addr, False), _pack(next_addr, False)
            ):
                if guard is not None:
                    guard.defer_delete(cur_addr)
            return True

    def contains(
        self,
        key: Any,
        guard: Optional[Token] = None,
    ) -> bool:
        """Wait-free-ish read-only membership test (no helping, no CAS).

        ``guard`` is only needed under hazard-pointer reclamation, where
        read-only traversals must protect the nodes they dereference;
        region-based schemes (EBR/QSBR/IBR) cover the traversal through
        the caller's pinned guard.
        """
        sentinel = object()
        return self.get(key, sentinel, guard=guard) is not sentinel

    def get(
        self,
        key: Any,
        default: Any = None,
        guard: Optional[Token] = None,
    ) -> Any:
        """Return the value stored under ``key`` (read-only traversal).

        Under a hazard-pointer guard the lookup goes through
        :meth:`_find` instead of the cheap scan: a validation-only
        traversal cannot pass a marked-but-not-unlinked node safely (its
        ``next`` word fails the unmarked check forever, and an
        address-only check would admit freed successors), so — exactly as
        in Michael's algorithm — HP readers help unlink what they pass.
        """
        if guard is not None and guard.needs_protect:
            _, _, _, cur_node = self._find(key, guard)
            if cur_node is not None and cur_node.key == key:
                return cur_node.value
            return default
        rt = self._rt
        cur_addr, _ = _unpack(self._head_node.next.read())
        while not is_nil(cur_addr):
            node = rt.deref(cur_addr)
            next_addr, marked = _unpack(node.next.read())
            if not marked and node.key == key:
                return node.value
            if node.key is not None and node.key > key:
                return default
            cur_addr = next_addr
        return default

    # ------------------------------------------------------------------
    def unsafe_items(self) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs without synchronization (quiescent)."""
        addr, _ = _unpack(self._head_node.next.peek())
        while not is_nil(addr):
            node = self._rt.locale(addr.locale).heap.load(addr.offset)
            next_addr, marked = _unpack(node.next.peek())
            if not marked:
                yield node.key, node.value
            addr = next_addr

    def unsafe_keys(self) -> List[Any]:
        """Sorted key snapshot (quiescent tests only)."""
        return [k for k, _ in self.unsafe_items()]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LockFreeOrderedList(name={self.name!r})"
