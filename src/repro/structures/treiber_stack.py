"""A distributed Treiber stack — the paper's Listing 1 made concrete.

The canonical lock-free stack: a single atomic ``head`` pointer, pushes and
pops as CAS loops.  This implementation exercises every mechanism the paper
builds:

* the head is an :class:`~repro.core.atomic_object.AtomicObject`, so under
  pointer compression the hot CAS is a 64-bit (RDMA-able) operation;
* operations use the **ABA variants** by default — with the simulated
  heap's LIFO address reuse, the plain-CAS mode (``aba_protection=False``)
  demonstrably corrupts under recycling, which the test suite provokes;
* nodes are allocated on the *pushing task's* locale (PGAS-idiomatic:
  local allocation, atomic publication), so a stack naturally spans
  locales;
* popped nodes are retired through any guard from the pluggable
  reclamation subsystem (:mod:`repro.reclaim`) — an EBR token, a
  hazard-pointer guard, a QSBR or interval guard all work unchanged.
  Under a hazard-pointer guard (``guard.needs_protect``) ``pop`` runs the
  standard protect/validate handshake: publish the head in a hazard slot,
  re-read the head, retry if it moved — the extra validation read is the
  scheme's read-side price and is skipped entirely for every other
  scheme.

Without a guard, popped nodes can either leak (safe, default) or be freed
immediately (``unsafe_free=True``), the latter existing specifically so
tests can demonstrate the use-after-free deferred reclamation prevents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, List, Optional

from ..core.atomic_object import AtomicObject
from ..core.token import Token
from ..errors import EmptyStructureError
from ..memory.address import NIL, GlobalAddress, is_nil

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["StackNode", "LockFreeStack"]


class StackNode:
    """One stack node: a payload and a plain ``next`` wide pointer.

    ``next`` needs no atomicity of its own — it is written exactly once,
    before the node is published by the head CAS (the standard Treiber
    argument).
    """

    __slots__ = ("value", "next")

    def __init__(self, value: Any) -> None:
        self.value = value
        self.next = NIL


class LockFreeStack:
    """Treiber stack over ``AtomicObject`` (paper Listing 1).

    Parameters
    ----------
    runtime:
        The simulated machine.
    locale:
        Home locale of the ``head`` atomic.
    aba_protection:
        Use the ``*ABA`` operation variants (default).  With ``False`` the
        stack runs on plain CAS — faster per op, unsound under address
        recycling (kept for the ABA demonstration and Figure-3-style
        comparisons).
    unsafe_free:
        When popping *without* a guard: ``True`` frees nodes immediately
        (hazardous — test fuel), ``False`` leaks them (safe default).
    """

    def __init__(
        self,
        runtime: "Runtime",
        *,
        locale: int = 0,
        aba_protection: bool = True,
        unsafe_free: bool = False,
        name: str = "stack",
    ) -> None:
        self._rt = runtime
        self.aba_protection = bool(aba_protection)
        self.unsafe_free = bool(unsafe_free)
        self.head = AtomicObject(
            runtime,
            locale=locale,
            initial=NIL,
            aba_protection=aba_protection,
            name=name,
        )

    # ------------------------------------------------------------------
    def push(self, value: Any) -> GlobalAddress:
        """Push ``value``; returns the new node's address.

        Allocates the node on the calling task's locale and publishes it
        with a head CAS — Listing 1 verbatim (ABA variant when enabled).
        """
        rt = self._rt
        node = StackNode(value)
        addr = rt.new_obj(node)
        if self.aba_protection:
            while True:
                old_head = self.head.read_aba()
                node.next = old_head.get_object()
                if self.head.compare_and_swap_aba(old_head, addr):
                    return addr
        else:
            while True:
                old = self.head.read()
                node.next = old
                if self.head.compare_and_swap(old, addr):
                    return addr

    def pop(
        self,
        guard: Optional[Token] = None,
    ) -> Any:
        """Pop the top value; raises :class:`EmptyStructureError` when empty.

        With ``guard`` (a pinned reclamation guard of any scheme) the
        unlinked node is deferred for safe reclamation; without one it
        leaks — or, with ``unsafe_free=True``, is freed immediately
        (use-after-free fuel for the tests that motivate deferred
        reclamation).  Hazard-pointer guards additionally get the
        protect/validate handshake before the dereference.
        """
        rt = self._rt
        protecting = guard is not None and guard.needs_protect
        if self.aba_protection:
            while True:
                old_head = self.head.read_aba()
                addr = old_head.get_object()
                if is_nil(addr):
                    raise EmptyStructureError("pop from empty LockFreeStack")
                if protecting:
                    guard.protect(addr)
                    if self.head.read_aba().get_object() != addr:
                        continue  # head moved before the hazard was visible
                node = rt.deref(addr)
                next_addr = node.next
                if self.head.compare_and_swap_aba(old_head, next_addr):
                    value = node.value
                    self._retire(addr, guard)
                    return value
        else:
            while True:
                addr = self.head.read()
                if is_nil(addr):
                    raise EmptyStructureError("pop from empty LockFreeStack")
                if protecting:
                    guard.protect(addr)
                    if self.head.read() != addr:
                        continue  # head moved before the hazard was visible
                node = rt.deref(addr)
                next_addr = node.next
                if self.head.compare_and_swap(addr, next_addr):
                    value = node.value
                    self._retire(addr, guard)
                    return value

    def try_pop(
        self,
        guard: Optional[Token] = None,
    ) -> Optional[Any]:
        """Pop, returning ``None`` instead of raising on empty."""
        try:
            return self.pop(guard)
        except EmptyStructureError:
            return None

    def _retire(self, addr: GlobalAddress, guard: Optional[Token]) -> None:
        if guard is not None:
            guard.defer_delete(addr)
        elif self.unsafe_free:
            self._rt.free(addr)
        # else: leak (safe; reclaimed only by drain()).

    # ------------------------------------------------------------------
    def peek(self) -> Any:
        """Read the top value without removing it (None when empty)."""
        if self.aba_protection:
            addr = self.head.read_aba().get_object()
        else:
            addr = self.head.read()
        if is_nil(addr):
            return None
        return self._rt.deref(addr).value

    def is_empty(self) -> bool:
        """Snapshot emptiness (racy under concurrency, like any such check)."""
        if self.aba_protection:
            return is_nil(self.head.read_aba().get_object())
        return is_nil(self.head.read())

    def drain(
        self,
        guard: Optional[Token] = None,
    ) -> List[Any]:
        """Pop everything (quiescent helper for tests/teardown)."""
        out: List[Any] = []
        while True:
            v = self.try_pop(guard)
            if v is None and self.is_empty():
                break
            out.append(v)
        return out

    def unsafe_iter(self) -> Iterator[Any]:
        """Walk the stack without synchronization (quiescent tests only)."""
        addr = self.head.peek()
        while not is_nil(addr):
            node = self._rt.locale(addr.locale).heap.load(addr.offset)
            yield node.value
            addr = node.next

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LockFreeStack(aba={self.aba_protection})"
