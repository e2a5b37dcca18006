"""A distributed Michael–Scott lock-free FIFO queue.

The second classic the paper's abstract promises its building blocks make
possible ("queues, stacks, and linked lists").  Structure:

* a dummy node anchors the queue; ``head`` and ``tail`` are
  :class:`~repro.core.atomic_object.AtomicObject` cells;
* each node's ``next`` is itself an ``AtomicObject`` living on the node's
  locale, because enqueue publishes by CAS-ing the predecessor's ``next``;
* enqueuers help lagging tails forward (lock-freedom: someone always
  completes);
* dequeued nodes retire through an epoch-manager token when supplied.

ABA strategy — the paper's two options, both available:

``aba_protection=True`` (default)
    Every pointer is read/CAS'd with its adjacent counter via DCAS.  Safe
    even with immediate address recycling, but a remote DCAS is an active
    message — the demoted path of Figure 3.

``aba_protection=False`` + a reclamation guard on every operation
    Plain 64-bit compressed-pointer CASes — the RDMA fast path.  Sound
    because deferred reclamation *is* an ABA defense: a node's address
    cannot be recycled while any participant that might hold it is
    protected.  Any guard from :mod:`repro.reclaim` works (EBR token,
    hazard-pointer, QSBR, interval); under a hazard-pointer guard the
    operations additionally run the protect/validate handshake on the
    head/tail/next pointers they dereference.

Nodes allocate on the enqueuing task's locale, so a busy queue's links
cross locales and the cost model exercises genuine remote CAS traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from ..core.atomic_object import AtomicObject
from ..core.token import Token
from ..errors import EmptyStructureError
from ..memory.address import NIL, GlobalAddress, is_nil

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["QueueNode", "LockFreeQueue"]


class QueueNode:
    """One queue node; ``next`` is a CAS-able atomic wide pointer."""

    __slots__ = ("value", "next")

    def __init__(
        self, runtime: "Runtime", value: Any, locale: int, aba: bool
    ) -> None:
        self.value = value
        self.next = AtomicObject(
            runtime, locale=locale, initial=NIL, aba_protection=aba
        )


class LockFreeQueue:
    """Michael–Scott two-pointer FIFO queue with EBR-based reclamation."""

    def __init__(
        self,
        runtime: "Runtime",
        *,
        locale: int = 0,
        aba_protection: bool = True,
        name: str = "queue",
    ) -> None:
        self._rt = runtime
        self.home = runtime.locale(locale).id
        self.aba_protection = bool(aba_protection)
        # The dummy node lives on the queue's home locale.
        dummy = QueueNode(runtime, None, self.home, self.aba_protection)
        dummy_addr = runtime.locale(self.home).heap.alloc(dummy)
        self.head = AtomicObject(
            runtime,
            locale=self.home,
            initial=dummy_addr,
            aba_protection=self.aba_protection,
            name=f"{name}.head",
        )
        self.tail = AtomicObject(
            runtime,
            locale=self.home,
            initial=dummy_addr,
            aba_protection=self.aba_protection,
            name=f"{name}.tail",
        )

    # ------------------------------------------------------------------
    # mode-dispatch helpers: snapshots are ABA pairs or bare addresses
    # ------------------------------------------------------------------
    def _load(self, cell: AtomicObject) -> Tuple[Any, GlobalAddress]:
        """Read a cell; returns (snapshot-for-CAS, address)."""
        if self.aba_protection:
            snap = cell.read_aba()
            return snap, snap.get_object()
        addr = cell.read()
        return addr, addr

    def _cas(self, cell: AtomicObject, snap: Any, new: GlobalAddress) -> bool:
        """CAS a cell against a snapshot from :meth:`_load`."""
        if self.aba_protection:
            return cell.compare_and_swap_aba(snap, new)
        return cell.compare_and_swap(snap, new)

    # ------------------------------------------------------------------
    def enqueue(
        self,
        value: Any,
        guard: Optional[Token] = None,
    ) -> None:
        """Append ``value`` (lock-free; helps a lagging tail forward).

        ``guard`` is accepted for interface symmetry (an enqueue retires
        nothing); in the plain-CAS mode the *caller* is responsible for
        operating under a pinned guard so deferred reclamation can stand
        in for ABA protection.
        """
        rt = self._rt
        protecting = guard is not None and guard.needs_protect
        node = QueueNode(rt, value, rt.here(), self.aba_protection)
        addr = rt.new_obj(node)
        while True:
            tail_snap, tail_addr = self._load(self.tail)
            if protecting:
                guard.protect(tail_addr, 0)
                if self._load(self.tail)[1] != tail_addr:
                    continue  # tail moved before the hazard was visible
            tail_node = rt.deref(tail_addr)
            next_snap, next_addr = self._load(tail_node.next)
            # Re-check the tail hasn't moved since we read it.
            if self._load(self.tail)[1] != tail_addr:
                continue
            if is_nil(next_addr):
                # Tail really is last: link the new node behind it.
                if self._cas(tail_node.next, next_snap, addr):
                    # Swing the tail (failure is fine: someone helped).
                    self._cas(self.tail, tail_snap, addr)
                    return
            else:
                # Tail is lagging: help it forward and retry.
                self._cas(self.tail, tail_snap, next_addr)

    def dequeue(
        self,
        guard: Optional[Token] = None,
    ) -> Any:
        """Remove and return the oldest value.

        Raises :class:`EmptyStructureError` when the queue is empty.  The
        retired dummy node is deferred through ``guard`` when given (else
        leaked, which is safe).
        """
        rt = self._rt
        protecting = guard is not None and guard.needs_protect
        while True:
            head_snap, head_addr = self._load(self.head)
            if protecting:
                guard.protect(head_addr, 0)
                if self._load(self.head)[1] != head_addr:
                    continue  # head moved before the hazard was visible
            tail_snap, tail_addr = self._load(self.tail)
            head_node = rt.deref(head_addr)
            _, next_addr = self._load(head_node.next)
            if self._load(self.head)[1] != head_addr:
                continue
            if head_addr == tail_addr:
                if is_nil(next_addr):
                    raise EmptyStructureError("dequeue from empty LockFreeQueue")
                # Tail lagging behind a half-finished enqueue: help.
                self._cas(self.tail, tail_snap, next_addr)
                continue
            if protecting:
                guard.protect(next_addr, 1)
                if self._load(self.head)[1] != head_addr:
                    continue  # next may have been recycled; retry from head
            next_node = rt.deref(next_addr)
            value = next_node.value
            if self._cas(self.head, head_snap, next_addr):
                # head_addr's node becomes garbage (the new dummy is next).
                if guard is not None:
                    guard.defer_delete(head_addr)
                return value

    def try_dequeue(
        self,
        guard: Optional[Token] = None,
    ) -> Optional[Any]:
        """Dequeue, returning ``None`` instead of raising on empty."""
        try:
            return self.dequeue(guard)
        except EmptyStructureError:
            return None

    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """Snapshot emptiness check."""
        _, head_addr = self._load(self.head)
        node = self._rt.deref(head_addr)
        return is_nil(self._load(node.next)[1])

    def drain(
        self,
        guard: Optional[Token] = None,
    ) -> List[Any]:
        """Dequeue everything (quiescent helper)."""
        out: List[Any] = []
        while True:
            v = self.try_dequeue(guard)
            if v is None and self.is_empty():
                break
            out.append(v)
        return out

    def unsafe_len(self) -> int:
        """Count nodes without synchronization (quiescent tests only)."""
        n = 0
        addr = self.head.peek()
        node = self._rt.locale(addr.locale).heap.load(addr.offset)
        addr = node.next.peek()
        while not is_nil(addr):
            n += 1
            node = self._rt.locale(addr.locale).heap.load(addr.offset)
            addr = node.next.peek()
        return n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LockFreeQueue(aba={self.aba_protection})"
