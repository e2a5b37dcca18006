"""The wait-free limbo list and its lock-free node-recycling pool.

A limbo list holds objects that were *logically* removed from a data
structure during some epoch and are waiting out their quiescence period.
The paper observes the access pattern is special — an **insertion phase**
that is fully concurrent and a **deletion phase** that drains everything at
once, and the two phases never overlap — and designs a "somewhat novel but
simple" structure around it (Listing 2):

* ``push``: take a recycled node, *one atomic exchange* on the head, then
  link ``node.next = old_head``.  No CAS loop, no retry: **wait-free**.
* ``pop_all``: *one atomic exchange* of the head with nil, handing the
  caller the entire chain: also wait-free.

The deferred ``next`` write means a concurrently-pushed chain is only
*eventually* linked; that is sound precisely because the deletion phase is
disjoint from insertions (the epoch protocol guarantees nobody drains the
list others still push to).  :meth:`LimboList.pop_all` documents — and the
test suite exercises — that contract.

Nodes are recycled through :class:`NodePool`, a Treiber stack.  In the
Chapel original the pool needs the ``ABA`` wrapper because freed nodes'
*addresses* recur; here pool nodes are Python objects whose identity is
GC-protected, so an identity-CAS suffices (the simulated-heap structures
are where ABA is a live hazard — see
:mod:`repro.structures.treiber_stack`).  Costs charged are the same either
way: one atomic per link operation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from ..atomics.ref import AtomicRef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["LimboNode", "NodePool", "LimboList"]


class LimboNode:
    """One link of a limbo chain; recycled through :class:`NodePool`."""

    __slots__ = ("val", "next")

    def __init__(self) -> None:
        #: The deferred value (a :class:`~repro.memory.address.GlobalAddress`).
        self.val: Any = None
        #: Next node in the chain (``None`` terminates).
        self.next: Optional["LimboNode"] = None


class NodePool:
    """A lock-free Treiber stack of recycled :class:`LimboNode` objects.

    Shared by all three limbo lists of one locale's epoch-manager instance,
    so the steady-state allocation rate of the reclamation machinery itself
    is zero — deferring a deletion allocates nothing once the pool is warm.
    Retire-path pushes take nodes with :meth:`get`; drains fill the pool
    (:meth:`LimboList.drain` relinks its whole chain onto the head).
    """

    def __init__(self, runtime: "Runtime", home: int) -> None:
        self._head = AtomicRef(runtime, home, None, name=f"nodepool@{home}")
        #: Nodes created because the pool was empty (diagnostic).
        self.allocated = 0

    def get(self, val: Any) -> LimboNode:
        """Pop a recycled node (or allocate one) and fill it with ``val``.

        The head is charged in place (``_enter``, then the commit of
        ``read`` / ``compare_and_swap`` on ``_value``): only this
        locale's retire path and drains touch it.
        """
        head = self._head
        while True:
            head._enter(False)
            node = head._value
            if node is None:
                fresh = LimboNode()
                fresh.val = val
                self.allocated += 1
                return fresh
            head._enter(False)
            if head._value is node:
                head._value = node.next
                node.val = val
                node.next = None
                return node

    def drain_count(self) -> int:
        """Number of nodes currently pooled (O(n); tests only)."""
        n = 0
        node = self._head.peek()
        while node is not None:
            n += 1
            node = node.next
        return n


class LimboList:
    """Wait-free multi-producer list with bulk removal (paper Listing 2).

    ``pool=None`` runs the list without node recycling: pushes allocate a
    fresh node (no pool-head read, no CAS anywhere) and drains discard
    nodes to the garbage collector.  The socket-shared epoch-manager mode
    (docs/AGGREGATION.md) uses this: with producers on *several* locales
    feeding one list, a recycled pool's ``get`` would be a CAS loop over
    state concurrently mutated by other tasks — a charged,
    schedule-dependent retry count that breaks the engine's determinism
    contract.  Fresh allocation keeps every push exactly one charged
    exchange.
    """

    def __init__(
        self,
        runtime: "Runtime",
        home: int,
        pool: Optional[NodePool],
        name: str = "",
    ) -> None:
        self._head = AtomicRef(runtime, home, None, name=name or f"limbo@{home}")
        self._pool = pool
        self.home = home

    def push(self, val: Any) -> None:
        """Defer ``val``: recycle a node, one exchange, link behind.

        Wait-free: completes in a bounded number of steps regardless of
        contention (the pool's CAS loop is bounded by pool size in practice
        and the paper counts the structure's *publication* — the exchange —
        which never retries).
        """
        if self._pool is None:
            node = LimboNode()
            node.val = val
        else:
            node = self._pool.get(val)
        # In place: old = self._head.exchange(node).
        head = self._head
        head._enter(False)
        node.next = head._value
        head._value = node

    def pop_all(self) -> Optional[LimboNode]:
        """Detach and return the whole chain (one exchange).

        Contract: callers must guarantee no concurrent ``push`` is between
        its exchange and its ``next`` link — the epoch protocol provides
        this by only draining lists two epochs old.  ``clear()`` relies on
        its stronger "no other thread is interacting" precondition.
        """
        # In place: return self._head.exchange(None).
        head = self._head
        head._enter(False)
        node = head._value
        head._value = None
        return node

    def drain(self) -> List[Any]:
        """Pop everything and return the values, newest first, recycling
        the nodes in chain order.

        Without a pool, drained nodes are simply dropped (GC reclaims
        them) — no charged pool pushes.
        """
        node = self.pop_all()
        vals: List[Any] = []
        pool = self._pool
        if pool is None:
            while node is not None:
                vals.append(node.val)
                node = node.next
            return vals
        # Each node goes back as one lock-free push: a read and a CAS of
        # the pool head that cannot fail, since only this instance's retire
        # path and drains touch it and tasks switch only between whole
        # operations.  So the pushes are the 2n charges back to back and
        # one commit of the chain relinked onto the head in order.
        head = pool._head
        top = head._value
        while node is not None:
            nxt = node.next
            vals.append(node.val)
            node.val = None
            node.next = top
            top = node
            node = nxt
        head._value = top
        head._charge_run(2 * len(vals))
        return vals

    def is_empty_snapshot(self) -> bool:
        """Cost-free emptiness check (tests only; racy by nature)."""
        return self._head.peek() is None
