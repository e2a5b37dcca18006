"""Epoch-manager tokens: per-task handles into the reclamation protocol.

A task must *register* with the epoch manager before touching a protected
structure, obtaining a :class:`Token`; while holding one it *pins* to enter
the current epoch and *unpins* to leave it.  Between pin and unpin it may
``defer_delete`` logically-removed objects, which land in the limbo list of
the token's pinned epoch.

Two lock-free lists manage tokens, exactly as in the paper:

* a **free list** (Treiber stack) used by register/unregister, so token
  objects — and their epoch slots — are recycled rather than allocated;
* an **allocated list** (append-only push list) that ``tryReclaim`` scans
  to find whether any task is still in an old epoch.  Tokens are never
  removed from it; an unregistered token simply shows epoch 0 (quiescent).

A token is locale-bound: it lives on the locale where it was registered and
must be pinned/unpinned there (which the ``forall`` task-private intent
guarantees naturally).  Tokens support the context-manager protocol and a
``close()`` method so ``forall(..., task_init=em.register)`` unregisters
automatically when the task ends — the analogue of the paper's managed
wrapper class unregistering at scope exit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

from ..atomics.integer import AtomicUInt64
from ..atomics.ref import AtomicRef
from ..errors import TokenStateError
from ..memory.address import GlobalAddress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import TaskContext
    from ..runtime.runtime import Runtime
    from .epoch_manager import _EpochManagerInstance

__all__ = ["Token", "TokenFreeList", "TokenAllocatedList"]


class Token:
    """One task's registration with an epoch-manager instance.

    Tokens are the EBR implementation of the scheme-generic *guard
    protocol* (:mod:`repro.reclaim`): any structure or workload written
    against a guard accepts a token unchanged.  Epoch-based protection is
    region-based, so :meth:`protect` is a free no-op and
    ``needs_protect`` is False — structures skip their hazard-pointer
    validation reads entirely on the EBR path.
    """

    #: Guard-protocol flag: EBR needs no per-pointer announcements.
    needs_protect = False

    __slots__ = (
        "_manager",
        "_rt",
        "_home",
        "_home_locales",
        "_inst_epoch",
        "_limbo_lists",
        "_slot_retire_vt",
        "local_epoch",
        "token_id",
        "_registered",
        "_free_next",
        "_alloc_next",
        "_track_pins",
        "_last_pin_vt",
        "_track_ages",
        "_full_tracer",
    )

    def __init__(self, inst: "_EpochManagerInstance", token_id: int) -> None:
        # The token keeps the parts of its instance it uses, never the
        # instance itself: the instance's token lists link to the token,
        # so a back-reference would make every manager cyclic garbage.
        #: The owning manager (reached by ``try_reclaim``/``unregister``).
        self._manager = inst.manager
        #: The owning runtime, whose ``_ctx`` slot names the running task.
        self._rt = inst.runtime
        #: The instance's locale: the token's home, and its privatized key.
        self._home = inst.locale_id
        #: Locales that may use the token: just ``_home``, or the whole
        #: coherence domain of a socket-shared instance.
        self._home_locales = inst.home_locales
        #: The epoch this token is pinned in; 0 = quiescent (not pinned).
        #: Opted out of network atomics: only tasks on the home locale and
        #: the reclamation scan (which runs *on* this locale) touch it.
        self.local_epoch = AtomicUInt64(
            inst.runtime,
            inst.locale_id,
            0,
            name=f"token{token_id}@{inst.locale_id}",
            opt_out=True,
        )
        self.token_id = token_id
        #: Cached reference to the instance's locale-epoch cell (pin reads
        #: it up to twice per call; skip the two-attribute chain).
        self._inst_epoch = inst.locale_epoch
        #: The instance's limbo lists and oldest-retire slots, written by
        #: ``defer_delete``.
        self._limbo_lists = inst.limbo_lists
        self._slot_retire_vt = inst.slot_retire_vt
        self._registered = True
        self._free_next: Optional["Token"] = None  # free-list link
        self._alloc_next: Optional["Token"] = None  # allocated-list link
        #: Pin-timestamp tracking (docs/POLICY.md): only a grace-period
        #: epoch policy reads pin times, so the per-pin store is gated on
        #: one cached bool — every other policy pays a single branch.
        self._track_pins = inst.manager.policy.wants_pin_times
        #: Virtual time of this token's most recent pin (owner-written;
        #: max-folded by the root at policy decision points).
        self._last_pin_vt: Optional[float] = None
        #: Limbo-age tracking (docs/POLICY.md, docs/OBSERVABILITY.md):
        #: gated like ``_track_pins`` on one cached bool, so the stock
        #: policies with tracing off pay a single branch per retire.
        self._track_ages = inst.manager._track_ages
        #: Full-detail flight recorder, or None (docs/OBSERVABILITY.md).
        self._full_tracer = inst.manager._full

    # ------------------------------------------------------------------
    def _check_usable(self) -> "TaskContext":
        """Return the running task of the token's runtime, on a locale
        that may use the token, or raise the precise error.

        ``pin``, ``unpin`` and ``defer_delete`` test the usable case inline
        and call this only when that test fails.
        """
        if not self._registered:
            raise TokenStateError("token has been unregistered")
        ctx = self._rt._own_context()
        # home_locales is {locale_id} for per-locale instances; under the
        # socket-shared mode (docs/AGGREGATION.md) it is the instance's
        # whole coherence domain — any socket sibling may use the token
        # (its atomics are then coherent-class, still CPU-priced).
        if ctx.locale_id not in self._home_locales:
            raise TokenStateError(
                f"token registered on locale {self._home} used from"
                f" locale {ctx.locale_id}; register per-task on each locale"
            )
        return ctx

    @property
    def is_registered(self) -> bool:
        """True until :meth:`unregister` is called."""
        return self._registered

    @property
    def is_pinned(self) -> bool:
        """Cost-free pinned check (tests / assertions)."""
        return self.local_epoch.peek() != 0

    # ------------------------------------------------------------------
    def pin(self) -> None:
        """Enter the current epoch (cached per-locale; zero communication).

        Publishes the epoch to the token slot and then *re-validates* that
        the locale epoch did not advance in between — the standard EBR
        guard against the read/announce race (an advance that scanned the
        slot before the write could otherwise run ahead of a pin taken
        from a stale epoch).  The loop re-runs only when an advance lands
        in the tiny read-write window, so the common case is exactly two
        local CPU atomics.

        A long-pinned token is what *blocks* epoch advancement, so
        pin/unpin should bracket operations tightly.
        """
        ctx = self._rt._ctx
        if ctx is None or not self._registered or ctx.locale_id not in self._home_locales:
            ctx = self._check_usable()
        if self._track_pins:
            # Virtual-time fact for the grace epoch policy: the owning
            # task is the only writer; the root max-folds across tokens
            # at (post-join) decision points.
            self._last_pin_vt = ctx.now
        tr = self._full_tracer
        if tr is not None:
            tr.guard("pin", "ebr", ctx.now)
        # Owner-only words, charged in place: each charge-then-commit is
        # the op method's body minus its frame (atomics/cell.py).
        inst_epoch = self._inst_epoch
        my_epoch = self.local_epoch
        inst_epoch._enter(False)
        epoch = inst_epoch._value
        while True:
            my_epoch._enter(False)
            my_epoch._value = epoch
            inst_epoch._enter(False)
            current = inst_epoch._value
            if current == epoch:
                return
            epoch = current

    def unpin(self) -> None:
        """Leave the epoch (become quiescent)."""
        ctx = self._rt._ctx
        if ctx is None or not self._registered or ctx.locale_id not in self._home_locales:
            self._check_usable()
        my_epoch = self.local_epoch
        my_epoch._enter(False)  # in place: local_epoch.write(0)
        my_epoch._value = 0

    def defer_delete(self, addr: GlobalAddress) -> None:
        """Defer reclamation of ``addr`` to the *current* (locale) epoch.

        The object must already be *logically removed* (unreachable from
        the structure); the epoch protocol delays the physical free until
        every task that might still hold a reference has quiesced.

        Epoch choice — a subtle but load-bearing detail: the object is
        filed under the locale's **current** epoch, not the token's pinned
        epoch.  A token may legitimately remain pinned one epoch behind
        (Figure 1 allows it), and filing under that stale epoch would
        place an object removed *now* into a list only one advance from
        reclamation — freeing it while a token pinned in the current epoch
        may still hold a reference.  Our property-based test
        (``test_no_premature_free_under_any_schedule``) found exactly this
        with the stale-epoch rule; filing under the locale epoch restores
        the two-full-advances quiescence guarantee.
        """
        ctx = self._rt._ctx
        if ctx is None or not self._registered or ctx.locale_id not in self._home_locales:
            ctx = self._check_usable()
        # In place, as in pin: local_epoch.read(), then _inst_epoch.read().
        my_epoch = self.local_epoch
        my_epoch._enter(False)
        if my_epoch._value == 0:
            raise TokenStateError("defer_delete requires a pinned token")
        inst_epoch = self._inst_epoch
        inst_epoch._enter(False)
        epoch = inst_epoch._value
        self._limbo_lists[epoch - 1].push(addr)
        if self._track_ages:
            # Limbo-age fact: min-fold the retire timestamp into the
            # instance's per-slot array (socket siblings may retire into
            # one shared instance).
            now = ctx.now
            slot = epoch - 1
            retire_vt = self._slot_retire_vt
            cur = retire_vt[slot]
            if cur is None or now < cur:
                retire_vt[slot] = now
            tr = self._full_tracer
            if tr is not None:
                # Unit+slot tag: the metrics registry pairs this with the
                # matching drain event to recover the exact limbo age.
                tr.guard(
                    "retire",
                    "ebr",
                    now,
                    unit=tr.unit_id(self._limbo_lists),
                    slot=slot,
                )

    # Chapel-style alias.
    deferDelete = defer_delete

    def protect(self, addr: GlobalAddress, slot: int = 0) -> GlobalAddress:
        """Guard-protocol no-op: epochs protect whole pinned regions."""
        return addr

    def try_reclaim(self) -> bool:
        """Attempt a global epoch advance (the manager's attempt without
        its handle-level peak-pending sample)."""
        self._check_usable()
        return self._manager._try_reclaim()

    tryReclaim = try_reclaim

    # ------------------------------------------------------------------
    def unregister(self) -> None:
        """Release the token back to its locale's free list (idempotent)."""
        if not self._registered:
            return
        self.local_epoch.write(0)
        self._registered = False
        self._manager.get_privatized_instance(self._home).free_tokens.push(self)

    def close(self) -> None:
        """Alias for :meth:`unregister`; hooks ``forall`` task cleanup."""
        self.unregister()

    def __enter__(self) -> "Token":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.unregister()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Token(id={self.token_id}, locale={self._home},"
            f" epoch={self.local_epoch.peek()}, registered={self._registered})"
        )


class TokenFreeList:
    """Lock-free Treiber stack of unregistered tokens (intrusive)."""

    def __init__(self, runtime: "Runtime", home: int) -> None:
        self._head = AtomicRef(runtime, home, None, name=f"tokenfree@{home}")

    def push(self, token: Token) -> None:
        """Return ``token`` for reuse by a later ``register()``."""
        while True:
            head = self._head.read()
            token._free_next = head
            if self._head.compare_and_swap(head, token):
                return

    def pop(self) -> Optional[Token]:
        """Take a recycled token, or ``None`` when the list is empty."""
        while True:
            token = self._head.read()
            if token is None:
                return None
            if self._head.compare_and_swap(token, token._free_next):
                token._free_next = None
                return token


class TokenAllocatedList:
    """Append-only lock-free list of every token ever created here.

    ``tryReclaim`` walks it to compute the minimum epoch; unregistered
    tokens read as epoch 0 and never block advancement.
    """

    def __init__(self, runtime: "Runtime", home: int) -> None:
        self._head = AtomicRef(runtime, home, None, name=f"tokenalloc@{home}")
        #: Total tokens ever allocated on this locale (diagnostic).
        self.count = 0

    def push(self, token: Token) -> None:
        """Link a newly-created token (never removed afterwards)."""
        while True:
            head = self._head.read()
            token._alloc_next = head
            if self._head.compare_and_swap(head, token):
                self.count += 1
                return

    def __iter__(self) -> Iterator[Token]:
        """Walk the list (reads are plain loads; links are immutable)."""
        token = self._head.peek()
        while token is not None:
            yield token
            token = token._alloc_next
