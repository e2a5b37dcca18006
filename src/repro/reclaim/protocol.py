"""The shared guard protocol every reclamation scheme implements.

The paper's :class:`~repro.core.epoch_manager.EpochManager` is the
``"ebr"`` scheme, one of four peers in a comparative harness.  Every
scheme presents the same lifecycle::

    rec   = make_reclaimer(rt, "hp")       # or "ebr" / "qsbr" / "ibr"
    guard = rec.register()                 # per-task, on the task's locale
    guard.pin()                            # enter a protected region
    if guard.needs_protect:                # HP only: the method exists
        addr = guard.protect(addr)         # where the flag is true
    guard.defer_delete(addr)               # retire a logically-removed obj
    guard.unpin()                          # leave the region
    rec.phase_boundary()                   # quiescent point (forall join)
    rec.try_reclaim()                      # attempt to free retired objs
    rec.clear(); rec.destroy()             # quiescent teardown

Two halves for the list-based schemes (HP, QSBR, IBR):

* :class:`ReclaimerBase` — the manager: guard registry (one list per
  locale, privatized like EBR's token lists), retirement accounting,
  ``try_reclaim`` / ``clear`` / ``destroy``; policy, tracing and
  ``stats`` come from the
  :class:`~repro.core.manager_core.ManagerCore` it shares with
  ``EpochManager``.
* :class:`GuardBase` — the per-task handle: locale-bound like the EBR
  :class:`~repro.core.token.Token` (whose public surface it mirrors
  exactly, so the two are interchangeable anywhere a "token" is taken).

Protocol contracts (enforced, and covered by the conformance tests in
``tests/test_reclaimers.py``):

* ``defer_delete`` requires a pinned guard (:class:`TokenStateError`
  otherwise — *unguarded-access detection*);
* every manager entry point raises :class:`ReclaimerError` after
  ``destroy()`` (*use-after-destroy*);
* retiring the same address twice is not masked: the double free surfaces
  as :class:`~repro.errors.DoubleFreeError` when the object is physically
  reclaimed (*double-retire*);
* ``clear`` and ``destroy`` require caller-guaranteed quiescence, exactly
  as ``EpochManager.clear`` does;
* ``try_reclaim`` never blocks: a scheme that cannot make progress
  returns ``False``.

Determinism discipline: like EBR's ``tryReclaim``, the manager-level
``phase_boundary()`` / ``try_reclaim()`` pair is meant to run from the
root task at ``forall`` phase boundaries; guard-level ``try_reclaim`` is
allowed anywhere but its scan outcome may then depend on concurrent
hazard/quiescence state (see the determinism notes in
:mod:`repro.bench.workloads`).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..comm.aggregation import BatchCounters
from ..core.manager_core import ManagerCore
from ..core.privatization import PrivatizedObject
from ..errors import ReclaimerError, TokenStateError
from ..memory.address import GlobalAddress
from ..runtime.config import RECLAIMER_SCHEMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import TaskContext
    from ..runtime.runtime import Runtime

__all__ = [
    "GuardBase",
    "ReclaimerBase",
    "RECLAIMER_SCHEMES",
    "make_reclaimer",
    "default_reclaimer",
]


class GuardBase:
    """Per-task reclamation handle (the scheme-generic half of a Token).

    Subclasses supply the scheme's ``pin`` / ``unpin`` / retirement
    behaviour; the base class carries the registration/locale bookkeeping
    and the retired list shared by the list-based schemes (HP/QSBR/IBR).
    EBR's :class:`~repro.core.token.Token` does *not* inherit from this
    class — it files retirements in its manager's per-epoch limbo lists,
    not a guard-local buffer — but exposes the same surface, which the
    conformance tests pin down.
    """

    #: True when the scheme requires per-pointer ``protect`` announcements
    #: (hazard pointers), whose guards are the only ones with a
    #: ``protect`` method.  Structures consult this flag so the EBR path
    #: carries zero additional virtual cost.
    needs_protect = False

    __slots__ = (
        "_rec",
        "_rt",
        "locale_id",
        "guard_id",
        "_registered",
        "_pinned",
        "_retired",
        "_last_pin_vt",
    )

    def __init__(self, reclaimer: "ReclaimerBase", locale_id: int, guard_id: int) -> None:
        self._rec = reclaimer
        #: The owning runtime, whose ``_ctx`` slot names the running task.
        self._rt = reclaimer._rt
        self.locale_id = locale_id
        self.guard_id = guard_id
        self._registered = True
        self._pinned = False
        #: Guard-local retirement buffer: (address, tag) pairs.  Appended
        #: by the owning task; drained by reclaim calls.
        self._retired: List[Tuple[GlobalAddress, int]] = []
        #: Virtual time of the most recent pin (docs/POLICY.md): recorded
        #: only while a pin-tracking (grace) policy is installed, written
        #: by the owning task only, max-folded by the root at decision
        #: points.
        self._last_pin_vt: "float | None" = None

    # ------------------------------------------------------------------
    def _check_usable(self) -> "TaskContext":
        """Return the running task of the guard's runtime, on the guard's
        locale."""
        if not self._registered:
            raise TokenStateError("guard has been unregistered")
        ctx = self._rt._ctx
        if ctx is None:
            ctx = self._rt._own_context()
        if ctx.locale_id != self.locale_id:
            raise TokenStateError(
                f"guard registered on locale {self.locale_id} used from"
                f" locale {ctx.locale_id}; register per-task on each locale"
            )
        return ctx

    def _charge_local_load(self, ctx: "TaskContext") -> None:
        """Charge one plain local load/store (the retire-buffer append)."""
        ctx.now += self._rec._costs.cpu_load_latency

    @property
    def is_registered(self) -> bool:
        """True until :meth:`unregister` is called."""
        return self._registered

    @property
    def is_pinned(self) -> bool:
        """Cost-free pinned check (tests / assertions)."""
        return self._pinned

    # ------------------------------------------------------------------
    # the protected-region protocol
    # ------------------------------------------------------------------
    def _note_pin(self, ctx: "TaskContext") -> None:
        """Record the pin's virtual timestamp when a policy wants it.

        One cached-bool branch per pin for every non-tracking policy;
        the store itself is thread-private (the owning task is the only
        writer) and costs zero virtual time — it is a *fact*, not an
        operation.
        """
        rec = self._rec
        if rec._track_pins:
            self._last_pin_vt = ctx.now
        tr = rec._full
        if tr is not None:
            tr.guard("pin", rec.scheme, ctx.now)

    def pin(self) -> None:
        """Enter a protected region (scheme-specific announcement cost)."""
        ctx = self._check_usable()
        self._note_pin(ctx)
        self._pinned = True

    def unpin(self) -> None:
        """Leave the protected region (become quiescent-eligible)."""
        self._check_usable()
        self._pinned = False

    def defer_delete(self, addr: GlobalAddress) -> None:
        """Retire a logically-removed object for deferred reclamation."""
        ctx = self._check_usable()
        if not self._pinned:
            raise TokenStateError("defer_delete requires a pinned guard")
        self._charge_local_load(ctx)
        rec = self._rec
        tr = rec._full
        if tr is not None:
            # Full tracing: the entry carries its retire timestamp as a
            # third element, for the limbo-age histogram of its free
            # event.  Every consumer indexes entries, so both shapes
            # coexist.
            now = ctx.now
            self._retired.append((addr, self._retire_tag(), now))
            tr.guard("retire", rec.scheme, now)
        else:
            self._retired.append((addr, self._retire_tag()))
        self._after_retire()

    def _retire_tag(self) -> int:
        """The scheme-specific tag stored with a retired address."""
        return 0

    def _after_retire(self) -> None:
        """Hook run after each retirement (HP's threshold scan)."""

    def try_reclaim(self) -> bool:
        """Attempt reclamation (defers to the manager by default)."""
        self._check_usable()
        return self._rec.try_reclaim()

    # ------------------------------------------------------------------
    def unregister(self) -> None:
        """Release the guard (idempotent).

        Outstanding retirements are handed to the manager so a guard's
        death never leaks memory — they free at the next ``try_reclaim``
        or ``clear`` like any other retired object.
        """
        if not self._registered:
            return
        self._on_unregister()
        self._pinned = False
        self._registered = False
        entries, self._retired = self._retired, []
        if entries:
            self._rec._adopt_orphans(entries)

    def _on_unregister(self) -> None:
        """Scheme hook: clear announcements before the guard goes away."""

    def close(self) -> None:
        """Alias for :meth:`unregister`; hooks ``forall`` task cleanup."""
        self.unregister()

    def __enter__(self) -> "GuardBase":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.unregister()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(id={self.guard_id},"
            f" locale={self.locale_id}, pinned={self._pinned},"
            f" registered={self._registered})"
        )


class ReclaimerBase(ManagerCore, PrivatizedObject):
    """Manager half of the guard protocol for the list-based schemes.

    Subclasses implement ``_guard_class`` construction via
    :meth:`_make_guard` and the scheme's :meth:`try_reclaim`.  The retired
    lists live on the guards; the manager owns the registry, the orphan
    list (retirements of unregistered guards), and the free machinery.
    Policy, tracing and the normalized stats come from
    :class:`~repro.core.manager_core.ManagerCore`, shared with the EBR
    :class:`~repro.core.epoch_manager.EpochManager`.

    The registry is the manager's privatized instance: one list per
    locale of the guards registered there, as EBR keeps its tokens.  A
    guard holds its manager, so the manager reaches its guards only
    through the runtime's privatized table, which ``Runtime.close``
    drops: a finished reclaimer is not cyclic garbage.
    """

    def __init__(self, runtime: "Runtime") -> None:
        ManagerCore.__init__(self, runtime)
        PrivatizedObject.__init__(
            self, runtime, [[] for _ in range(runtime.num_locales)]
        )
        self._costs = runtime.config.costs
        self._guard_seq = 0
        #: Retirements inherited from unregistered guards.
        self._orphans: List[Tuple[GlobalAddress, int]] = []
        # Accounting (updated at root-driven reclaim points, so the values
        # are deterministic under the workload discipline).
        self._freed = 0
        self._reclaim_attempts = 0
        self._reclaims = 0
        # Uplink-aggregation diagnostics (docs/AGGREGATION.md): batched
        # messages issued by this scheme's scan/free paths, each one
        # shared-uplink traversal.  Zero with aggregation off or on a
        # flat machine.
        self._scan_batches = 0

    # ------------------------------------------------------------------
    def register(self) -> GuardBase:
        """Obtain a guard on the calling task's locale."""
        self._check_alive()
        locale_id = self._rt._own_context("register").locale_id
        gid = self._guard_seq
        self._guard_seq += 1
        guard = self._make_guard(locale_id, gid)
        self.get_privatized_instance(locale_id).append(guard)
        return guard

    def _make_guard(self, locale_id: int, guard_id: int) -> GuardBase:
        raise NotImplementedError

    def _all_guards(self) -> List[GuardBase]:
        """Every guard ever registered, in registration order (the
        per-locale lists merged by guard id; zero virtual cost)."""
        return sorted(chain.from_iterable(self._instances()), key=_guard_id)

    def _registered_guards(self) -> List[GuardBase]:
        """Registry snapshot (zero virtual cost)."""
        return [g for g in self._all_guards() if g._registered]

    def _adopt_orphans(self, entries: List[Tuple[GlobalAddress, int]]) -> None:
        self._orphans.extend(entries)

    # ------------------------------------------------------------------
    # reclamation
    # ------------------------------------------------------------------
    def phase_boundary(self) -> None:
        """Declare a quiescent point (``forall`` join).  Default: no-op.

        QSBR overrides this to mark every unpinned guard quiescent — its
        explicit quiescent-state announcements happen here, at phase
        boundaries, rather than per operation.
        """
        self._check_alive()

    def try_reclaim(self) -> bool:
        """Attempt to free retired objects; never blocks."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # policy facts (docs/POLICY.md)
    # ------------------------------------------------------------------
    def _fact_folds(self):
        """Per-locale pending counts fold the registered guards' buffer
        lengths (exact at root decision points — workers are joined);
        orphaned retirements append one trailing entry.  The last-pin
        timestamp max-folds the per-guard records, which only exist while
        a pin-tracking policy is installed.
        """
        per_locale: Dict[int, int] = {}
        last_pin: "float | None" = None
        want_pins = self._track_pins
        for guard in self._registered_guards():
            per_locale[guard.locale_id] = per_locale.get(
                guard.locale_id, 0
            ) + len(guard._retired)
            if want_pins:
                t = guard._last_pin_vt
                if t is not None and (last_pin is None or t > last_pin):
                    last_pin = t
        pending = [per_locale[lid] for lid in sorted(per_locale)]
        orphans = len(self._orphans)
        if orphans:
            pending.append(orphans)
        return tuple(pending), last_pin

    def _drain_retired(self, guards: List["GuardBase"], keep) -> int:
        """Drain ``guards``' buffers plus the orphans and free the rest.

        The one shared partition-and-free pipeline every scheme's reclaim
        path runs: entries satisfying ``keep(entry)`` stay buffered (a
        hazard names them / their tag is too recent), everything else is
        bulk-freed by owning locale.  ``keep=None`` frees unconditionally
        (the ``clear`` contract).
        """
        to_free: List[Tuple[GlobalAddress, int]] = []
        for guard in guards:
            if keep is None:
                to_free.extend(guard._retired)
                guard._retired = []
            else:
                kept = []
                for entry in guard._retired:
                    if keep(entry):
                        kept.append(entry)
                    else:
                        to_free.append(entry)
                guard._retired = kept
        orphans = self._orphans
        self._orphans = []
        if keep is None:
            to_free.extend(orphans)
        else:
            kept_orphans = [e for e in orphans if keep(e)]
            to_free.extend(e for e in orphans if not keep(e))
            if kept_orphans:
                self._adopt_orphans(kept_orphans)
        freed = self._free_entries(to_free)
        tr = self._full
        if tr is not None and to_free:
            self._emit_free_event(tr, to_free, freed)
        return freed

    def _emit_free_event(self, tr, entries, freed: int) -> None:
        """Full-detail ``reclaim free`` event with the limbo-age histogram
        of the freed entries (docs/OBSERVABILITY.md).  Ages exist exactly
        when the entries carry retire timestamps: those retired while full
        tracing was on."""
        from ..obs import age_bucket

        ctx = self._rt._ctx
        now = ctx.now if ctx is not None else 0.0
        buckets: Dict[int, int] = {}
        ages = 0
        age_max = 0.0
        for entry in entries:
            if len(entry) > 2:
                age = now - entry[2]
                b = age_bucket(age)
                buckets[b] = buckets.get(b, 0) + 1
                ages += 1
                if age > age_max:
                    age_max = age
        fields: Dict[str, Any] = {"freed": freed, "count": len(entries)}
        if ages:
            fields["age_buckets"] = buckets
            fields["ages_count"] = ages
            fields["age_max"] = age_max
        tr.reclaim("free", self.scheme, now, **fields)

    def clear(self) -> int:
        """Free *everything* retired, unconditionally.

        Contract (same as ``EpochManager.clear``): the caller guarantees
        no other task is interacting with the reclaimer.
        """
        self._check_alive()
        self._note_pending()
        freed = self._drain_retired(self._registered_guards(), None)
        self._after_clear(freed)
        return freed

    def destroy(self) -> None:
        """Reclaim all remaining objects and retire the manager."""
        if self._destroyed:
            return
        self.clear()
        for guards in self._instances():
            for guard in guards:
                guard._registered = False
            guards.clear()
        self._destroyed = True

    # ------------------------------------------------------------------
    # shared free machinery
    # ------------------------------------------------------------------
    def _free_entries(self, entries: List[Tuple[GlobalAddress, int]]) -> int:
        """Free the given (address, tag) entries, bulk-grouped by locale.

        Mirrors the EpochManager's scatter-list economics: one bulk free
        per owning locale instead of one RPC per object — and, with the
        aggregation window open, one *uplink crossing* per window-sized
        batch of same-node target locales instead of one RPC crossing per
        locale (:mod:`repro.comm.aggregation`; the per-locale amortized
        free costs are unchanged).
        """
        if not entries:
            return 0
        by_locale: Dict[int, List[int]] = {}
        for entry in entries:
            addr = entry[0]
            by_locale.setdefault(addr.locale, []).append(addr.offset)
        ctx = self._rt._ctx
        if ctx is None:
            # No task context (pure-semantics tests): plain per-locale
            # bulk frees, uncharged by construction.
            freed = 0
            for lid in sorted(by_locale):
                freed += self._rt.free_bulk(lid, by_locale[lid])
        else:
            counters = BatchCounters()
            freed = self._rt.network.aggregator.free_grouped(
                self._rt, ctx, by_locale, counters
            )
            self._scan_batches += counters.batches
        self._freed += freed
        return freed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Cost-free count of retired-but-unfreed objects (tests/stats)."""
        pending = sum(len(g._retired) for g in self._all_guards())
        pending += len(self._orphans)
        return pending

    def _counts(self) -> Dict[str, int]:
        return {
            "reclaim_attempts": self._reclaim_attempts,
            "objects_reclaimed": self._freed,
            "reclaims": self._reclaims,
            "scan_batches": self._scan_batches,
            "uplink_crossings": self._scan_batches,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(freed={self._freed}, pending={self.pending_count()})"


_guard_id = attrgetter("guard_id")


def make_reclaimer(runtime: "Runtime", scheme: str = "ebr", **kwargs: Any):
    """Construct a reclaimer by scheme name (``"ebr"|"hp"|"qsbr"|"ibr"``).

    ``kwargs`` pass through to the scheme constructor (e.g. EBR's ablation
    knobs ``use_election``/``use_scatter``, HP's ``scan_threshold``).
    ``"ebr"`` builds the paper's
    :class:`~repro.core.epoch_manager.EpochManager` itself.
    """
    from ..core.epoch_manager import EpochManager
    from .hp import HazardPointerReclaimer
    from .ibr import IntervalReclaimer
    from .qsbr import QSBRReclaimer

    classes = {
        "ebr": EpochManager,
        "hp": HazardPointerReclaimer,
        "qsbr": QSBRReclaimer,
        "ibr": IntervalReclaimer,
    }
    try:
        cls = classes[scheme]
    except KeyError:
        raise ReclaimerError(
            f"unknown reclaimer scheme {scheme!r}; expected one of"
            f" {list(RECLAIMER_SCHEMES)}"
        ) from None
    return cls(runtime, **kwargs)


def default_reclaimer(runtime: "Runtime", **kwargs: Any):
    """The one shared default-reclaimer factory.

    Replaces the per-structure ``manager if manager is not None else
    EpochManager(runtime)`` copy-paste: structures (and anything else that
    wants "whatever this machine is configured for") call this and get the
    scheme selected by ``runtime.config.reclaimer`` (default: the paper's
    EBR).
    """
    return make_reclaimer(runtime, runtime.config.reclaimer, **kwargs)
