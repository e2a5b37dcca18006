"""``EpochManager``: lock-free Epoch-Based Reclamation for distributed memory.

The paper's second contribution.  One privatized instance lives on every
locale; each instance owns

* a cached copy of the global epoch (``locale_epoch``),
* three limbo lists — one per possible epoch in the 3-epoch cycle
  {1, 2, 3} — fed by a shared node-recycling pool,
* the token free/allocated lists for tasks registering on that locale,
* a per-locale election flag (``is_setting_epoch``).

A single *global epoch* object (an atomic epoch number plus a global
election flag) lives on the creating locale and is the only piece of
distributed shared state; everything else is locale-private, which is what
keeps pin/unpin/defer at CPU-atomic cost (Figure 7's flat curve).

``try_reclaim`` follows the paper's Listing 4 step for step:

1. **Election** — ``testAndSet`` the local flag (losers leave instantly:
   someone on this locale is already trying), then the global flag (losers
   clear their local flag and leave).  First-come-first-served election
   keeps the global-epoch locale from being swamped by redundant requests.
2. **Scan** — a ``coforall`` over locales checks every allocated token:
   any token pinned in an epoch other than the current one vetoes.
3. **Advance** — write ``(e % 3) + 1`` to the global epoch, then on every
   locale: refresh the cached epoch, drain the *oldest* limbo list (the
   epoch two advances back — its objects were logically removed before all
   currently-possible pins began), and **scatter** the dead objects by
   owning locale.
4. **Bulk delete** — every locale gathers the scatter entries destined for
   it (one bulk transfer per source locale) and frees them as one batch,
   instead of one remote free per object.

``clear`` drains *all* lists unconditionally and requires the caller to
guarantee quiescence (its documented contract, as in the paper).

Non-blocking character: no step waits on another task — election losers
return immediately, the scan reads token slots without acquiring anything,
and a failed advance is simply reported as ``False``.  A task that dies
while pinned blocks advancement forever (the known EBR liveness caveat) but
never blocks other tasks' operations.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..atomics.integer import AtomicBool, AtomicUInt64
from ..errors import EpochManagerError
from ..memory.address import GlobalAddress
from .limbo_list import LimboList, NodePool
from .manager_core import ManagerCore
from .privatization import PrivatizedObject, replicate_coherent
from .token import Token, TokenAllocatedList, TokenFreeList

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["EpochManager", "EpochManagerStats", "EPOCH_CYCLE"]

#: Default epoch cycle: epochs run 1 -> 2 -> 3 -> 1 (0 = "not in any
#: epoch"), matching the paper's three limbo lists.  A manager can be
#: created with ``epoch_cycle=4`` to hold objects one extra advance —
#: closing the mid-advance stale-cache window (the global epoch has moved
#: but a locale's cached epoch is not yet refreshed, so a task pinning
#: there still enters the old epoch) at the cost of one more limbo list
#: and one epoch of extra memory residency.
EPOCH_CYCLE = 3


class EpochManagerStats:
    """Aggregate counters for one manager (tests and the ablation panels).

    One counter row: :meth:`inc` on the ``tryReclaim`` hot path is a
    plain list increment (a runtime is used by one thread, docs/ENGINE.md).
    """

    FIELDS = (
        "reclaim_attempts",
        "elections_lost_local",
        "elections_lost_global",
        "scans_unsafe",
        "advances",
        "objects_reclaimed",
        # Uplink-aware traversal diagnostics (docs/AGGREGATION.md):
        # aggregated messages issued and shared-uplink traversals paid by
        # the scan/drain/gather phases.  Zero under the legacy (flat /
        # aggregation-off) paths.
        "scan_batches",
        "uplink_crossings",
    )

    __slots__ = ("_row",)

    def __init__(self) -> None:
        self._row = [0] * len(self.FIELDS)

    def inc(self, field: str, n: int = 1) -> None:
        """Add ``n`` to one counter (hot path)."""
        self._row[_STAT_INDEX[field]] += n

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view."""
        return dict(zip(self.FIELDS, self._row))


_STAT_INDEX = {name: i for i, name in enumerate(EpochManagerStats.FIELDS)}


class _GlobalEpoch:
    """The single distributed object: epoch number + global election flag."""

    def __init__(self, runtime: "Runtime", home: int) -> None:
        self.home = home
        #: The authoritative epoch, a true network atomic (remote locales
        #: read and CAS it during reclamation).
        self.epoch = AtomicUInt64(runtime, home, 1, name=f"global_epoch@{home}")
        #: Global election flag (Listing 4's `global_epoch.is_setting_epoch`).
        self.is_setting_epoch = AtomicBool(
            runtime, home, False, name=f"global_setting@{home}"
        )


class _EpochManagerInstance:
    """The privatized per-locale instance (never touched remotely)."""

    def __init__(
        self,
        manager: "EpochManager",
        runtime: "Runtime",
        locale_id: int,
        cycle: int = EPOCH_CYCLE,
        home_locales: "Optional[Sequence[int]]" = None,
    ) -> None:
        self.manager = manager
        self.runtime = runtime
        self.locale_id = locale_id
        #: Locales served by this instance: just ``locale_id`` in the
        #: per-locale (legacy) layout, the whole CPU-coherence domain in
        #: the socket-shared mode (docs/AGGREGATION.md).  Tokens may be
        #: used from any of these.
        self.home_locales = (
            frozenset((locale_id,))
            if home_locales is None
            else frozenset(home_locales)
        )
        shared = len(self.home_locales) > 1
        #: Locale-private cache of the global epoch (opted out of network
        #: atomics: only local tasks and locally-running reclaim code read it).
        self.locale_epoch = AtomicUInt64(
            runtime, locale_id, 1, name=f"locale_epoch@{locale_id}", opt_out=True
        )
        #: Per-locale election flag.
        self.is_setting_epoch = AtomicBool(
            runtime, locale_id, False, name=f"local_setting@{locale_id}", opt_out=True
        )
        #: Shared recycling pool for the three limbo lists.  The socket-
        #: shared mode runs *without* recycling: producers on several
        #: locales feed one list, and a pool ``get`` would be a CAS loop
        #: over concurrently-mutated state — a charged, schedule-dependent
        #: retry count (see the LimboList docstring).
        self.pool = None if shared else NodePool(runtime, locale_id)
        #: One limbo list per epoch in the cycle (index = epoch - 1).
        self.limbo_lists: List[LimboList] = [
            LimboList(runtime, locale_id, self.pool, name=f"limbo{e}@{locale_id}")
            for e in range(1, cycle + 1)
        ]
        self.free_tokens = TokenFreeList(runtime, locale_id)
        self.allocated_tokens = TokenAllocatedList(runtime, locale_id)
        self._token_seq = 0

    def take_token(self) -> Token:
        """Pop a recycled token (lock-free) or create a fresh one and
        link it into the allocated list."""
        token = self.free_tokens.pop()
        if token is not None:
            token._registered = True
            return token
        tid = self._token_seq
        self._token_seq += 1
        token = Token(self, tid)
        self.allocated_tokens.push(token)
        return token

    def limbo_count(self) -> int:
        """Cost-free count of the objects in this instance's limbo lists.

        Plain peeks along the chains: exact at root decision points,
        since every retirement is linked before ``defer_delete`` returns.
        """
        n = 0
        for lst in self.limbo_lists:
            node = lst._head.peek()
            while node is not None:
                n += 1
                node = node.next
        return n


class EpochManager(ManagerCore, PrivatizedObject):
    """Distributed, privatized, lock-free epoch-based memory reclamation.

    The ``"ebr"`` reclaimer of :mod:`repro.reclaim`: its tokens are the
    guards, and it shares policy, tracing and ``stats()`` with the other
    schemes through :class:`~repro.core.manager_core.ManagerCore`.  The
    handle-level ``try_reclaim`` / ``clear`` / ``destroy`` sample peak
    pending garbage; a token's ``try_reclaim`` does not.

    Parameters
    ----------
    runtime:
        The simulated PGAS machine.
    use_election:
        Ablation hook: when False, ``try_reclaim`` skips the
        first-come-first-served flags and every caller proceeds to the
        global scan (the paper's design rationale in reverse).
    use_scatter:
        Ablation hook: when False, reclamation frees each dead object
        individually from the draining locale (remote objects then cost a
        round trip *each* instead of riding one bulk transfer).
    epoch_cycle:
        Number of epochs in the cycle (and limbo lists per locale).  The
        paper's design — and the default — is 3; ``4`` holds objects one
        extra advance, closing the mid-advance stale-locale-cache window
        (see :data:`EPOCH_CYCLE`) at the cost of extra memory residency.

    The global epoch object lives on the creating task's locale (locale 0
    outside a task).  The epoch-advance policy is the runtime's
    ``RuntimeConfig.policy`` (docs/POLICY.md).  The instance layout
    follows the machine (docs/AGGREGATION.md): when the aggregation
    window is open *and* the topology has multi-locale CPU-coherence
    domains, socket siblings share one privatized instance (via
    :func:`~repro.core.privatization.replicate_coherent`) — limbo lists
    and the locale-epoch cache — trading a little line contention for
    fewer instances to scan and drain; otherwise every locale keeps its
    own instance, the exact legacy layout.
    """

    scheme = "ebr"
    _destroyed_error = EpochManagerError

    def __init__(
        self,
        runtime: "Runtime",
        *,
        use_election: bool = True,
        use_scatter: bool = True,
        epoch_cycle: int = EPOCH_CYCLE,
    ) -> None:
        from .privatization import coherence_domains

        if epoch_cycle < 3:
            raise ValueError(
                "epoch_cycle must be >= 3 (two full advances of quiescence)"
            )
        ctx = runtime._ctx
        home = ctx.locale_id if ctx is not None else 0
        self.epoch_cycle = int(epoch_cycle)
        # Policy and tracer hooks first: token construction reads them.
        ManagerCore.__init__(self, runtime)
        self.global_epoch = _GlobalEpoch(runtime, home)
        self.use_election = bool(use_election)
        self.use_scatter = bool(use_scatter)
        self._counters = EpochManagerStats()
        domains = coherence_domains(runtime)
        #: True when instances are shared per coherence domain: the
        #: aggregation window is open and some domain holds more than one
        #: locale (a domain of one locale shares nothing).
        self.share_coherent = (
            runtime.network.aggregator.spec.enabled
            and len(set(domains)) < runtime.num_locales
        )
        if self.share_coherent:
            members: Dict[int, List[int]] = {}
            for lid, dom in enumerate(domains):
                members.setdefault(dom, []).append(lid)

            def make_instance(lid: int) -> _EpochManagerInstance:
                return _EpochManagerInstance(
                    self,
                    runtime,
                    lid,
                    cycle=self.epoch_cycle,
                    home_locales=members[domains[lid]],
                )

            instances = replicate_coherent(runtime, make_instance)
        else:
            instances = [
                _EpochManagerInstance(self, runtime, lid, cycle=self.epoch_cycle)
                for lid in range(runtime.num_locales)
            ]
        #: Unique instance home locales, ascending (the scan/drain units):
        #: one per locale, or one per coherence domain when shared.
        #: Iterating these keeps shared-mode accounting exact.
        self._instance_lids: "tuple" = tuple(
            sorted({inst.locale_id for inst in instances})
        )
        PrivatizedObject.__init__(self, runtime, instances)
        #: True when scans and drains run domain-ordered (see _build_plan).
        self._aggregated = (
            self.share_coherent or runtime.network.aggregator.active
        )
        self._plan = self._build_plan()
        #: The plan's representatives (the coforall locales, ascending) and
        #: each group's instance locales and locales, by representative.
        self._plan_reps = tuple(rep for rep, _i, _a in self._plan)
        self._plan_instances = {rep: inst for rep, inst, _a in self._plan}
        self._plan_members = {rep: all_lids for rep, _i, all_lids in self._plan}

    # ------------------------------------------------------------------
    # uplink-aware traversal plan
    # ------------------------------------------------------------------
    def _build_plan(self):
        """The traversal plan: ``(representative locale, instance locales,
        all locales)`` per scan/drain group, groups in ascending order.

        Domain-ordered (``_aggregated``) when the socket-shared layout is
        on or the aggregation window is open on a machine with shared
        uplinks: one group per *uplink group*, so the scan spawns one task
        per group (crossing each shared uplink once), which then walks its
        group's instances over the intra-node fabric.  Otherwise one
        single-locale group per locale: the exact legacy
        one-task-per-locale shape.

        Every topology's uplink groups are consecutive locale ranges
        (``locale // size``), so walking the plan visits the instances in
        ascending locale order; the drain → inbox → gather pipeline of
        :meth:`_drain_and_free` relies on it.
        """
        rt = self._rt
        if not self._aggregated:
            return tuple((lid, (lid,), (lid,)) for lid in range(rt.num_locales))
        topo = rt.network.topology
        groups: Dict[int, List[int]] = {}
        for lid in range(rt.num_locales):
            groups.setdefault(topo.uplink_group(lid), []).append(lid)
        inst_set = set(self._instance_lids)
        plan = []
        for g in sorted(groups):
            all_lids = tuple(sorted(groups[g]))
            inst_lids = tuple(lid for lid in all_lids if lid in inst_set)
            plan.append((all_lids[0], inst_lids, all_lids))
        return tuple(plan)

    def _note_traversal(self) -> None:
        """Count the uplink crossings of one domain-ordered coforall."""
        net = self._rt.network
        src = self._rt._own_context().locale_id
        classes = net.topology.classes
        crossed = sum(
            classes[net.distance_row(rep)[src]].shared_uplink
            for rep in self._plan_reps
        )
        if crossed:
            self._counters.inc("uplink_crossings", crossed)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self) -> Token:
        """Obtain a token on the calling task's locale.

        Pops the locale's free list (lock-free) or creates a fresh token.
        The token starts *unpinned*; it may be reused for many operations
        before :meth:`Token.unregister`.
        """
        self._check_alive()
        return self.get_privatized_instance().take_token()

    # ------------------------------------------------------------------
    # reclamation
    # ------------------------------------------------------------------
    def phase_boundary(self) -> None:
        """No-op: EBR needs no explicit quiescent-point announcements."""
        self._check_alive()

    def try_reclaim(self) -> bool:
        """Attempt to advance the epoch and reclaim the oldest limbo lists.

        Returns True iff the epoch advanced (and reclamation ran).  Safe to
        call from any task at any time; losers of the election (or an
        unsafe scan) return quickly without blocking anyone — the method's
        lock-freedom is what keeps the manager from weakening the
        guarantees of structures built on it.  This handle-level entry
        samples peak pending garbage first; :meth:`Token.try_reclaim
        <repro.core.token.Token.try_reclaim>` runs the unsampled body.
        """
        self._check_alive()
        self._note_pending()
        return self._try_reclaim()

    def _try_reclaim(self) -> bool:
        """The Listing 4 attempt itself (policy gate, election, scan)."""
        self._check_alive()
        inst: _EpochManagerInstance = self.get_privatized_instance()
        self._counters.inc("reclaim_attempts")

        # Epoch-advance policy gate (docs/POLICY.md): before the election,
        # so a deferral touches no flags and costs zero virtual time.
        if self._policy_defers():
            return False

        if self.use_election:
            # Listing 4 lines 2-6: local flag first, then the global flag.
            if inst.is_setting_epoch.test_and_set():
                self._counters.inc("elections_lost_local")
                return False
            if self.global_epoch.is_setting_epoch.test_and_set():
                inst.is_setting_epoch.clear()
                self._counters.inc("elections_lost_global")
                return False

        try:
            advanced = self._scan_and_advance()
        finally:
            if self.use_election:
                self.global_epoch.is_setting_epoch.clear()
                inst.is_setting_epoch.clear()
        # Window-policy tick: the election winner's reclaim is a
        # sequential root-driven point under the workload discipline, so
        # folding batch observations into the window here is
        # deterministic (a no-op for static windows).
        self._policy_tick()
        return advanced

    def _fact_folds(self):
        """Per-instance limbo counts; the last pin max-folds the tokens'
        records, kept only while a pin-tracking policy is installed."""
        want_pins = self._track_pins
        pending = []
        last_pin: Optional[float] = None
        for lid in self._instance_lids:
            inst: _EpochManagerInstance = self.get_privatized_instance(lid)
            pending.append(inst.limbo_count())
            if want_pins:
                for token in inst.allocated_tokens:
                    t = token._last_pin_vt
                    if t is not None and (last_pin is None or t > last_pin):
                        last_pin = t
        return tuple(pending), last_pin

    def _coforall_instances(self, fn) -> None:
        """Run ``fn(instance locale)`` over every scan/drain unit: one
        task per plan group (:meth:`_build_plan`), walking the group's
        instances in order."""
        instances = self._plan_instances

        def run_group(rep: int) -> None:
            for lid in instances[rep]:
                fn(lid)

        self._rt.coforall_locales(run_group, locales=self._plan_reps)
        if self._aggregated:
            self._note_traversal()

    def _scan_and_advance(self) -> bool:
        """The scan + advance + drain + bulk-delete pipeline (Listing 4)."""
        rt = self._rt
        this_epoch = self.global_epoch.epoch.read()

        # -- 2. global scan: is every token quiescent or current? --------
        votes: List[bool] = [True] * rt.num_locales

        def scan_locale(lid: int) -> None:
            inst_l: _EpochManagerInstance = self.get_privatized_instance(lid)
            for token in inst_l.allocated_tokens:
                e = token.local_epoch.read()
                if e != 0 and e != this_epoch:
                    votes[lid] = False
                    break

        self._coforall_instances(scan_locale)
        if not all(votes):
            self._counters.inc("scans_unsafe")
            return False

        # -- 3. advance the global epoch ---------------------------------
        # A CAS rather than a blind write: with the election enabled there
        # is exactly one setter and the CAS always succeeds (same cost as
        # a write); with the election disabled (ablation) concurrent
        # reclaimers may race here and exactly one wins — the losers back
        # off without draining, keeping reclamation single-owner.
        cycle = self.epoch_cycle
        new_epoch = (this_epoch % cycle) + 1
        if not self.global_epoch.epoch.compare_and_swap(this_epoch, new_epoch):
            self._counters.inc("scans_unsafe")
            return False

        # The list for the epoch *after* new — the oldest in the cycle,
        # cycle-1 advances back — is the one whose objects have provably
        # quiesced: index (new % cycle).
        reclaim_index = new_epoch % cycle

        reclaimed = self._drain_and_free([reclaim_index], new_epoch=new_epoch)
        self._counters.inc("advances")
        self._counters.inc("objects_reclaimed", reclaimed)
        tr = self._tracer
        if tr is not None:
            tr.reclaim(
                "advance",
                "ebr",
                rt._ctx.now,
                epoch=new_epoch,
                freed=reclaimed,
            )
        return True

    def _drain_and_free(
        self, indices: Sequence[int], *, new_epoch: Optional[int] = None
    ) -> int:
        """Drain the given limbo-list indices on every locale and free.

        Phase A (per instance, ascending): refresh the cached epoch, pop
        the chains, group dead addresses by owning locale (the scatter
        list) and file each target's share into that target's inbox.
        Phase B (per locale): gather the inbox — one bulk transfer per
        source locale — and free it as one batch.
        """
        rt = self._rt
        freed_total = [0] * rt.num_locales
        # Per-call inboxes, indexed by target locale: ``(source, offsets)``
        # in drain order.  Drains run in ascending source order (see
        # _build_plan), so each inbox is already in source order.  Built
        # per call rather than on the instances so that concurrent reclaims
        # (possible only in the no-election ablation) can never observe
        # each other's half-built scatter lists.
        inbox: List[List[tuple]] = [[] for _ in range(rt.num_locales)]

        def drain_locale(lid: int) -> None:
            inst_l: _EpochManagerInstance = self.get_privatized_instance(lid)
            if new_epoch is not None:
                inst_l.locale_epoch.write(new_epoch)
            scatter: Dict[int, List[int]] = defaultdict(list)
            lists = inst_l.limbo_lists
            for idx in indices:
                for locale, offset in lists[idx].drain():
                    scatter[locale].append(offset)
            tr = self._full
            if tr is not None:
                # Unit+slot drain record: the metrics registry matches it
                # against this unit's pending retire events to recover
                # exact limbo ages from the stream alone.  The unit is the
                # instance, named by its limbo lists (what a token keeps
                # of it, so both sides key the same object).  One task per
                # instance locale appends to its own per-locale buffer,
                # so emission order is deterministic.
                tr.reclaim(
                    "drain",
                    "ebr",
                    rt._ctx.now,
                    unit=tr.unit_id(lists),
                    slots=sorted(indices),
                    count=sum(len(v) for v in scatter.values()),
                )
            if self.use_scatter:
                for target, offsets in scatter.items():
                    inbox[target].append((lid, offsets))
            else:
                # Ablation: free each object directly; remote ones pay a
                # full round trip apiece.
                n = 0
                for target, offsets in scatter.items():
                    for off in offsets:
                        rt.free(GlobalAddress(target, off))
                        n += 1
                freed_total[lid] = n

        self._coforall_instances(drain_locale)

        if self.use_scatter:
            # One task per plan group gathers the inbox of every locale in
            # its group.  Aggregated, sources behind a shared uplink
            # coalesce — the address lists of one source node ride one
            # window-sized bulk batch instead of one transfer per source
            # locale; otherwise each source is one bulk transfer.
            from ..comm.aggregation import BatchCounters

            members = self._plan_members
            aggregator = rt.network.aggregator
            # A closed window batches nothing, and bulk_gather ignores the
            # counters then: none are built.
            aggregating = aggregator.active

            def gather_group(rep: int) -> None:
                ctx = rt._ctx
                counters = BatchCounters() if aggregating else None
                for lid in members[rep]:
                    box = inbox[lid]
                    if not box:
                        continue
                    aggregator.bulk_gather(
                        ctx, [(src, 8 * len(offs)) for src, offs in box], counters
                    )
                    mine: List[int] = []
                    for _src, offs in box:
                        mine.extend(offs)
                    # The free itself: the group's own locales are
                    # coherent or intra-node peers — no uplink.
                    freed_total[lid] = rt.free_bulk(lid, mine)
                if counters is not None and counters.batches:
                    # Each batch is one shared-uplink traversal.
                    self._counters.inc("scan_batches", counters.batches)
                    self._counters.inc("uplink_crossings", counters.batches)

            rt.coforall_locales(gather_group, locales=self._plan_reps)
            if self._aggregated:
                self._note_traversal()

        return sum(freed_total)

    def clear(self) -> int:
        """Reclaim *everything* across all epochs and locales.

        Contract (from the paper): call only when no other task is
        interacting with the manager — e.g. after a ``forall`` has joined.
        Returns the number of objects freed.
        """
        self._check_alive()
        self._note_pending()
        freed = self._drain_and_free(list(range(self.epoch_cycle)))
        self._counters.inc("objects_reclaimed", freed)
        self._after_clear(freed)
        return freed

    # ------------------------------------------------------------------
    # lifecycle & introspection
    # ------------------------------------------------------------------
    def destroy(self) -> None:
        """Reclaim all remaining objects and drop per-locale instances."""
        if self._destroyed:
            return
        self.clear()
        self._destroyed = True
        self._drop_instances()

    def current_epoch(self) -> int:
        """Cost-free read of the global epoch (tests only)."""
        return self.global_epoch.epoch.peek()

    def pending_count(self) -> int:
        """Cost-free count of objects currently in limbo."""
        return sum(
            self.get_privatized_instance(lid).limbo_count()
            for lid in self._instance_lids
        )

    def _counts(self) -> Dict[str, Any]:
        out: Dict[str, Any] = self._counters.as_dict()
        out["reclaims"] = out["advances"]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EpochManager(epoch={self.current_epoch()},"
            f" advances={self._counters.as_dict()['advances']})"
        )
