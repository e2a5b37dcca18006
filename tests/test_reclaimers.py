"""The pluggable reclamation subsystem: protocol conformance + semantics.

Three layers of coverage:

1. **Guard-protocol conformance**, parametrized over all four schemes:
   the lifecycle (register/pin/retire/unpin/reclaim/clear/destroy),
   unguarded-access detection (retire without a pin), double-retire
   surfacing as :class:`DoubleFreeError`, use-after-destroy raising
   :class:`ReclaimerError`, locale binding, context-manager cleanup, and
   orphan adoption on unregister.
2. **Scheme-specific semantics**: EBR-adapter bit-identity against the
   raw ``EpochManager``; hazard-pointer protection, bounded garbage and
   scan behaviour; QSBR quiescent-point gating; IBR's stalled-reader
   immunity (the property that distinguishes it from EBR).
3. **Factory plumbing**: ``make_reclaimer`` / ``default_reclaimer`` /
   ``RuntimeConfig.reclaimer`` / ``TopologySpec.reclaimer`` validation.
"""

from __future__ import annotations

import pytest

from repro.core import EpochManager
from repro.errors import (
    DoubleFreeError,
    ReclaimerError,
    TokenStateError,
)
from repro.reclaim import (
    RECLAIMER_SCHEMES,
    EBRReclaimer,
    HazardPointerReclaimer,
    IntervalReclaimer,
    QSBRReclaimer,
    default_reclaimer,
    make_reclaimer,
)
from repro.runtime import Runtime, RuntimeConfig

SCHEMES = list(RECLAIMER_SCHEMES)


@pytest.fixture
def rt():
    return Runtime(num_locales=4, network="ugni", tasks_per_locale=2)


def _reclaim_hard(rec):
    """Drive any scheme through enough quiescent rounds to drain it."""
    for _ in range(4):
        rec.phase_boundary()
        rec.try_reclaim()


def _block(guard, addr=None):
    """Make ``guard`` protect ``addr`` in the scheme-appropriate way.

    Region-based schemes (ebr/qsbr/ibr) block via the pin alone; hazard
    pointers need the address published in a slot.
    """
    guard.pin()
    if guard.needs_protect and addr is not None:
        guard.protect(addr)


# ---------------------------------------------------------------------------
# 1. guard-protocol conformance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
class TestGuardProtocolConformance:
    def test_full_lifecycle_frees_everything(self, rt, scheme):
        def main():
            rec = make_reclaimer(rt, scheme)
            guard = rec.register()
            addrs = []
            guard.pin()
            for i in range(20):
                a = rt.new_obj(i)
                addrs.append(a)
                guard.defer_delete(a)
            guard.unpin()
            assert rec.pending_count() <= 20  # hp may have auto-scanned
            _reclaim_hard(rec)
            assert all(not rt.is_live(a) for a in addrs)
            assert rec.pending_count() == 0
            stats = rec.stats()
            assert stats["retired"] == 20
            assert stats["freed"] == 20
            guard.unregister()
            rec.destroy()

        rt.run(main)

    def test_defer_without_pin_is_detected(self, rt, scheme):
        def main():
            rec = make_reclaimer(rt, scheme)
            guard = rec.register()
            addr = rt.new_obj("x")
            with pytest.raises(TokenStateError):
                guard.defer_delete(addr)
            guard.pin()
            guard.defer_delete(addr)  # pinned: fine
            guard.unpin()
            rec.destroy()

        rt.run(main)

    def test_double_retire_surfaces_as_double_free(self, rt, scheme):
        def main():
            rec = make_reclaimer(rt, scheme)
            guard = rec.register()
            addr = rt.new_obj("victim")
            guard.pin()
            guard.defer_delete(addr)
            guard.defer_delete(addr)  # the protocol violation
            guard.unpin()
            with pytest.raises(DoubleFreeError):
                _reclaim_hard(rec)
                rec.clear()

        rt.run(main)

    def test_use_after_destroy_raises(self, rt, scheme):
        def main():
            rec = make_reclaimer(rt, scheme)
            rec.destroy()
            rec.destroy()  # idempotent
            with pytest.raises(ReclaimerError):
                rec.register()
            with pytest.raises(ReclaimerError):
                rec.try_reclaim()
            with pytest.raises(ReclaimerError):
                rec.clear()

        rt.run(main)

    def test_guard_unusable_after_unregister(self, rt, scheme):
        def main():
            rec = make_reclaimer(rt, scheme)
            guard = rec.register()
            guard.unregister()
            guard.unregister()  # idempotent
            with pytest.raises(TokenStateError):
                guard.pin()
            rec.destroy()

        rt.run(main)

    def test_context_manager_unregisters(self, rt, scheme):
        def main():
            rec = make_reclaimer(rt, scheme)
            with rec.register() as guard:
                guard.pin()
                guard.unpin()
            assert not guard.is_registered
            rec.destroy()

        rt.run(main)

    def test_unregister_adopts_pending_retirements(self, rt, scheme):
        """A dying guard's garbage is never leaked: clear() frees it."""

        def main():
            rec = make_reclaimer(rt, scheme)
            guard = rec.register()
            addrs = []
            guard.pin()
            for i in range(5):
                a = rt.new_obj(i)
                addrs.append(a)
                guard.defer_delete(a)
            guard.unpin()
            guard.unregister()
            assert rec.clear() == 5
            assert all(not rt.is_live(a) for a in addrs)
            rec.destroy()

        rt.run(main)

    def test_locale_binding(self, rt, scheme):
        """Guards are locale-bound, exactly like EBR tokens."""

        def main():
            rec = make_reclaimer(rt, scheme)
            guard = rec.register()  # registered on locale 0
            with rt.on(1):
                with pytest.raises(TokenStateError):
                    guard.pin()
            guard.pin()
            guard.unpin()
            rec.destroy()

        rt.run(main)

    def test_protect_returns_address(self, rt, scheme):
        """protect() chains for every scheme (no-op where not needed)."""

        def main():
            rec = make_reclaimer(rt, scheme)
            guard = rec.register()
            addr = rt.new_obj("p")
            guard.pin()
            assert guard.protect(addr) == addr
            guard.unpin()
            rt.free(addr)
            rec.destroy()

        rt.run(main)

    def test_blocked_while_protected_then_freed(self, rt, scheme):
        """The core safety property, scheme-appropriately provoked.

        A guard that still protects an object (pin for the region-based
        schemes, pin+hazard for HP) keeps it live through any number of
        reclaim attempts; dropping the protection lets it drain.
        """

        def main():
            rec = make_reclaimer(rt, scheme)
            blocker = rec.register()
            worker = rec.register()
            addr = rt.new_obj("victim")
            _block(blocker, addr)
            worker.pin()
            worker.defer_delete(addr)
            worker.unpin()
            for _ in range(4):
                rec.try_reclaim()
            assert rt.is_live(addr)
            blocker.unpin()
            _reclaim_hard(rec)
            assert not rt.is_live(addr)
            rec.destroy()

        rt.run(main)


# ---------------------------------------------------------------------------
# 2a. EBR adapter: bit-identical to the raw EpochManager
# ---------------------------------------------------------------------------


class TestEBRAdapterEquivalence:
    def _drive(self, rt, mgr):
        """A deterministic pin/defer/unpin workload with root reclaims.

        Follows the workload discipline (phase-exclusive, root-driven
        tryReclaim) so two runs of the *same* manager are bit-identical —
        which is what makes the raw-vs-adapted comparison meaningful.
        """

        def main():
            def body(i, tok):
                tok.pin()
                tok.defer_delete(rt.new_obj(i))
                tok.unpin()

            rt.reset_measurements()
            with rt.timed() as t:
                for phase in range(4):
                    rt.forall(range(phase * 128, (phase + 1) * 128), body,
                              task_init=mgr.register, tasks_per_locale=1)
                    mgr.try_reclaim()
                mgr.clear()
            return t.elapsed, rt.comm_totals()

        return rt.run(main)

    def test_virtual_results_identical_to_raw_manager(self):
        rt1 = Runtime(num_locales=4, network="ugni", tasks_per_locale=1)
        raw = self._drive(rt1, EpochManager(rt1))
        rt1.close()
        rt2 = Runtime(num_locales=4, network="ugni", tasks_per_locale=1)
        adapted = self._drive(rt2, EBRReclaimer(rt2))
        rt2.close()
        assert raw == adapted  # elapsed AND comm totals, bit-identical

    def test_adapter_reuses_existing_manager_without_owning_it(self, rt):
        def main():
            em = EpochManager(rt)
            rec = EBRReclaimer(rt, manager=em)
            tok = rec.register()
            holder = em.register()  # another user of the shared manager
            holder.pin()
            addr = rt.new_obj("x")
            tok.pin()
            tok.defer_delete(addr)
            tok.unpin()
            rec.destroy()  # must NOT touch the shared em's limbo lists
            assert rt.is_live(addr)  # the holder's pin still guards it
            em.register()  # the shared manager is still fully usable
            holder.unpin()
            em.destroy()
            assert not rt.is_live(addr)

        rt.run(main)

    def test_stats_carry_epoch_manager_counters(self, rt):
        def main():
            rec = EBRReclaimer(rt)
            tok = rec.register()
            tok.pin()
            tok.defer_delete(rt.new_obj("x"))
            tok.unpin()
            rec.try_reclaim()
            stats = rec.stats()
            assert stats["scheme"] == "ebr"
            assert "advances" in stats and "reclaim_attempts" in stats
            assert stats["retired"] == 1
            rec.destroy()

        rt.run(main)


# ---------------------------------------------------------------------------
# 2b. hazard pointers
# ---------------------------------------------------------------------------


class TestHazardPointers:
    def test_hazard_slot_blocks_exactly_its_address(self, rt):
        def main():
            rec = HazardPointerReclaimer(rt, scan_threshold=1)
            reader = rec.register()
            worker = rec.register()
            protected = rt.new_obj("protected")
            bystander = rt.new_obj("bystander")
            reader.pin()
            reader.protect(protected)
            worker.pin()
            worker.defer_delete(protected)
            worker.defer_delete(bystander)
            worker.unpin()
            rec.try_reclaim()
            # Only the hazarded address survives: per-address protection,
            # not whole-region (the HP/EBR distinction).
            assert rt.is_live(protected)
            assert not rt.is_live(bystander)
            reader.unpin()  # clears the slot
            rec.try_reclaim()
            assert not rt.is_live(protected)
            rec.destroy()

        rt.run(main)

    def test_bounded_garbage(self, rt):
        """Unreclaimed garbage never exceeds threshold + live hazards."""

        def main():
            rec = HazardPointerReclaimer(rt, scan_threshold=16)
            guard = rec.register()
            guard.pin()
            peak = 0
            for i in range(400):
                guard.defer_delete(rt.new_obj(i))
                peak = max(peak, rec.pending_count())
            guard.unpin()
            assert peak <= 16 + rec.slots_per_guard
            rec.clear()
            rec.destroy()

        rt.run(main)

    def test_protect_requires_pin(self, rt):
        def main():
            rec = HazardPointerReclaimer(rt)
            guard = rec.register()
            addr = rt.new_obj("x")
            with pytest.raises(TokenStateError):
                guard.protect(addr)
            guard.pin()
            guard.protect(addr)
            guard.unpin()
            rt.free(addr)
            rec.destroy()

        rt.run(main)

    def test_stack_pop_protect_validate_survives_concurrent_churn(self, rt):
        """The refactored stack + HP under real concurrency: no UAF."""
        from repro.structures import LockFreeStack

        def main():
            rec = HazardPointerReclaimer(rt, scan_threshold=8)
            st = LockFreeStack(rt, aba_protection=True)

            def body(i, guard):
                guard.pin()
                if i % 2 == 0:
                    st.push(i)
                else:
                    st.try_pop(guard)
                guard.unpin()

            rt.forall(range(600), body, task_init=rec.register,
                      tasks_per_locale=4)
            st.drain()
            rec.clear()
            rec.destroy()

        rt.run(main)  # any use-after-free raises out of here

    def test_list_helping_preserves_predecessor_hazard(self, rt):
        """Unlinking a marked node must not clobber the prev hazard.

        Regression: the hand-over-hand parity used to flip on *every*
        protect, so the successor that replaces a helped-out marked node
        landed in the slot still guarding the predecessor — a concurrent
        scan could then free the predecessor mid-traversal.  The marked
        node's replacement must reuse the marked node's own slot.
        """
        from repro.memory.compression import compress
        from repro.structures import LockFreeOrderedList
        from repro.structures.harris_list import _pack, _unpack

        def main():
            rec = HazardPointerReclaimer(rt)
            lst = LockFreeOrderedList(rt)
            guard = rec.register()
            guard.pin()
            lst.insert(1, guard=guard)
            lst.insert(2, guard=guard)
            lst.insert(3, guard=guard)
            # Stage a logically-deleted-but-not-unlinked node 2, as if a
            # remover stalled between its two phases.
            addr1, _ = _unpack(lst._head_node.next.peek())
            node1 = rt.deref(addr1)
            addr2, _ = _unpack(node1.next.peek())
            node2 = rt.deref(addr2)
            addr3, _ = _unpack(node2.next.peek())
            assert node2.next.compare_and_swap(
                _pack(addr3, False), _pack(addr3, True)
            )
            # A traversal past node 2 helps unlink it.  Afterwards the
            # final window is (prev=node1, cur=node3): BOTH must still be
            # hazard-protected, in different slots.
            assert lst.insert(4, guard=guard)
            hazards = {cell.peek() for cell in guard.slots}
            assert compress(addr1) in hazards  # the predecessor survived
            assert compress(addr3) in hazards
            guard.unpin()
            rec.clear()
            rec.destroy()

        rt.run(main)

    def test_rcu_array_shrink_protects_dropped_blocks(self, rt):
        """A reader's block hazard keeps a shrink-dropped block live."""
        from repro.structures import RCUArray

        def main():
            rec = HazardPointerReclaimer(rt, scan_threshold=1)
            arr = RCUArray(rt, 8, block_size=2)
            reader = rec.register()
            writer = rec.register()
            reader.pin()
            arr.write(7, "tail", guard=reader)
            # Reader resolves index 7 and (post-handshake) holds hazards
            # on the descriptor and its block; a concurrent shrink drops
            # that block and its threshold-1 scan runs immediately.
            assert arr.read(7, guard=reader) == "tail"
            writer.pin()
            arr.resize(2, guard=writer)
            writer.unpin()
            # The dropped block was retired but must still be pending:
            # the reader's slot-1 hazard names it.
            assert rec.pending_count() >= 1
            reader.unpin()
            rec.clear()
            arr.destroy()
            rec.destroy()

        rt.run(main)

    def test_scan_counter_and_stats(self, rt):
        def main():
            rec = HazardPointerReclaimer(rt, scan_threshold=4)
            guard = rec.register()
            guard.pin()
            for i in range(16):
                guard.defer_delete(rt.new_obj(i))
            guard.unpin()
            stats = rec.stats()
            assert stats["scheme"] == "hp"
            assert stats["scans"] >= 4
            assert stats["scan_threshold"] == 4
            rec.clear()
            rec.destroy()

        rt.run(main)

    def test_constructor_validation(self, rt):
        with pytest.raises(ValueError):
            HazardPointerReclaimer(rt, slots_per_guard=0)
        with pytest.raises(ValueError):
            HazardPointerReclaimer(rt, scan_threshold=0)


# ---------------------------------------------------------------------------
# 2c. QSBR
# ---------------------------------------------------------------------------


class TestQSBR:
    def test_nothing_frees_until_all_guards_quiesce(self, rt):
        def main():
            rec = QSBRReclaimer(rt)
            a = rec.register()
            b = rec.register()
            a.pin()
            addr = rt.new_obj("x")
            a.defer_delete(addr)
            a.unpin()
            a.quiesce()
            # b has not quiesced since the retirement: blocked.
            rec.try_reclaim()
            assert rt.is_live(addr)
            b.quiesce()
            a.quiesce()
            rec.try_reclaim()
            rec.try_reclaim()
            assert not rt.is_live(addr)
            rec.destroy()

        rt.run(main)

    def test_quiesce_while_pinned_is_rejected(self, rt):
        def main():
            rec = QSBRReclaimer(rt)
            guard = rec.register()
            guard.pin()
            with pytest.raises(TokenStateError):
                guard.quiesce()
            guard.unpin()
            guard.quiesce()
            rec.destroy()

        rt.run(main)

    def test_phase_boundary_skips_pinned_guards(self, rt):
        def main():
            rec = QSBRReclaimer(rt)
            stuck = rec.register()
            fine = rec.register()
            stuck.pin()
            addr = rt.new_obj("x")
            stuck.defer_delete(addr)
            rec.phase_boundary()  # marks `fine` quiescent, skips `stuck`
            rec.try_reclaim()
            assert rt.is_live(addr)  # the pinned guard blocks its garbage
            stuck.unpin()
            _reclaim_hard(rec)
            assert not rt.is_live(addr)
            rec.destroy()

        rt.run(main)


# ---------------------------------------------------------------------------
# 2d. IBR
# ---------------------------------------------------------------------------


class TestIntervalReclamation:
    def test_stalled_reader_does_not_block_older_garbage(self, rt):
        """The IBR selling point: eras advance past a stuck pin.

        Under EBR the same stuck pin freezes the epoch and blocks *all*
        reclamation; under IBR only garbage retired at-or-after the
        reader's birth era is held back.
        """

        def main():
            rec = IntervalReclaimer(rt)
            worker = rec.register()
            staller = rec.register()
            # Era 1: retire `old` (tag 1) while the worker stays pinned,
            # so the first advance cannot free it yet.
            worker.pin()
            old = rt.new_obj("old")
            worker.defer_delete(old)
            assert rec.try_reclaim()  # era 1 -> 2; old held (worker born 1)
            assert rt.is_live(old)
            # The staller pins at era 2 and never moves again.
            staller.pin()
            worker.unpin()
            # Era 2: new garbage arrives after the staller's birth.
            worker.pin()
            new = rt.new_obj("new")
            worker.defer_delete(new)
            worker.unpin()
            assert rec.try_reclaim()  # era 2 -> 3, despite the stall
            assert not rt.is_live(old)  # pre-birth garbage drained
            assert rt.is_live(new)  # post-birth garbage held
            for _ in range(3):
                rec.try_reclaim()
            assert rt.is_live(new)  # held indefinitely while pinned
            staller.unpin()
            rec.try_reclaim()
            assert not rt.is_live(new)
            rec.destroy()

        rt.run(main)

    def test_ebr_contrast_stuck_pin_blocks_everything(self, rt):
        """Companion to the above: EBR cannot advance past the stall."""

        def main():
            em = EpochManager(rt)
            stuck = em.register()
            worker = em.register()
            stuck.pin()
            em.try_reclaim()  # one advance is allowed (stuck is current)
            worker.pin()
            addr = rt.new_obj("x")
            worker.defer_delete(addr)
            worker.unpin()
            for _ in range(5):
                em.try_reclaim()
            assert rt.is_live(addr)  # EBR: frozen behind the stale pin
            stuck.unpin()
            em.destroy()

        rt.run(main)

    def test_era_advances_monotonically(self, rt):
        def main():
            rec = IntervalReclaimer(rt)
            before = rec.current_era()
            rec.try_reclaim()
            rec.try_reclaim()
            assert rec.current_era() == before + 2
            rec.destroy()

        rt.run(main)


# ---------------------------------------------------------------------------
# 3. factory / config plumbing
# ---------------------------------------------------------------------------


class TestFactoryPlumbing:
    def test_make_reclaimer_rejects_unknown_scheme(self, rt):
        with pytest.raises(ReclaimerError):
            make_reclaimer(rt, "nope")

    def test_default_reclaimer_follows_runtime_config(self):
        for scheme, cls in (
            ("ebr", EBRReclaimer),
            ("hp", HazardPointerReclaimer),
            ("qsbr", QSBRReclaimer),
            ("ibr", IntervalReclaimer),
        ):
            rt = Runtime(config=RuntimeConfig(num_locales=2, reclaimer=scheme))
            assert isinstance(default_reclaimer(rt), cls)
            rt.close()

    def test_runtime_config_validates_scheme(self):
        with pytest.raises(ValueError):
            RuntimeConfig(num_locales=2, reclaimer="bogus")

    def test_topology_spec_validates_scheme(self):
        from repro.bench.scenarios import ScenarioError, TopologySpec

        with pytest.raises(ScenarioError):
            TopologySpec(locales=2, reclaimer="bogus")
        assert TopologySpec(locales=2, reclaimer="hp").as_dict()["reclaimer"] == "hp"

    def test_hash_table_default_uses_configured_scheme(self):
        from repro.structures import InterlockedHashTable

        rt = Runtime(config=RuntimeConfig(num_locales=2, reclaimer="hp"))

        def main():
            table = InterlockedHashTable(rt, buckets=8)
            assert isinstance(table.reclaimer, HazardPointerReclaimer)
            guard = table.reclaimer.register()
            guard.pin()
            table.put("k", 1, guard)
            assert table.get("k", guard=guard) == 1
            guard.unpin()
            table.destroy()

        rt.run(main)
        rt.close()

    def test_hash_table_rejects_both_manager_and_reclaimer(self, rt):
        from repro.structures import InterlockedHashTable

        def main():
            em = EpochManager(rt)
            rec = EBRReclaimer(rt, manager=em)
            with pytest.raises(TypeError):
                InterlockedHashTable(rt, manager=em, reclaimer=rec)

        rt.run(main)
