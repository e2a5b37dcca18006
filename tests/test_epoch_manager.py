"""Tests for the distributed EpochManager: tokens, epochs, reclamation."""

from __future__ import annotations


import pytest

from repro.core import EpochManager
from repro.errors import EpochManagerError, TokenStateError
from repro.runtime import Runtime
from conftest import is_live


@pytest.fixture
def rt():
    return Runtime(num_locales=4, network="ugni", tasks_per_locale=2)


class TestTokenLifecycle:
    def test_register_pin_unpin_unregister(self, rt):
        def main():
            em = EpochManager(rt)
            tok = em.register()
            assert tok.is_registered
            assert not tok.is_pinned
            tok.pin()
            assert tok.is_pinned
            tok.unpin()
            assert not tok.is_pinned
            tok.unregister()
            assert not tok.is_registered

        rt.run(main)

    def test_tokens_are_recycled_through_the_free_list(self, rt):
        def main():
            em = EpochManager(rt)
            tok1 = em.register()
            tid = tok1.token_id
            tok1.unregister()
            tok2 = em.register()
            assert tok2 is tok1  # recycled, not re-allocated
            assert tok2.token_id == tid
            assert tok2.is_registered

        rt.run(main)

    def test_unregister_is_idempotent(self, rt):
        def main():
            em = EpochManager(rt)
            tok = em.register()
            tok.unregister()
            tok.unregister()  # second call is a no-op
            # And the token is on the free list exactly once:
            t2 = em.register()
            t3 = em.register()
            assert t2 is tok
            assert t3 is not tok

        rt.run(main)

    def test_using_unregistered_token_raises(self, rt):
        def main():
            em = EpochManager(rt)
            tok = em.register()
            tok.unregister()
            with pytest.raises(TokenStateError):
                tok.pin()

        rt.run(main)

    def test_defer_requires_pin(self, rt):
        def main():
            em = EpochManager(rt)
            tok = em.register()
            addr = rt.new_obj("x")
            with pytest.raises(TokenStateError):
                tok.defer_delete(addr)
            tok.pin()
            tok.defer_delete(addr)  # fine now
            tok.unpin()

        rt.run(main)

    def test_token_is_locale_bound(self, rt):
        def main():
            em = EpochManager(rt)
            tok = em.register()  # registered on locale 0
            with rt.on(1):
                with pytest.raises(TokenStateError):
                    tok.pin()

        rt.run(main)

    def test_context_manager_unregisters(self, rt):
        def main():
            em = EpochManager(rt)
            with em.register() as tok:
                tok.pin()
                tok.unpin()
            assert not tok.is_registered

        rt.run(main)

    def test_unregister_unpins(self, rt):
        """An unregistered token must never block epoch advancement."""

        def main():
            em = EpochManager(rt)
            tok = em.register()
            tok.pin()
            tok.unregister()
            assert tok.local_epoch.peek() == 0
            # The manager can advance freely now.
            assert em.try_reclaim()

        rt.run(main)


class TestEpochAdvancement:
    def test_initial_epoch_is_one(self, rt):
        em = EpochManager(rt)
        assert em.current_epoch() == 1

    def test_epoch_cycles_1_2_3(self, rt):
        def main():
            em = EpochManager(rt)
            seen = [em.current_epoch()]
            for _ in range(6):
                assert em.try_reclaim()
                seen.append(em.current_epoch())
            assert seen == [1, 2, 3, 1, 2, 3, 1]

        rt.run(main)

    def test_pinned_token_in_current_epoch_allows_advance(self, rt):
        """A token pinned in the *current* epoch does not veto (Fig 1)."""

        def main():
            em = EpochManager(rt)
            tok = em.register()
            tok.pin()  # pinned at epoch 1 == current
            assert em.try_reclaim()
            tok.unpin()
            tok.unregister()

        rt.run(main)

    def test_stale_pinned_token_blocks_advance(self, rt):
        def main():
            em = EpochManager(rt)
            tok = em.register()
            tok.pin()  # epoch 1
            assert em.try_reclaim()  # -> epoch 2; tok still shows 1
            assert not em.try_reclaim()  # vetoed by the stale pin
            assert em.stats()["scans_unsafe"] == 1
            tok.unpin()
            assert em.try_reclaim()  # free to go again

        rt.run(main)

    def test_remote_locale_token_blocks_advance(self, rt):
        """The scan is global: a stale pin on any locale vetoes."""

        def main():
            em = EpochManager(rt)
            holder = {}

            def pin_on(lid):
                if lid == 3:
                    tok = em.register()
                    tok.pin()
                    holder["tok"] = tok

            rt.coforall_locales(pin_on)
            assert em.try_reclaim()  # token is in the current epoch: fine
            assert not em.try_reclaim()  # now it is stale: veto

        rt.run(main)

    def test_repin_refreshes_epoch(self, rt):
        def main():
            em = EpochManager(rt)
            tok = em.register()
            tok.pin()
            em.try_reclaim()
            tok.pin()  # re-pin picks up the new epoch
            assert tok.local_epoch.peek() == em.current_epoch()
            assert em.try_reclaim()

        rt.run(main)


class TestReclamation:
    def test_objects_wait_two_advances(self, rt):
        """An object deferred in epoch e is freed when advancing to e+2."""

        def main():
            em = EpochManager(rt)
            tok = em.register()
            addr = rt.new_obj("victim")
            tok.pin()
            tok.defer_delete(addr)
            tok.unpin()
            assert em.try_reclaim()  # advance 1: still live
            assert is_live(rt, addr)
            assert em.try_reclaim()  # advance 2: now reclaimed
            assert not is_live(rt, addr)

        rt.run(main)

    def test_clear_reclaims_everything_immediately(self, rt):
        def main():
            em = EpochManager(rt)
            tok = em.register()
            addrs = [rt.new_obj(i) for i in range(10)]
            tok.pin()
            for a in addrs:
                tok.defer_delete(a)
            tok.unpin()
            freed = em.clear()
            assert freed == 10
            assert all(not is_live(rt, a) for a in addrs)
            assert em.pending_count() == 0

        rt.run(main)

    def test_remote_objects_reclaimed_via_scatter(self, rt):
        def main():
            em = EpochManager(rt)
            tok = em.register()
            # Defer objects living on every locale.
            addrs = [rt.new_obj(i, locale=i % rt.num_locales) for i in range(16)]
            tok.pin()
            for a in addrs:
                tok.defer_delete(a)
            tok.unpin()
            rt.reset_measurements()
            em.clear()
            assert all(not is_live(rt, a) for a in addrs)
            # Scatter uses bulk transfers, not per-object RPCs.
            totals = rt.comm_totals()
            assert totals["bulk"] >= 1

        rt.run(main)

    def test_stats_accumulate(self, rt):
        def main():
            em = EpochManager(rt)
            tok = em.register()
            tok.pin()
            tok.defer_delete(rt.new_obj("x"))
            tok.unpin()
            em.try_reclaim()
            em.try_reclaim()
            s = em.stats()
            assert s["reclaim_attempts"] == 2
            assert s["advances"] == 2
            assert s["objects_reclaimed"] == 1

        rt.run(main)

    def test_token_try_reclaim_delegates(self, rt):
        def main():
            em = EpochManager(rt)
            tok = em.register()
            assert tok.try_reclaim()
            assert em.stats()["advances"] == 1

        rt.run(main)

    def test_deferred_count_diagnostic(self, rt):
        def main():
            em = EpochManager(rt)
            tok = em.register()
            tok.pin()
            for _ in range(5):
                tok.defer_delete(rt.new_obj("x"))
            tok.unpin()
            stats = em.stats()
            assert stats["retired"] == 5
            assert stats["pending"] == 5

        rt.run(main)


class TestElection:
    def test_local_flag_held_blocks_other_callers(self, rt):
        def main():
            em = EpochManager(rt)
            inst = em.get_privatized_instance(0)
            inst.is_setting_epoch.write(True)  # simulate a racing setter
            assert not em.try_reclaim()
            assert em.stats()["elections_lost_local"] == 1
            inst.is_setting_epoch.clear()

        rt.run(main)

    def test_global_flag_held_blocks_and_clears_local(self, rt):
        def main():
            em = EpochManager(rt)
            em.global_epoch.is_setting_epoch.write(True)
            assert not em.try_reclaim()
            assert em.stats()["elections_lost_global"] == 1
            # The local flag must have been cleared on the way out.
            inst = em.get_privatized_instance(0)
            assert not inst.is_setting_epoch.peek()
            em.global_epoch.is_setting_epoch.clear()

        rt.run(main)

    def test_flags_cleared_after_successful_reclaim(self, rt):
        def main():
            em = EpochManager(rt)
            assert em.try_reclaim()
            assert not em.global_epoch.is_setting_epoch.peek()
            assert not em.get_privatized_instance(0).is_setting_epoch.peek()

        rt.run(main)

    def test_no_election_mode_still_safe(self, rt):
        """Ablation mode: concurrent reclaimers must not double-free."""

        def main():
            em = EpochManager(rt, use_election=False)

            def body(i, tok):
                tok.pin()
                tok.defer_delete(rt.new_obj(i))
                tok.unpin()
                tok.try_reclaim()

            rt.forall(range(400), body, task_init=em.register)
            em.clear()
            return em.stats()["objects_reclaimed"]

        assert rt.run(main) == 400  # every object freed exactly once


class TestLifecycle:
    def test_destroy_then_use_raises(self, rt):
        def main():
            em = EpochManager(rt)
            em.destroy()
            with pytest.raises(EpochManagerError):
                em.register()
            with pytest.raises(EpochManagerError):
                em.try_reclaim()
            em.destroy()  # idempotent

        rt.run(main)

    def test_no_scatter_mode_frees_everything(self, rt):
        def main():
            em = EpochManager(rt, use_scatter=False)
            tok = em.register()
            addrs = [rt.new_obj(i, locale=i % rt.num_locales) for i in range(12)]
            tok.pin()
            for a in addrs:
                tok.defer_delete(a)
            tok.unpin()
            em.clear()
            assert all(not is_live(rt, a) for a in addrs)

        rt.run(main)


class TestConcurrentWorkload:
    def test_forall_listing5_pattern_leaves_no_garbage(self, rt):
        """The paper's Listing 5 shape: every object freed exactly once."""

        def main():
            em = EpochManager(rt)
            objs = [rt.new_obj(i, locale=i % rt.num_locales) for i in range(600)]

            class St:
                def __init__(self):
                    self.tok = em.register()
                    self.m = 0

                def close(self):
                    self.tok.unregister()

            def body(i, st):
                st.tok.pin()
                st.tok.defer_delete(objs[i])
                st.tok.unpin()
                st.m += 1
                if st.m % 64 == 0:
                    st.tok.try_reclaim()

            rt.forall(range(600), body, task_init=St)
            em.clear()
            assert all(not is_live(rt, a) for a in objs)
            assert em.stats()["objects_reclaimed"] == 600

        rt.run(main)

    def test_concurrent_try_reclaim_from_all_locales(self, rt):
        """Hammer try_reclaim from every locale at once: no corruption."""

        def main():
            em = EpochManager(rt)

            def body(i, tok):
                tok.pin()
                tok.defer_delete(rt.new_obj(i))
                tok.unpin()
                tok.try_reclaim()

            rt.forall(range(800), body, task_init=em.register)
            em.clear()
            return em.stats()["objects_reclaimed"]

        assert rt.run(main) == 800


class TestEpochCycleExtension:
    def test_cycle_must_be_at_least_three(self, rt):
        with pytest.raises(ValueError):
            EpochManager(rt, epoch_cycle=2)

    def test_four_epoch_cycle_semantics(self, rt):
        """epoch_cycle=4: epochs run 1..4 and objects wait THREE advances."""

        def main():
            em = EpochManager(rt, epoch_cycle=4)
            seen = [em.current_epoch()]
            tok = em.register()
            addr = rt.new_obj("victim")
            tok.pin()
            tok.defer_delete(addr)
            tok.unpin()
            assert em.try_reclaim()  # -> 2
            assert is_live(rt, addr)
            assert em.try_reclaim()  # -> 3: would free under cycle=3
            assert is_live(rt, addr)
            assert em.try_reclaim()  # -> 4: now quiesced one extra epoch
            assert not is_live(rt, addr)
            for _ in range(4):
                em.try_reclaim()
                seen.append(em.current_epoch())
            # Cycle wraps through 4 distinct epochs.
            assert max(seen) == 4 and min(seen) >= 1

        rt.run(main)

    def test_four_epoch_workload_leaves_no_garbage(self, rt):
        def main():
            em = EpochManager(rt, epoch_cycle=4)

            def body(i, tok):
                tok.pin()
                tok.defer_delete(rt.new_obj(i))
                tok.unpin()
                if i % 32 == 0:
                    tok.try_reclaim()

            rt.forall(range(400), body, task_init=em.register)
            em.clear()
            return em.stats()["objects_reclaimed"]

        assert rt.run(main) == 400
