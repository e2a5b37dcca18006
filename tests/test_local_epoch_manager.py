"""Tests for the shared-memory LocalEpochManager variant."""

from __future__ import annotations

import pytest

from repro.core import LocalEpochManager
from repro.errors import EpochManagerError, TokenStateError
from repro.runtime import Runtime


@pytest.fixture
def rt():
    return Runtime(num_locales=2, network="ugni", tasks_per_locale=4)


class TestBasics:
    def test_register_on_manager_locale(self, rt):
        def main():
            lem = LocalEpochManager(rt)
            tok = lem.register()
            tok.pin()
            tok.unpin()
            tok.unregister()

        rt.run(main)

    def test_register_from_other_locale_raises(self, rt):
        def main():
            lem = LocalEpochManager(rt, locale=0)
            with rt.on(1):
                with pytest.raises(TokenStateError):
                    lem.register()

        rt.run(main)

    def test_epoch_cycles(self, rt):
        def main():
            lem = LocalEpochManager(rt)
            assert lem.current_epoch() == 1
            for expect in (2, 3, 1, 2):
                assert lem.try_reclaim()
                assert lem.current_epoch() == expect

        rt.run(main)

    def test_two_advance_reclamation_rule(self, rt):
        def main():
            lem = LocalEpochManager(rt)
            tok = lem.register()
            addr = rt.new_obj("x")
            tok.pin()
            tok.defer_delete(addr)
            tok.unpin()
            assert lem.try_reclaim()
            assert rt.is_live(addr)
            assert lem.try_reclaim()
            assert not rt.is_live(addr)

        rt.run(main)

    def test_stale_pin_blocks(self, rt):
        def main():
            lem = LocalEpochManager(rt)
            tok = lem.register()
            tok.pin()
            assert lem.try_reclaim()
            assert not lem.try_reclaim()  # stale pin vetoes
            tok.unpin()
            assert lem.try_reclaim()

        rt.run(main)

    def test_remote_objects_rejected(self, rt):
        def main():
            lem = LocalEpochManager(rt, locale=0)
            tok = lem.register()
            remote = rt.new_obj("x", locale=1)
            tok.pin()
            tok.defer_delete(remote)
            tok.unpin()
            with pytest.raises(TokenStateError):
                lem.clear()

        rt.run(main)

    def test_clear_and_destroy(self, rt):
        def main():
            lem = LocalEpochManager(rt)
            tok = lem.register()
            addrs = [rt.new_obj(i) for i in range(5)]
            tok.pin()
            for a in addrs:
                tok.defer_delete(a)
            tok.unpin()
            assert lem.clear() == 5
            lem.destroy()
            with pytest.raises(EpochManagerError):
                lem.register()

        rt.run(main)


class TestNoDistributedTraffic:
    def test_try_reclaim_never_leaves_the_locale(self, rt):
        """The whole point of the variant: zero remote operations."""

        def main():
            lem = LocalEpochManager(rt)
            tok = lem.register()
            tok.pin()
            tok.defer_delete(rt.new_obj("x"))
            tok.unpin()
            rt.reset_measurements()
            lem.try_reclaim()
            lem.try_reclaim()
            lem.clear()
            return rt.network.diags.remote_ops()

        assert rt.run(main) == 0

    def test_cheaper_than_distributed_manager_on_one_locale(self, rt):
        """Single-locale reclamation: the local variant wins (ablation)."""
        from repro.core import EpochManager

        def cost(make_mgr):
            def main():
                mgr = make_mgr()
                tok = mgr.register()
                with rt.timed() as t:
                    for i in range(64):
                        tok.pin()
                        tok.defer_delete(rt.new_obj(i))
                        tok.unpin()
                        tok.try_reclaim()
                    mgr.clear()
                return t.elapsed

            return rt.run(main)

        local = cost(lambda: LocalEpochManager(rt))
        dist = cost(lambda: EpochManager(rt))
        assert local < dist

    def test_concurrent_tasks_one_locale(self, rt):
        def main():
            lem = LocalEpochManager(rt, locale=0)

            def body(i, tok):
                tok.pin()
                tok.defer_delete(rt.new_obj(i))
                tok.unpin()
                if i % 16 == 0:
                    tok.try_reclaim()

            # All items forced onto locale 0 (the manager's home).
            rt.forall(
                range(300),
                body,
                task_init=lem.register,
                owner_of=lambda item, idx: 0,
            )
            lem.clear()
            return lem.stats()["objects_reclaimed"]

        assert rt.run(main) == 300
