"""Property-based tests for the protocol layers (hypothesis).

Where ``test_properties.py`` covers the data plane, these cover behaviours
with internal state machines: the virtual-time service point's capacity
invariants, the RCUArray against a plain-list model, and — the important
one — the epoch protocol itself: under *any* sequence of pin/unpin/defer/
advance steps, no object is freed while a token that might still reach it
is pinned, and every object is freed at most once.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import EpochManager
from repro.runtime import Runtime
from repro.runtime.clock import ServicePoint
from conftest import is_live


class TestServicePointProperties:
    @given(
        reqs=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0.001, max_value=5, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_capacity_conservation(self, reqs):
        """Total work never exceeds the span the server had available.

        Invariant maintained by the idle-bank design: the server performs
        at most one second of service per virtual second —
        ``busy_time <= next_free - idle_bank`` — and no request ever
        completes before its own ``arrival + service``.  (The inequality
        is not tight: when a queued request's tail slot would finish
        before its physical minimum, the gap is *discarded*, never
        re-used — conservative by construction.)
        """
        p = ServicePoint("prop")
        for arrival, service in reqs:
            finish = p.serve_locked(arrival, service)
            assert finish >= arrival + service - 1e-12  # never early
        assert p.busy_time <= (p.next_free - p.idle_bank) + 1e-9

    @given(
        reqs=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10, allow_nan=False),
                st.floats(min_value=0.001, max_value=2, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_monotone_counters(self, reqs):
        p = ServicePoint("prop")
        last_busy = 0.0
        for arrival, service in reqs:
            p.serve_locked(arrival, service)
            assert p.busy_time > last_busy
            last_busy = p.busy_time
        assert p.served == len(reqs)


class TestRCUArrayModel:
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("write"), st.integers(0, 127), st.integers()),
                st.tuples(st.just("read"), st.integers(0, 127), st.none()),
                st.tuples(st.just("resize"), st.integers(0, 40), st.none()),
                st.tuples(st.just("append"), st.none(), st.integers()),
            ),
            max_size=40,
        )
    )
    @settings(deadline=None, max_examples=40)
    def test_matches_list_model(self, ops):
        from repro.structures import RCUArray

        rt = Runtime(num_locales=2, network="none")

        def main():
            arr = RCUArray(rt, 8, block_size=4, fill=0)
            model = [0] * 8
            for op, a, b in ops:
                if op == "write":
                    if a < len(model):
                        arr.write(a, b)
                        model[a] = b
                elif op == "read":
                    if a < len(model):
                        got = arr.read(a)
                        # None in the model = unspecified (slot appeared via
                        # a grow; it reads as fill or stale block content).
                        if model[a] is not None:
                            assert got == model[a]
                elif op == "resize":
                    arr.resize(a)
                    if a <= len(model):
                        model = model[:a]
                    else:
                        # grown slots read as stale block contents or fill;
                        # the model only tracks what the API guarantees:
                        # indices < old length keep their values.
                        model = model + [None] * (a - len(model))
                else:  # append
                    idx = arr.append(b)
                    assert idx == len(model)
                    model.append(b)
            assert len(arr) == len(model)
            snap = arr.snapshot()
            for i, want in enumerate(model):
                if want is not None:
                    assert snap[i] == want

        rt.run(main)


class TestEpochProtocolProperty:
    @given(
        steps=st.lists(
            st.sampled_from(["pin0", "pin1", "unpin0", "unpin1", "defer0",
                             "defer1", "advance"]),
            max_size=50,
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_no_premature_free_under_any_schedule(self, steps):
        """The EBR safety invariant as a random-walk state machine.

        Two tokens take arbitrary pin/unpin/defer steps interleaved with
        reclaim attempts.  After every step we check:

        * an object deferred by a *currently pinned* token while pinned in
          epoch e is never freed while that token has stayed pinned since
          (it could still hold a reference);
        * no object is ever freed twice (the heap would raise);
        * unpinned tokens never block advancement forever (liveness-ish:
          after both unpin, two advances always succeed).
        """
        rt = Runtime(num_locales=1, network="none")

        def main():
            em = EpochManager(rt)
            toks = [em.register(), em.register()]
            pinned_since_defer = {0: [], 1: []}  # live "held" objects

            for step in steps:
                if step.startswith("pin"):
                    i = int(step[-1])
                    toks[i].pin()
                    # A (re-)pin is a quiescence point: the task finished
                    # its previous operation and dropped its references.
                    pinned_since_defer[i] = []
                elif step.startswith("unpin"):
                    i = int(step[-1])
                    toks[i].unpin()
                    pinned_since_defer[i] = []  # released its references
                elif step.startswith("defer"):
                    i = int(step[-1])
                    if toks[i].is_pinned:
                        addr = rt.new_obj(object())
                        toks[i].defer_delete(addr)
                        # The *other* token, if pinned, may hold this too.
                        other = 1 - i
                        if toks[other].is_pinned:
                            pinned_since_defer[other].append(addr)
                else:  # advance
                    em.try_reclaim()
                # Safety: anything a continuously-pinned token could still
                # reference must be live.
                for i in (0, 1):
                    if toks[i].is_pinned:
                        for addr in pinned_since_defer[i]:
                            assert is_live(rt, addr), (
                                f"object freed while token {i} stayed pinned"
                            )
            # Liveness-ish tail: quiesce and confirm progress resumes.
            toks[0].unpin()
            toks[1].unpin()
            assert em.try_reclaim()
            assert em.try_reclaim()
            em.clear()

        rt.run(main)

    @given(n=st.integers(min_value=1, max_value=40))
    @settings(deadline=None, max_examples=20)
    def test_every_deferred_object_freed_exactly_once(self, n):
        rt = Runtime(num_locales=1, network="none")

        def main():
            em = EpochManager(rt)
            tok = em.register()
            addrs = []
            tok.pin()
            for i in range(n):
                a = rt.new_obj(i)
                addrs.append(a)
                tok.defer_delete(a)
            tok.unpin()
            # Reclaim via advances AND a final clear: the double-free
            # detection in the heap proves exactly-once.
            em.try_reclaim()
            em.try_reclaim()
            em.try_reclaim()
            em.clear()
            assert all(not is_live(rt, a) for a in addrs)
            assert em.stats()["objects_reclaimed"] == n

        rt.run(main)
