#!/usr/bin/env python3
"""Quickstart: the paper's building blocks in ~60 lines of user code.

Walks through the whole public surface once:

1. stand up a simulated PGAS machine (4 locales, RDMA atomics),
2. use plain atomics, then ``AtomicObject`` with ABA protection,
3. protect a concurrent pipeline with the ``EpochManager``,
4. read back virtual time and communication diagnostics.

Run:  python examples/quickstart.py
"""

from repro import NIL, AtomicObject, EpochManager, Runtime
from repro.runtime import snapshot

rt = Runtime(num_locales=4, network="ugni", tasks_per_locale=2)


def main() -> None:
    # -- 1. plain atomics -------------------------------------------------
    counter = rt.atomic_int(0, locale=0)

    def count(i: int) -> None:
        counter.add(1)

    rt.forall(range(1000), count)
    print(f"atomic counter: {counter.read()} (expected 1000)")

    # -- 2. AtomicObject: atomics on (remote) objects ---------------------
    head = AtomicObject(rt, locale=0)  # compressed-pointer mode
    first = rt.new_obj({"payload": "hello"}, locale=1)
    head.write(first)
    snap = head.read_aba()  # (pointer, counter) snapshot
    print(f"head -> {snap.get_object()} via {head.mode} mode, count={snap.count}")
    assert head.compare_and_swap_aba(snap, NIL)  # DCAS: pointer AND counter
    rt.free(first)

    # -- 3. EpochManager: safe reclamation under concurrency ---------------
    em = EpochManager(rt)
    shared = AtomicObject(rt, locale=0)

    def churn(i: int, tok) -> None:
        tok.pin()  # enter the epoch (locale-local, cheap)
        mine = rt.new_obj({"i": i})  # allocate on MY locale
        old = shared.exchange_aba(mine).get_object()  # atomic publication
        if not old.is_nil:
            tok.defer_delete(old)  # logically removed -> limbo list
        tok.unpin()  # quiesce
        if i % 256 == 0:
            tok.try_reclaim()  # election + scan + advance + scatter-free

    with rt.timed() as t:
        rt.forall(range(4096), churn, task_init=em.register)
        em.clear()  # everything still in limbo is freed here

    live = sum(loc.heap.live_count for loc in rt.locales)
    print(f"virtual time: {t.elapsed*1e3:.3f} ms for 4096 publish+retire ops")
    stats = em.stats()
    print(f"epoch advances: {stats['advances']}, reclaimed: {stats['objects_reclaimed']}")
    print(f"live objects after clear: {live} (expected 1 = current head)")

    # -- 4. diagnostics -----------------------------------------------------
    snap2 = snapshot(rt)
    print(f"comm totals: {snap2.comm_totals}")
    print(f"hottest progress thread: locale {snap2.hottest_progress_locale}")


if __name__ == "__main__":
    rt.run(main)
