#!/usr/bin/env python3
"""Distributed word count on the Interlocked Hash Table.

The paper's announced follow-on application, exercised end to end: every
locale's tasks stream text shards and bump per-word counters with the
table's lock-free ``update`` (read-copy-update on immutable buckets, old
snapshots retired through the EpochManager).  Lookups afterwards are
wait-free.  The same job runs against the single-lock ``LockedMap``
baseline for a virtual-time comparison, and the result is checked against
Python's ``Counter`` ground truth.

Run:  python examples/distributed_word_count.py
"""

import random
from collections import Counter

from repro import EpochManager, Runtime
from repro.baselines import LockedMap
from repro.structures import InterlockedHashTable

VOCABULARY = (
    "pgas locale epoch atomic pointer compression rdma nic chapel "
    "lock free wait free stack queue list table reclaim limbo token pin"
).split()

rt = Runtime(num_locales=4, network="ugni", tasks_per_locale=2)


def make_shards(num_shards: int, words_per_shard: int) -> list:
    """Deterministic pseudo-text shards."""
    rng = random.Random(1234)
    return [
        [rng.choice(VOCABULARY) for _ in range(words_per_shard)]
        for _ in range(num_shards)
    ]


def main() -> None:
    shards = make_shards(num_shards=64, words_per_shard=50)
    truth = Counter(w for shard in shards for w in shard)

    # -- lock-free table ---------------------------------------------------
    em = EpochManager(rt)
    # aba_protection=False: headers use plain 64-bit (RDMA-able) CAS,
    # with EBR preventing snapshot-address recycling under pins.
    table = InterlockedHashTable(
        rt, buckets=64, reclaimer=em, aba_protection=False
    )

    def count_shard(shard, tok) -> None:
        tok.pin()
        for word in shard:
            table.update(word, lambda v: v + 1, default=0, guard=tok)
        tok.unpin()
        tok.try_reclaim()

    with rt.timed() as t_lf:
        rt.forall(shards, count_shard, task_init=em.register)
        em.clear()

    # verify against ground truth
    for word, n in truth.items():
        got = table.get(word)
        assert got == n, (word, got, n)
    print(f"  lock-free table: {sum(truth.values())} words counted correctly"
          f" in {t_lf.elapsed*1e3:.3f} ms virtual")
    top = sorted(truth.items(), key=lambda kv: -kv[1])[:3]
    for word, n in top:
        print(f"    {word!r}: {n}  (bucket owner: locale {table.owner_locale(word)})")

    # -- locked baseline ---------------------------------------------------
    lmap = LockedMap(rt)

    def count_shard_locked(shard) -> None:
        for word in shard:
            lmap.update(word, lambda v: v + 1, default=0)

    with rt.timed() as t_lk:
        rt.forall(shards, count_shard_locked)
    for word, n in truth.items():
        assert lmap.get(word) == n
    print(f"  locked map:      same job in {t_lk.elapsed*1e3:.3f} ms virtual")
    print(f"  speedup: {t_lk.elapsed/t_lf.elapsed:.2f}x for the lock-free table")


if __name__ == "__main__":
    rt.run(main)
