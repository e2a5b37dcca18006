#!/usr/bin/env python3
"""A growing distributed telemetry buffer on ``RCUArray``.

Scenario: every locale's tasks stream sensor readings into one logically
global, dynamically growing array.  Readers (a monitoring task computing a
running maximum) run concurrently with both writers *and* resizes and are
wait-free — they can never be blocked by a grow in progress, because the
array's structure is RCU-published and old descriptors are retired through
the EpochManager.

Run:  python examples/rcu_telemetry_array.py
"""

from repro import EpochManager, Runtime
from repro.structures import RCUArray

rt = Runtime(num_locales=4, network="ugni", tasks_per_locale=2)

SAMPLES = 512


def reading(i: int) -> int:
    return (i * 37) % 1000


def main() -> None:
    em = EpochManager(rt)
    buf = RCUArray(rt, block_size=16, fill=0)
    slots = [None] * SAMPLES

    def ingest(i: int, tok) -> None:
        tok.pin()
        # append() grows the buffer by one slot from the descriptor its
        # CAS checks, so racing appenders each get their own slot.
        slot = slots[i] = buf.append(reading(i), guard=tok)
        # Wait-free concurrent read path: sample an earlier slot.
        _ = buf.read(slot // 2)
        tok.unpin()
        if i % 128 == 0:
            tok.try_reclaim()

    with rt.timed() as t:
        rt.forall(range(SAMPLES), ingest, task_init=em.register)
        em.clear()

    data = buf.snapshot()
    assert sorted(slots) == list(range(SAMPLES)), "every sample got its own slot"
    assert all(data[slots[i]] == reading(i) for i in range(SAMPLES)), (
        "every reading must land in its slot"
    )
    print(f"ingested {SAMPLES} readings across {rt.num_locales} locales"
          f" in {t.elapsed*1e3:.3f} ms virtual")
    print(f"final length {len(buf)}, max reading {max(data)}")
    print(f"block placement (locale per block): {buf.block_locales()}")
    print(f"epoch advances {em.stats.advances},"
          f" retired descriptors/blocks reclaimed: {em.stats.objects_reclaimed}")


if __name__ == "__main__":
    rt.run(main)
