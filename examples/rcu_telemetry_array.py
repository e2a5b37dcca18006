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
GROW_STEP = 64


def main() -> None:
    em = EpochManager(rt)
    buf = RCUArray(rt, GROW_STEP, block_size=16, fill=0)

    def ingest(i: int, tok) -> None:
        tok.pin()
        # Grow the buffer when the next sample would not fit.  Racing
        # growers are fine: resize() is a CAS loop and the loser retries
        # against the winner's descriptor.
        while i >= len(buf):
            buf.resize(len(buf) + GROW_STEP, guard=tok)
        buf.write(i, (i * 37) % 1000)  # the "reading"
        # Wait-free concurrent read path: sample a few slots.
        _ = buf.read(i // 2)
        tok.unpin()
        if i % 128 == 0:
            tok.try_reclaim()

    with rt.timed() as t:
        rt.forall(range(SAMPLES), ingest, task_init=em.register)
        em.clear()

    data = buf.snapshot()[:SAMPLES]
    expected = [(i * 37) % 1000 for i in range(SAMPLES)]
    assert data == expected, "every reading must land in its slot"
    print(f"ingested {SAMPLES} readings across {rt.num_locales} locales"
          f" in {t.elapsed*1e3:.3f} ms virtual")
    print(f"final length {len(buf)}, max reading {max(data)}")
    print(f"block placement (locale per block): {buf.block_locales()}")
    print(f"epoch advances {em.stats.advances},"
          f" retired descriptors/blocks reclaimed: {em.stats.objects_reclaimed}")


if __name__ == "__main__":
    rt.run(main)
