#!/usr/bin/env python3
"""Why privatization matters: counting every byte that crosses the network.

The paper credits privatized, record-wrapped instances with letting
distributed objects stop being communication-bound.  This example makes
the claim auditable with the CommDiagnostics counters:

1. a pin/unpin loop through the EpochManager performs **zero** remote
   operations regardless of locale count;
2. the same loop through a deliberately by-reference handle performs one
   GET per access (communication-bound);
3. the full reclamation path shows where communication *does* happen —
   in the election, the scan, and the scatter's bulk transfers — and that
   it is amortized over thousands of retirements.

Run:  python examples/privatization_diagnostics.py
"""

from repro import EpochManager, Runtime
from repro.core.privatization import PrivatizedObject, UnprivatizedProxy
from repro.runtime import snapshot

rt = Runtime(num_locales=8, network="ugni", tasks_per_locale=1)

OPS = 2000


def pin_unpin_is_local() -> None:
    """1) pin/unpin never touches the network."""
    em = EpochManager(rt)
    rt.reset_measurements()

    def body(i: int, tok) -> None:
        tok.pin()
        tok.unpin()

    rt.forall(range(OPS), body, task_init=em.register)
    totals = rt.comm_totals()
    remote = totals["get"] + totals["put"] + totals["amo"] + totals["am"]
    print(f"  pin/unpin x{OPS} over {rt.num_locales} locales:"
          f" remote ops = {remote} (gets={totals['get']}, amos={totals['amo']})")
    assert remote == 0, "privatized pin/unpin must be communication-free"
    em.destroy()


def by_reference_is_comm_bound() -> None:
    """2) a by-reference handle pays a GET per resolution."""
    instances = [object() for _ in range(rt.num_locales)]
    proxy = UnprivatizedProxy(rt, instances)
    priv = PrivatizedObject(rt, instances)

    rt.reset_measurements()
    def body_proxy(i: int) -> None:
        proxy.get_privatized_instance()
    rt.forall(range(OPS), body_proxy)
    gets_proxy = rt.comm_totals()["get"]

    rt.reset_measurements()
    def body_priv(i: int) -> None:
        priv.get_privatized_instance()
    rt.forall(range(OPS), body_priv)
    gets_priv = rt.comm_totals()["get"]

    print(f"  handle resolutions x{OPS}: by-reference GETs = {gets_proxy},"
          f" privatized GETs = {gets_priv}")
    assert gets_priv == 0


def reclamation_communication_is_amortized() -> None:
    """3) where the EpochManager *does* communicate, and how little."""
    em = EpochManager(rt)
    rt.reset_measurements()

    def body(i: int, tok) -> None:
        tok.pin()
        addr = rt.new_obj({"i": i})
        tok.defer_delete(addr)
        tok.unpin()
        if i % 512 == 0:
            tok.try_reclaim()

    rt.forall(range(OPS), body, task_init=em.register)
    em.clear()
    totals = rt.comm_totals()
    snap = snapshot(rt)
    remote = totals["amo"] + totals["am"] + totals["fork"] + totals["bulk"]
    print(f"  retire x{OPS} w/ sparse tryReclaim: remote ops = {remote}"
          f" ({remote/OPS:.3f} per object; bulk transfers = {totals['bulk']})")
    stats = em.stats()
    print(f"  advances = {stats['advances']},"
          f" reclaimed = {stats['objects_reclaimed']},"
          f" hottest progress thread: locale {snap.hottest_progress_locale}")
    em.destroy()


if __name__ == "__main__":
    print(f"{rt.num_locales} locales, network atomics enabled:")
    rt.run(pin_unpin_is_local)
    rt.run(by_reference_is_comm_bound)
    rt.run(reclamation_communication_is_amortized)
