"""Ablation studies for the design choices the paper argues for.

Each function isolates one mechanism, runs the relevant workload with the
mechanism on and off (or across the alternative implementations), and
returns a :class:`~repro.bench.report.Panel`.  These back the paper's
design arguments, one mechanism at a time:

* **compression** — pointer compression (RDMA path) vs the DCAS fallback
  vs the descriptor-table extension;
* **privatization** — record-wrapped zero-communication handles vs a
  naive by-reference proxy that fetches metadata per access;
* **scatter** — bulk per-locale deallocation vs one RPC per dead object;
* **election** — the FCFS ``testAndSet`` election vs letting every caller
  run the global scan;
* **reclaimers** — EpochManager vs the blocking hot-counter baseline
  (GlobalLockReclaimer);
* **epoch cycle** — the paper's 3-epoch cycle vs a 4-epoch cycle that
  holds objects one extra advance.
"""

from __future__ import annotations

from typing import List, Sequence

from ..baselines.global_lock_reclaimer import GlobalLockReclaimer
from ..core.atomic_object import AtomicObject
from ..core.epoch_manager import EpochManager
from ..core.privatization import UnprivatizedProxy
from ..runtime.runtime import Runtime
from .report import Panel
from .workloads import run_epoch_workload

__all__ = [
    "ablation_compression",
    "ablation_epoch_cycle",
    "ablation_privatization",
    "ablation_scatter",
    "ablation_election",
    "ablation_reclaimers",
]


def _runtime(nloc: int, network: str, tpl: int = 1) -> Runtime:
    return Runtime(num_locales=nloc, network=network, tasks_per_locale=tpl)


def ablation_compression(
    *,
    locales: Sequence[int] = (2, 4, 8, 16, 32),
    ops_per_task: int = 1 << 10,
) -> Panel:
    """Pointer compression vs DCAS fallback vs descriptor table (ugni).

    The compressed mode rides 64-bit RDMA atomics; ``dcas`` demotes every
    op to CPU/AM; ``descriptor`` keeps RDMA at the price of registration +
    cached resolution.
    """
    panel = Panel(
        title="Ablation: AtomicObject representation (ugni) — time (s)",
        xlabel="locales",
        xs=list(locales),
    )
    for mode in ("compressed", "dcas", "descriptor"):
        vals: List[float] = []
        for nloc in locales:
            rt = _runtime(nloc, "ugni")

            def main() -> float:
                nonlocal_mode = mode
                cells = [
                    AtomicObject(rt, locale=i % nloc, mode=nonlocal_mode)
                    for i in range(max(64, 2 * nloc))
                ]
                targets = [rt.new_obj(object(), locale=lid) for lid in range(nloc)]

                def body(i: int) -> None:
                    rng = rt._own_context().rng
                    for k in range(ops_per_task):
                        cell = cells[rng.randrange(len(cells))]
                        if k & 1:
                            cell.read()
                        else:
                            cell.exchange(targets[cell.home])

                rt.reset_measurements()
                with rt.timed() as t:
                    rt.forall(range(nloc), body, tasks_per_locale=1)
                return t.elapsed

            vals.append(rt.run(main))
        panel.add(mode, vals)
    return panel


def ablation_privatization(
    *,
    locales: Sequence[int] = (2, 4, 8, 16, 32),
    ops_per_task: int = 1 << 11,
) -> Panel:
    """Privatized handle resolution vs per-access metadata round trips.

    Measures the pure handle-resolution loop the paper optimizes: each
    task resolves its local instance ``ops_per_task`` times.  Privatized
    resolution is a local table lookup that charges nothing, so that
    series is exactly the ``forall``'s spawn tree plus its join,
    ``ceil(log2(n + 1))`` remote-spawn rounds and one join cost: under
    the default ugni costs 13, 19, 25, 31 and 37 us over 2-32 locales,
    one 6 us round per locale doubling, the same for every
    ``ops_per_task``.  Without privatization every access pays a GET from
    the owner locale and the owner's NIC serializes.
    """
    panel = Panel(
        title="Ablation: privatization (ugni) — time (s)",
        xlabel="locales",
        xs=list(locales),
    )
    for privatized in (True, False):
        vals: List[float] = []
        for nloc in locales:
            rt = _runtime(nloc, "ugni")

            def main() -> float:
                instances = [object() for _ in range(nloc)]
                if privatized:
                    from ..core.privatization import PrivatizedObject

                    handle = PrivatizedObject(rt, instances)
                else:
                    handle = UnprivatizedProxy(rt, instances, owner=0)

                def body(i: int) -> None:
                    for _ in range(ops_per_task):
                        handle.get_privatized_instance()

                rt.reset_measurements()
                with rt.timed() as t:
                    rt.forall(range(nloc), body, tasks_per_locale=1)
                return t.elapsed

            vals.append(rt.run(main))
        panel.add("privatized" if privatized else "by-reference", vals)
    return panel


def ablation_scatter(
    *,
    locales: Sequence[int] = (2, 4, 8, 16),
    ops_per_task: int = 1 << 9,
) -> Panel:
    """Scatter-list bulk deallocation vs per-object remote frees.

    Run the Figure 6 workload at 100% remote objects with the scatter list
    enabled and disabled; the gap is the per-object RPC cost the paper's
    design amortizes.
    """
    panel = Panel(
        title="Ablation: scatter list, 100% remote (ugni) — time (s)",
        xlabel="locales",
        xs=list(locales),
    )
    for use_scatter in (True, False):
        vals: List[float] = []
        for nloc in locales:
            rt = _runtime(nloc, "ugni")
            res = run_epoch_workload(
                rt,
                ops_per_task=ops_per_task,
                remote_percent=100,
                delete=True,
                reclaim_every=None,
                cleanup_at_end=True,
                manager_kwargs={"use_scatter": use_scatter},
            )
            vals.append(res.elapsed)
        panel.add("scatter" if use_scatter else "per-object free", vals)
    return panel


def ablation_election(
    *,
    locales: Sequence[int] = (2, 4, 8, 16),
    ops_per_task: int = 1 << 8,
) -> Panel:
    """FCFS election vs every caller scanning (dense tryReclaim, ugni).

    The paper's claim is about *redundant requests*: with the election,
    losers back out after one or two flag operations; without it, every
    ``tryReclaim`` call runs the full cross-locale scan, flooding every
    locale (and the global-epoch home) with forks and remote reads.  The
    honest metric for that claim is communication volume, not virtual
    elapsed time — in a simulator, perfectly parallel redundant work barely
    moves the clock, while on a real machine it steals progress-thread and
    core cycles from the workload.  We therefore report **remote
    operations per retired object** (forks + active messages + remote
    atomics); elapsed time is attached per-point in the panel title data
    via the workload result if needed.
    """
    panel = Panel(
        title="Ablation: election flag, dense tryReclaim (ugni) — remote ops per object",
        xlabel="locales",
        xs=list(locales),
    )
    for use_election in (True, False):
        vals: List[float] = []
        for nloc in locales:
            rt = _runtime(nloc, "ugni")
            res = run_epoch_workload(
                rt,
                ops_per_task=ops_per_task,
                remote_percent=0,
                delete=True,
                reclaim_every=1,
                cleanup_at_end=True,
                manager_kwargs={"use_election": use_election},
            )
            comm = res.comm
            remote_ops = (
                comm["fork"] + comm["am"] + comm["amo"] + comm["get"] + comm["put"]
            )
            vals.append(remote_ops / res.operations)
        panel.add("election" if use_election else "no election", vals)
    return panel


def ablation_reclaimers(
    *,
    locales: Sequence[int] = (1, 2, 4, 8, 16),
    ops_per_task: int = 1 << 10,
) -> Panel:
    """EpochManager vs blocking hot-counter reclaimer (pin/unpin costs).

    The guard interface is identical; only the coordination differs:
    privatized local epochs vs one global reader counter everyone
    increments remotely.
    """
    panel = Panel(
        title="Ablation: reclamation scheme, read-mostly (ugni) — time (s)",
        xlabel="locales",
        xs=list(locales),
    )
    for scheme in ("EpochManager", "GlobalLockReclaimer"):
        vals: List[float] = []
        for nloc in locales:
            rt = _runtime(nloc, "ugni")

            def main() -> float:
                if scheme == "EpochManager":
                    mgr = EpochManager(rt)
                else:
                    mgr = GlobalLockReclaimer(rt)

                def body(i: int, guard) -> None:
                    guard.pin()
                    guard.unpin()

                def init():
                    return mgr.register()

                rt.reset_measurements()
                with rt.timed() as t:
                    rt.forall(
                        range(nloc * ops_per_task),
                        body,
                        task_init=init,
                        tasks_per_locale=1,
                    )
                if isinstance(mgr, EpochManager):
                    mgr.destroy()
                return t.elapsed

            vals.append(rt.run(main))
        panel.add(scheme, vals)
    return panel


def ablation_epoch_cycle(
    *,
    locales: Sequence[int] = (2, 4, 8),
    ops_per_task: int = 1 << 9,
) -> Panel:
    """3-epoch (paper) vs 4-epoch (hardened) reclamation cycle.

    The 4-list variant closes the mid-advance stale-cache window (see
    :data:`~repro.core.epoch_manager.EPOCH_CYCLE`) by holding objects one
    extra advance.  The question
    this ablation answers: what does that safety margin cost?  Expected
    answer: almost nothing in time (the extra list is only touched during
    reclamation), a bounded increase in peak memory residency — which is
    what we report alongside time via the panel pair.
    """
    panel = Panel(
        title="Ablation: epoch cycle length, sparse reclaim (ugni) — time (s)",
        xlabel="locales",
        xs=list(locales),
    )
    for cycle in (3, 4):
        vals: List[float] = []
        for nloc in locales:
            rt = _runtime(nloc, "ugni")
            res = run_epoch_workload(
                rt,
                ops_per_task=ops_per_task,
                remote_percent=0,
                delete=True,
                reclaim_every=128,
                cleanup_at_end=True,
                manager_kwargs={"epoch_cycle": cycle},
            )
            vals.append(res.elapsed)
        panel.add(f"{cycle} epochs", vals)
    return panel
