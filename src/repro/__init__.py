"""repro — distributed non-blocking building blocks for the PGAS model.

A production-style Python reproduction of *"Paving the way for Distributed
Non-Blocking Algorithms and Data Structures in the Partitioned Global
Address Space model"* (Dewan & Jenkins, 2020, arXiv:2002.03068), including
the simulated PGAS substrate (locales, one-sided operations, RDMA vs
active-message cost model) the constructs need to run and be measured.

Quickstart::

    from repro import Runtime, EpochManager, AtomicObject

    rt = Runtime(num_locales=4, network="ugni")

    def main():
        em = EpochManager(rt)
        head = AtomicObject(rt, locale=0)

        def body(i, tok):
            tok.pin()
            addr = rt.new_obj({"i": i})   # allocate on my locale
            old = head.exchange(addr)     # publish atomically
            if not old.is_nil:
                tok.defer_delete(old)     # safe deferred reclamation
            tok.unpin()

        rt.forall(range(1000), body, task_init=em.register)
        em.clear()

    rt.run(main)

Package map: :mod:`repro.runtime` (simulated machine),
:mod:`repro.comm` (cost model / diagnostics), :mod:`repro.memory` (wide
pointers, compression, heaps), :mod:`repro.atomics` (primitive atomics),
:mod:`repro.core` (the paper's AtomicObject + EpochManager),
:mod:`repro.reclaim` (pluggable memory reclamation: EBR / hazard
pointers / QSBR / interval-based behind one guard protocol),
:mod:`repro.structures` (non-blocking structures built on them),
:mod:`repro.baselines` (lock-based comparators), :mod:`repro.bench`
(figure-by-figure benchmark harness).
"""

from .comm import DEFAULT_COSTS, CommDiagnostics, CostModel, NetworkModel
from .core import (
    ABA,
    AtomicObject,
    EpochManager,
    GlobalAtomicObject,
    LimboList,
    Token,
)
from .errors import (
    CompressionError,
    DoubleFreeError,
    EpochManagerError,
    ReclaimerError,
    ReproError,
    TokenStateError,
    TooManyLocalesError,
    UseAfterFreeError,
)
from .memory import NIL, GlobalAddress, compress, decompress, is_nil
from .reclaim import (
    RECLAIMER_SCHEMES,
    EBRReclaimer,
    HazardPointerReclaimer,
    IntervalReclaimer,
    QSBRReclaimer,
    default_reclaimer,
    make_reclaimer,
)
from .runtime import NetworkType, Runtime, RuntimeConfig, snapshot

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # runtime
    "Runtime",
    "RuntimeConfig",
    "NetworkType",
    "snapshot",
    # comm
    "CostModel",
    "DEFAULT_COSTS",
    "NetworkModel",
    "CommDiagnostics",
    # memory
    "GlobalAddress",
    "NIL",
    "is_nil",
    "compress",
    "decompress",
    # core
    "ABA",
    "AtomicObject",
    "GlobalAtomicObject",
    "EpochManager",
    "LimboList",
    "Token",
    # reclaim
    "RECLAIMER_SCHEMES",
    "make_reclaimer",
    "default_reclaimer",
    "EBRReclaimer",
    "HazardPointerReclaimer",
    "QSBRReclaimer",
    "IntervalReclaimer",
    # errors
    "ReproError",
    "UseAfterFreeError",
    "DoubleFreeError",
    "TooManyLocalesError",
    "CompressionError",
    "TokenStateError",
    "ReclaimerError",
    "EpochManagerError",
]
