"""Blocking baselines: the synchronized counterparts for every comparison.

* :class:`~repro.baselines.spinlock.SpinLock` — cost-modelled test-and-set
  lock.
* :class:`~repro.baselines.locked_structures.LockedQueue` /
  :class:`~repro.baselines.locked_structures.LockedMap` — single-lock
  structures the examples compare against.
* :class:`~repro.baselines.global_lock_reclaimer.GlobalLockReclaimer` —
  the read-side hot-counter baseline the EpochManager's privatized
  pin/unpin is ablated against.
"""

from .global_lock_reclaimer import GlobalLockReclaimer, ReclaimerGuard
from .locked_structures import LockedMap, LockedQueue
from .spinlock import SpinLock

__all__ = [
    "SpinLock",
    "LockedQueue",
    "LockedMap",
    "GlobalLockReclaimer",
    "ReclaimerGuard",
]
