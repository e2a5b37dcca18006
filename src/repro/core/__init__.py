"""The paper's contributions: atomic objects and distributed EBR.

* :class:`~repro.core.atomic_object.AtomicObject` (alias
  ``GlobalAtomicObject``) — atomics on wide pointers via pointer
  compression, with DCAS fallback and the descriptor-table extension.
* :class:`~repro.core.aba.ABA` — the (value, counter) snapshot defeating
  the ABA problem.
* :class:`~repro.core.epoch_manager.EpochManager` — epoch-based
  reclamation for distributed memory.
* :class:`~repro.core.limbo_list.LimboList` — the wait-free deferred-free
  list (paper Listing 2).
* :class:`~repro.core.token.Token` — per-task registration handles.
"""

from .aba import ABA
from .atomic_object import AtomicObject, DescriptorTable, GlobalAtomicObject
from .epoch_manager import EpochManager, EpochManagerStats
from .limbo_list import LimboList, LimboNode, NodePool
from .privatization import PrivatizedObject, UnprivatizedProxy
from .token import Token, TokenAllocatedList, TokenFreeList

__all__ = [
    "ABA",
    "AtomicObject",
    "GlobalAtomicObject",
    "DescriptorTable",
    "EpochManager",
    "EpochManagerStats",
    "LimboList",
    "LimboNode",
    "NodePool",
    "Token",
    "TokenFreeList",
    "TokenAllocatedList",
    "PrivatizedObject",
    "UnprivatizedProxy",
]
