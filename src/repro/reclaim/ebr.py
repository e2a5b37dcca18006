"""``EBRReclaimer``: the paper's scheme under its reclaimer name.

:class:`~repro.core.epoch_manager.EpochManager` *is* the ``"ebr"``
reclaimer — its tokens are the guards, and it shares the policy gate,
tracing and normalized ``stats()`` with the other schemes through
:class:`~repro.core.manager_core.ManagerCore`.  This name is kept for
callers that spell the scheme by its reclaimer name.
"""

from ..core.epoch_manager import EpochManager

__all__ = ["EBRReclaimer"]

EBRReclaimer = EpochManager
