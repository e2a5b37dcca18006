"""Pluggable memory reclamation: four schemes behind one guard protocol.

The paper's distributed epoch-based scheme
(:class:`~repro.core.epoch_manager.EpochManager`) used to be hard-wired
into every structure; this package makes it the *baseline* of a
comparative harness instead, a peer of three other schemes:

* :class:`EBRReclaimer` — the paper's EBR: another name for
  ``EpochManager`` itself, which ``make_reclaimer(rt, "ebr")`` returns;
* :class:`HazardPointerReclaimer` — per-task hazard slots, bounded
  unreclaimed garbage, per-pointer ``protect`` costs;
* :class:`QSBRReclaimer` — quiescent-state-based, the cheapest read side,
  explicit quiescent points at ``forall`` phase boundaries;
* :class:`IntervalReclaimer` — birth-era/retire-era interval tagging:
  eras advance past stalled readers.

Scheme selection threads through ``RuntimeConfig.reclaimer`` /
``ScenarioSpec`` (``reclaimer = "ebr" | "hp" | "qsbr" | "ibr"``) and the
``--reclaimer`` CLI flag; :func:`default_reclaimer` is the one shared
default-construction factory.  See docs/RECLAMATION.md for the protocol,
each scheme's cost model, and when to pick which.
"""

from .ebr import EBRReclaimer
from .hp import HazardPointerReclaimer
from .ibr import IntervalReclaimer
from .protocol import (
    RECLAIMER_SCHEMES,
    GuardBase,
    ReclaimerBase,
    default_reclaimer,
    make_reclaimer,
)
from .qsbr import QSBRReclaimer

__all__ = [
    "GuardBase",
    "ReclaimerBase",
    "RECLAIMER_SCHEMES",
    "make_reclaimer",
    "default_reclaimer",
    "EBRReclaimer",
    "HazardPointerReclaimer",
    "QSBRReclaimer",
    "IntervalReclaimer",
]
