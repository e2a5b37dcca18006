"""The policy protocol: observe virtual-time facts, decide.

Two policy families share one tiny base (:class:`PolicyBase`):

* :class:`EpochPolicyBase` — gates the *epoch-advance* attempt.  The
  reclamation managers (:class:`~repro.core.epoch_manager.EpochManager`
  and every :class:`~repro.reclaim.protocol.ReclaimerBase` scheme) call
  :meth:`EpochPolicyBase.decide` with an :class:`EpochFacts` snapshot at
  each root-driven ``try_reclaim``; a ``False`` answer defers the whole
  election/scan/drain pipeline, cost-free.
* :class:`WindowPolicyBase` — owns the aggregation window.  The
  :class:`~repro.comm.aggregation.UplinkAggregator` reads
  :attr:`WindowPolicyBase.current` when splitting batches, feeds one
  :meth:`observe` per charged batch, and folds the accumulated facts into
  a window adjustment at the sequential :meth:`tick` points.

Fact discipline
---------------
Every input a policy may consult is a **virtual-time fact**: pending
retirement counts, virtual pin timestamps, batch occupancy against the
window, and the uplink :class:`~repro.runtime.clock.ServicePoint`'s
queueing delay.  Wall-clock time, thread ids, and arrival order are
forbidden — they are host-side facts, and any decision derived from them
would break the engine's bit-identical determinism invariant
(docs/ENGINE.md).  Accumulation inside :meth:`observe` must be
commutative-exact (integer adds, float ``max``) so the state does not
depend on the order in which tasks observe batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "PolicyBase",
    "EpochPolicyBase",
    "WindowPolicyBase",
    "EpochFacts",
]


@dataclass(frozen=True)
class EpochFacts:
    """One cost-free snapshot of reclamation state on the virtual clock.

    Built by the manager at a root-driven decision point; every field is
    a virtual-time fact (the fact discipline above) that some built-in
    epoch policy reads, and nothing is recorded to feed a fact no policy
    reads.
    """

    #: The deciding task's virtual clock, seconds.
    now: float
    #: Retired-but-unfreed objects per scan unit (per locale, or per
    #: instance under the socket-shared EBR layout), ascending locale
    #: order.  Orphaned retirements (unregistered guards) append one
    #: trailing entry when present.
    pending: Tuple[int, ...]
    #: Virtual timestamp of the most recent ``pin()`` across all guards,
    #: or ``None`` when pins are not being tracked / none happened.
    last_pin: Optional[float] = None

    @property
    def max_pending(self) -> int:
        """The largest per-unit pending count (the threshold input)."""
        return max(self.pending) if self.pending else 0

    def as_dict(self) -> dict:
        """JSON-able snapshot, recorded with each traced policy decision
        (docs/OBSERVABILITY.md) so the trace shows the facts it saw."""
        return {
            "now": self.now,
            "pending": list(self.pending),
            "last_pin": self.last_pin,
        }


class PolicyBase:
    """Common surface of every policy: a kind name and a spec round-trip."""

    #: Family discriminator: ``"epoch"`` or ``"window"``.
    family = "base"
    #: The policy's registry name (``"fixed"``, ``"threshold"``, ...).
    kind = "base"

    def spec(self) -> str:
        """The canonical spec-string half that re-creates this policy."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.spec()!r})"


class EpochPolicyBase(PolicyBase):
    """Epoch-advance policy: should this reclaim attempt proceed?

    Subclasses implement :meth:`_should_advance`; the base class keeps the
    decision counters and the deferral streak (``decisions since the last
    allowed advance``) that the decay policy consumes.  All state mutates
    only inside :meth:`decide`, which the managers call at root-driven
    reclaim points — sequential under the workload discipline, so the
    counters are deterministic.
    """

    family = "epoch"
    #: True for the ``fixed`` policy: managers skip fact collection and
    #: the decide call entirely, keeping the default path bit-identical
    #: to (and exactly as fast as) the pre-policy engine.
    always_advance = False
    #: True when the policy consumes :attr:`EpochFacts.last_pin`; guards
    #: record pin timestamps only when a tracking policy is installed, so
    #: the other policies add zero per-pin work.
    wants_pin_times = False

    def __init__(self) -> None:
        #: Decisions that allowed the advance attempt to proceed.
        self.advances = 0
        #: Decisions that deferred it.
        self.deferrals = 0
        #: Deferrals since the last allowed advance (the decay input).
        self.streak = 0

    def decide(self, facts: EpochFacts) -> bool:
        """Record and return one advance/defer decision."""
        if self._should_advance(facts):
            self.advances += 1
            self.streak = 0
            return True
        self.deferrals += 1
        self.streak += 1
        return False

    def _should_advance(self, facts: EpochFacts) -> bool:
        raise NotImplementedError


class WindowPolicyBase(PolicyBase):
    """Aggregation-window policy: how many ops may share one traversal.

    The aggregator reads :attr:`current` on every batch split.  A static
    policy never changes it; a dynamic one (:attr:`dynamic` True)
    accumulates per-batch observations and folds them into a new window
    at each :meth:`tick`.
    """

    family = "window"
    #: True when the window may change over the run.  The aggregator
    #: activates batching when the *spec* window is open **or** the
    #: policy is dynamic (an adaptive window may open a closed spec).
    dynamic = False

    def __init__(self, window: int) -> None:
        #: The window the aggregator uses right now.
        self.current = int(window)

    def observe(
        self,
        *,
        count: int,
        window: int,
        queue_delay: float,
        marginal: float,
    ) -> None:
        """Fold one charged batch's facts (no-op for static policies).

        ``count`` ops rode a batch split at ``window``; the batch waited
        ``queue_delay`` virtual seconds at its uplink service point and
        carried ``marginal`` seconds of per-item marginal latency.  May
        be called from concurrent tasks — implementations must accumulate
        with commutative-exact folds only.
        """

    def tick(self) -> int:
        """Fold accumulated observations into the window (root-driven).

        Called at sequential reclaim points only — never concurrently —
        so the mutation is deterministic.  Returns the (possibly new)
        current window.
        """
        return self.current
