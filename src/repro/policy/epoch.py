"""The epoch-advance policies: fixed, threshold, decay, grace.

These adapt the isnad ``EpochPolicy`` / ``AdaptiveEpochCalculator``
shapes (threshold triggers, decay curves, grace periods — SNIPPETS.md
snippet 3) to the simulator's determinism rules: every wall-clock input
of the originals is replaced by a virtual-time fact, and the decay policy
is *probability-free* — it decays a threshold along the deferral streak
instead of sampling an expiry, so repeated runs decide identically.

All four are cheap Python predicates over an
:class:`~repro.policy.base.EpochFacts` snapshot; a deferral skips the
entire election/scan/drain pipeline and costs zero virtual time.
"""

from __future__ import annotations

from .base import EpochFacts, EpochPolicyBase

__all__ = [
    "EPOCH_POLICIES",
    "FixedEpochPolicy",
    "ThresholdEpochPolicy",
    "DecayEpochPolicy",
    "GraceEpochPolicy",
]


class FixedEpochPolicy(EpochPolicyBase):
    """Today's cadence: every reclaim attempt proceeds (the default).

    ``always_advance`` short-circuits the managers before any fact is
    computed, which is what keeps the default policy bit-identical to —
    and exactly as fast as — the pre-policy engine.
    """

    kind = "fixed"
    always_advance = True

    def _should_advance(self, facts: EpochFacts) -> bool:
        return True

    def spec(self) -> str:
        return "fixed"


class ThresholdEpochPolicy(EpochPolicyBase):
    """Advance only once a scan unit's retired count crosses ``n``.

    Below the threshold the attempt is deferred outright — no election,
    no global scan — so sparse retirement traffic stops paying the scan
    traversals that dominate reclamation cost on degraded interconnects.
    The trade is memory residency: limbo lists grow until the threshold
    (or a ``clear``) releases them.
    """

    kind = "threshold"

    def __init__(self, n: int) -> None:
        super().__init__()
        if n < 1:
            raise ValueError(f"threshold policy requires n >= 1, got {n}")
        self.n = int(n)

    def _should_advance(self, facts: EpochFacts) -> bool:
        return facts.max_pending >= self.n

    def spec(self) -> str:
        return f"threshold:{self.n}"


class DecayEpochPolicy(ThresholdEpochPolicy):
    """A threshold that decays linearly along the deferral streak.

    The effective threshold at each decision is ``n * (1 - streak /
    horizon)``, where ``streak`` counts deferrals since the last allowed
    advance and the horizon is :attr:`HORIZON`.  It reaches 0 at the
    horizon, so a decay policy defers at most ``HORIZON`` consecutive
    times — backlog below the threshold still reclaims eventually,
    without any randomness (the probability-free replacement for sampled
    expiry).
    """

    kind = "decay"
    #: Deferrals after which the effective threshold reaches 0.
    HORIZON = 8

    def effective_threshold(self) -> int:
        """The decayed threshold at the current deferral streak."""
        t = self.streak / self.HORIZON
        if t >= 1.0:
            return 0
        return int(self.n * (1.0 - t))

    def _should_advance(self, facts: EpochFacts) -> bool:
        eff = self.effective_threshold()
        return eff <= 0 or facts.max_pending >= eff

    def spec(self) -> str:
        return f"decay:{self.n}"


class GraceEpochPolicy(EpochPolicyBase):
    """Hold the epoch open for a virtual grace period after the last pin.

    Advance only when ``facts.now - facts.last_pin >= grace`` — a burst
    of recent protected regions holds reclamation off until the structure
    has been quiet for ``grace`` virtual seconds.  ``wants_pin_times``
    makes guards record their pin timestamps (one conditional store per
    pin, only while a grace policy is installed); with no pin ever
    recorded the policy advances immediately.
    """

    kind = "grace"
    wants_pin_times = True

    def __init__(self, grace: float) -> None:
        super().__init__()
        if not (grace > 0.0):
            raise ValueError(f"grace period must be > 0, got {grace}")
        self.grace = float(grace)

    def _should_advance(self, facts: EpochFacts) -> bool:
        if facts.last_pin is None:
            return True
        return facts.now - facts.last_pin >= self.grace

    def spec(self) -> str:
        return f"grace:{self.grace:g}"


#: Registry of epoch-policy kinds (the valid names in axis errors).
EPOCH_POLICIES = ("fixed", "threshold", "decay", "grace")
