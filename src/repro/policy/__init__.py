"""Pluggable virtual-time policies for epoch cadence and aggregation.

The paper's EBR advances epochs on one hard-coded cadence — every
``tryReclaim`` call runs the election and the global scan — and the
uplink message-aggregation window (:mod:`repro.comm.aggregation`) is one
static knob.  This package makes both *policies*: small strategy objects
that observe **virtual-time facts** and decide

* whether a reclaim attempt should run at all (**epoch-advance
  policies**: ``fixed`` — today's cadence and the bit-identical default —
  ``threshold``, ``decay``, ``grace``), and
* how wide the aggregation window should be (**window policies**:
  ``static`` — today's knob — and ``adaptive:min..max``).

The policy axis is machine configuration like ``reclaimer`` or
``topology``: one spec string (``RuntimeConfig.policy`` /
``TopologySpec.policy`` / ``--policy``) names an epoch half and a window
half joined by ``+`` — ``"threshold:64+adaptive:4..64"`` — with either
half omissible (``"fixed"``, ``"grace:0.0001"``, ``"adaptive:2..32"``).

Determinism discipline (the hard requirement, enforced by
``tests/test_policy.py``): decisions read **only virtual-time facts** —
retired/pending counts, pin timestamps on the virtual clock, batch
occupancy, uplink queueing delay — never wall-clock time, thread
identity, or arrival order.  Epoch decisions run at the root-driven
reclaim points of the workload discipline (:mod:`repro.bench.workloads`);
window observations accumulate under commutative-exact folds (integer
counts and floating-point ``max`` — never float sums) so the adaptive
state is independent of task order, and the window itself
mutates only at sequential root-driven tick points.

See docs/POLICY.md for the protocol, the per-policy semantics, and the
``policy-sweep-*`` head-to-head results.
"""

from .base import (
    EpochFacts,
    EpochPolicyBase,
    PolicyBase,
    WindowPolicyBase,
)
from .epoch import (
    EPOCH_POLICIES,
    DecayEpochPolicy,
    FixedEpochPolicy,
    GraceEpochPolicy,
    ThresholdEpochPolicy,
)
from .spec import PolicySpec, parse_policy
from .window import (
    WINDOW_POLICIES,
    AdaptiveWindowPolicy,
    StaticWindowPolicy,
)

__all__ = [
    "PolicyBase",
    "EpochPolicyBase",
    "WindowPolicyBase",
    "EpochFacts",
    "EPOCH_POLICIES",
    "WINDOW_POLICIES",
    "FixedEpochPolicy",
    "ThresholdEpochPolicy",
    "DecayEpochPolicy",
    "GraceEpochPolicy",
    "StaticWindowPolicy",
    "AdaptiveWindowPolicy",
    "PolicySpec",
    "parse_policy",
]
