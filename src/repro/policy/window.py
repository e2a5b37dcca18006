"""The aggregation-window policies: static and adaptive.

``static`` is today's knob: the window is whatever the ``aggregation``
axis says, for the whole run — the bit-identical default.  ``adaptive``
lets the window move inside ``[lo, hi]`` in response to two virtual-time
facts the aggregator already computes while charging batches:

* **occupancy** — when any batch since the last tick filled its window,
  the window (not demand) was the binding constraint for that stream:
  double it (capped at ``hi``).  Any-batch rather than every-batch,
  because the aggregator also batches streams whose item population can
  never reach the window (e.g. ``free_grouped`` batches at most one item
  per same-uplink *locale*) — those would otherwise veto growth forever;
* **queueing** — when some batch's uplink queue delay exceeded its own
  marginal batching cost, the uplink is saturated enough that batch
  length is hurting latency: halve the window (floored at ``lo``).

Observations arrive from concurrent tasks (the reclamation gather/scan
paths fan out one task per uplink group), so the accumulator uses only
commutative-exact folds — integer adds and float ``max``; the fold order
can never change the accumulated state.  The window itself moves only in
:meth:`tick`, called at sequential root-driven reclaim points, so the
sequence of windows is bit-identical across repeats.
"""

from __future__ import annotations

from .base import WindowPolicyBase

__all__ = ["WINDOW_POLICIES", "StaticWindowPolicy", "AdaptiveWindowPolicy"]


class StaticWindowPolicy(WindowPolicyBase):
    """The aggregation axis as-is: one window for the whole run."""

    kind = "static"

    def spec(self) -> str:
        return "static"


class AdaptiveWindowPolicy(WindowPolicyBase):
    """Window moves in ``[lo, hi]``: grows on full batches, shrinks on
    queueing (see the module docstring for the exact rules)."""

    kind = "adaptive"
    dynamic = True

    def __init__(self, window: int, lo: int, hi: int) -> None:
        if lo < 1 or hi < lo:
            raise ValueError(
                f"adaptive window bounds require 1 <= lo <= hi, got"
                f" {lo}..{hi}"
            )
        self.lo = int(lo)
        self.hi = int(hi)
        # Start from the aggregation axis's window, clamped into bounds.
        super().__init__(min(max(int(window), self.lo), self.hi))
        # Commutative-exact accumulator (reset each tick).
        self._batches = 0
        self._full = 0
        self._max_delay = 0.0
        self._max_marginal = 0.0
        #: Tick-level adjustment counters (stats / tests).
        self.grows = 0
        self.shrinks = 0
        self.ticks = 0

    def observe(
        self,
        *,
        count: int,
        window: int,
        queue_delay: float,
        marginal: float,
    ) -> None:
        self._batches += 1
        if count >= window:
            self._full += 1
        if queue_delay > self._max_delay:
            self._max_delay = queue_delay
        if marginal > self._max_marginal:
            self._max_marginal = marginal

    def tick(self) -> int:
        batches = self._batches
        full = self._full
        max_delay = self._max_delay
        max_marginal = self._max_marginal
        self._batches = 0
        self._full = 0
        self._max_delay = 0.0
        self._max_marginal = 0.0
        if batches == 0:
            return self.current
        self.ticks += 1
        if max_delay > max_marginal and max_delay > 0.0:
            new = max(self.lo, self.current // 2)
            if new != self.current:
                self.shrinks += 1
                self.current = new
        elif full > 0:
            new = min(self.hi, self.current * 2)
            if new != self.current:
                self.grows += 1
                self.current = new
        return self.current

    def spec(self) -> str:
        return f"adaptive:{self.lo}..{self.hi}"


#: Registry of window-policy kinds (the valid names in axis errors).
WINDOW_POLICIES = ("static", "adaptive")
