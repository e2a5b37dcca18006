"""Policy spec strings: parse / validate / normalize / round-trip.

One spec names both policy halves, joined by ``+``::

    "fixed"                          # defaults: fixed epochs, static window
    "threshold:64"                   # epoch half only (window stays static)
    "decay:64"                       # a threshold decaying along deferrals
    "grace:0.0001"                   # virtual-seconds grace period
    "adaptive:4..64"                 # window half only (epochs stay fixed)
    "threshold:64+adaptive:4..64"    # both halves

Halves may appear in either order, each at most once.  ``parse_policy``
is the one validation surface — :class:`~repro.runtime.config.
RuntimeConfig`, the scenario specs, and the ``--policy`` CLI flag all
route through it — and :meth:`PolicySpec.spec` returns the canonical
string that parses back to an equal spec (the machine-axis round-trip
contract, shared with ``parse_topology`` / ``parse_aggregation``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .epoch import (
    EPOCH_POLICIES,
    DecayEpochPolicy,
    EpochPolicyBase,
    FixedEpochPolicy,
    GraceEpochPolicy,
    ThresholdEpochPolicy,
)
from .window import (
    WINDOW_POLICIES,
    AdaptiveWindowPolicy,
    StaticWindowPolicy,
    WindowPolicyBase,
)

__all__ = ["PolicySpec", "parse_policy"]

#: Default knobs for bare policy kinds (``"threshold"`` == ``"threshold:64"``).
_DEFAULT_THRESHOLD = 64
_DEFAULT_GRACE = 1e-4
_DEFAULT_ADAPTIVE = (2, 64)


@dataclass(frozen=True)
class PolicySpec:
    """The validated, normalized policy axis of one machine.

    Immutable and hashable like :class:`~repro.comm.aggregation.
    AggregationSpec`; the stateful policy *instances* are minted fresh
    per runtime by :meth:`make_epoch_policy` / :meth:`make_window_policy`
    so no decision state leaks across runs.
    """

    epoch_kind: str = "fixed"
    #: threshold/decay: the retired-count threshold N; grace: the grace
    #: period in virtual seconds; fixed: None.
    epoch_param: Optional[float] = None
    window_kind: str = "static"
    window_lo: int = field(default=_DEFAULT_ADAPTIVE[0])
    window_hi: int = field(default=_DEFAULT_ADAPTIVE[1])

    def __post_init__(self) -> None:
        if self.epoch_kind not in EPOCH_POLICIES:
            raise ValueError(
                f"unknown epoch policy {self.epoch_kind!r}; expected one of"
                f" {list(EPOCH_POLICIES)}"
            )
        if self.window_kind not in WINDOW_POLICIES:
            raise ValueError(
                f"unknown window policy {self.window_kind!r}; expected one"
                f" of {list(WINDOW_POLICIES)}"
            )
        # Validate knobs eagerly by minting throwaway instances: the
        # constructors own the bounds checks, so spec validation and
        # instance validation can never drift apart.
        self.make_epoch_policy()
        self.make_window_policy(1)

    # ------------------------------------------------------------------
    def spec(self) -> str:
        """The canonical spec string (parses back to an equal spec)."""
        parts = []
        if self.epoch_kind in ("threshold", "decay"):
            parts.append(f"{self.epoch_kind}:{int(self.epoch_param)}")
        elif self.epoch_kind == "grace":
            parts.append(f"grace:{self.epoch_param:g}")
        if self.window_kind == "adaptive":
            parts.append(f"adaptive:{self.window_lo}..{self.window_hi}")
        return "+".join(parts) if parts else "fixed"

    # ------------------------------------------------------------------
    # instance factories
    # ------------------------------------------------------------------
    def make_epoch_policy(self) -> EpochPolicyBase:
        """Mint a fresh (stateful) epoch-advance policy instance."""
        kind = self.epoch_kind
        if kind == "fixed":
            return FixedEpochPolicy()
        if kind == "threshold":
            return ThresholdEpochPolicy(int(self.epoch_param))
        if kind == "decay":
            return DecayEpochPolicy(int(self.epoch_param))
        return GraceEpochPolicy(float(self.epoch_param))

    def make_window_policy(self, window: int) -> WindowPolicyBase:
        """Mint a fresh window policy seeded from the aggregation axis."""
        if self.window_kind == "static":
            return StaticWindowPolicy(window)
        return AdaptiveWindowPolicy(window, self.window_lo, self.window_hi)


def _parse_epoch_half(text: str, original: str) -> dict:
    """Parse one ``kind[:knob]`` epoch half into PolicySpec kwargs."""
    kind, sep, knob = text.partition(":")
    try:
        if kind == "fixed":
            if sep:
                raise ValueError("'fixed' takes no parameters")
            return {"epoch_kind": "fixed"}
        if ":" in knob:
            raise ValueError(
                f"{kind!r} takes at most one parameter (e.g. '{kind}:"
                f"{_DEFAULT_GRACE if kind == 'grace' else _DEFAULT_THRESHOLD}')"
            )
        if kind == "grace":
            g = float(knob) if sep else _DEFAULT_GRACE
            return {"epoch_kind": "grace", "epoch_param": g}
        # threshold / decay
        n = int(knob) if sep else _DEFAULT_THRESHOLD
        return {"epoch_kind": kind, "epoch_param": n}
    except ValueError as exc:
        raise ValueError(
            f"bad policy spec {original!r}: {exc}"
        ) from None


def _parse_window_half(text: str, original: str) -> dict:
    """Parse one ``static`` / ``adaptive:lo..hi`` window half."""
    parts = text.split(":")
    kind = parts[0]
    knobs = parts[1:]
    try:
        if kind == "static":
            if knobs:
                raise ValueError("'static' takes no parameters")
            return {"window_kind": "static"}
        # adaptive
        if len(knobs) > 1:
            raise ValueError("'adaptive' takes at most one lo..hi range")
        if knobs:
            lo_text, sep, hi_text = knobs[0].partition("..")
            if not sep:
                raise ValueError(
                    "'adaptive' range must be 'lo..hi' (e.g. adaptive:4..64)"
                )
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo, hi = _DEFAULT_ADAPTIVE
        return {"window_kind": "adaptive", "window_lo": lo, "window_hi": hi}
    except ValueError as exc:
        raise ValueError(
            f"bad policy spec {original!r}: {exc}"
        ) from None


def parse_policy(spec: str) -> PolicySpec:
    """Build a :class:`PolicySpec` from its spec string (see the module
    docstring; ``"fixed"`` is the fixed/static default).

    Anything else raises ``ValueError``: a non-string names the accepted
    form, an unknown half lists the valid policy names — the shared
    machine-axis error idiom.
    """
    if not isinstance(spec, str):
        raise ValueError(
            f"policy spec must be a string such as 'fixed' or"
            f" 'threshold:64+adaptive:2..64', got {spec!r}"
        )
    kwargs: dict = {}
    seen_epoch = seen_window = False
    for half in spec.strip().lower().split("+"):
        half = half.strip()
        kind = half.split(":", 1)[0]
        if kind in EPOCH_POLICIES:
            if seen_epoch:
                raise ValueError(
                    f"bad policy spec {spec!r}: more than one epoch half"
                )
            seen_epoch = True
            kwargs.update(_parse_epoch_half(half, spec))
        elif kind in WINDOW_POLICIES:
            if seen_window:
                raise ValueError(
                    f"bad policy spec {spec!r}: more than one window half"
                )
            seen_window = True
            kwargs.update(_parse_window_half(half, spec))
        else:
            raise ValueError(
                f"unknown policy {kind!r}; expected one of"
                f" {list(EPOCH_POLICIES + WINDOW_POLICIES)}"
            )
    return PolicySpec(**kwargs)
