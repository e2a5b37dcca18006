"""Latency / service-time constants for the simulated interconnect.

The reproduction does not try to match the absolute microsecond figures of
the paper's Cray XC-50; it matches the *ordering and separation* between
operation classes, which is what drives every curve in the evaluation:

``cpu atomic  <<  NIC (RDMA) atomic  <<  active message``

Three behaviours called out in the paper are encoded here explicitly:

* Under ``ugni`` (``CHPL_NETWORK_ATOMICS``), NIC atomics are **not
  coherent** with CPU atomics, so even locale-local atomic operations must
  go through the NIC — the paper measures this at "as much as an order of
  magnitude" over a CPU atomic.  Hence ``nic_atomic_local_latency`` is ~10x
  ``cpu_atomic_latency``.
* Without network atomics (``none``), a *remote* atomic demotes to an
  active message handled by the target locale's progress thread: higher
  latency and, crucially, a serial service point (see
  :class:`~repro.runtime.clock.ServicePoint`).
* A 128-bit DCAS is never an RDMA operation — it is either a local
  ``CMPXCHG16B`` or remote execution — so the ABA-protected paths always
  pay CPU/AM prices, exactly as the ``AtomicObject (ABA)`` series do in
  Figure 3.

All times are in **seconds** of virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

__all__ = [
    "CostModel",
    "NETWORK_FIELDS",
    "DEFAULT_COSTS",
    "DEGRADED_COSTS",
    "WAN_COSTS",
    "COST_PROFILES",
    "resolve_cost_model",
]

#: One nanosecond, for readability of the constants below.
_NS = 1e-9
#: One microsecond.
_US = 1e-6

#: The *network-facing* cost fields: everything that models wire, NIC, or
#: progress-thread work (as opposed to CPU-side work, which is the same on
#: every link).  These are the fields a distance class's ``scale`` — and
#: the ``degraded`` profile — multiply; see
#: :meth:`CostModel.network_scaled` and :mod:`repro.comm.topology`.
NETWORK_FIELDS = (
    "nic_atomic_local_latency",
    "nic_atomic_remote_latency",
    "nic_atomic_service",
    "am_latency",
    "am_service",
    "am_batch_item_latency",
    "am_batch_item_service",
    "rdma_small_latency",
    "rdma_byte_cost",
    "rdma_service",
    "task_spawn_remote",
)


@dataclass(frozen=True)
class CostModel:
    """Virtual-time cost constants for every simulated operation class.

    Instances are immutable; use :meth:`scaled` or :func:`dataclasses.replace`
    to derive variants (e.g. a slower network for sensitivity studies).

    Attributes are grouped as ``*_latency`` (time charged to the issuing
    task) and ``*_service`` (time the contended resource — NIC pipeline or
    progress thread — is occupied; this is what serializes hot spots).
    """

    # -- CPU-side atomics (coherent, cache-line granularity) ------------
    #: Uncontended CPU atomic op (read/write/xchg/CAS on 64 bits).
    cpu_atomic_latency: float = 30 * _NS
    #: Exclusive cache-line occupancy per CPU atomic op.
    cpu_atomic_service: float = 15 * _NS
    #: CPU double-word (128-bit) CAS, e.g. CMPXCHG16B.
    cpu_dcas_latency: float = 60 * _NS
    #: Cache-line occupancy for a DCAS.
    cpu_dcas_service: float = 30 * _NS
    #: Plain (non-atomic) local load/store of a word or object field.
    cpu_load_latency: float = 2 * _NS

    # -- NIC-offloaded (RDMA) atomics: the `ugni` path -------------------
    #: NIC atomic issued against memory on the *same* locale.  Large on
    #: purpose: network atomics are not coherent, so local ops pay the NIC
    #: round trip too (paper: ~an order of magnitude over a CPU atomic).
    nic_atomic_local_latency: float = 400 * _NS
    #: NIC atomic against a remote locale (the paper's "ballpark of mere
    #: microseconds").
    nic_atomic_remote_latency: float = 1.1 * _US
    #: NIC pipeline occupancy per atomic; small because Aries pipelines
    #: network atomics aggressively.
    nic_atomic_service: float = 60 * _NS

    # -- Active messages (remote execution; the `none` remote path) ------
    #: One-way software latency for an active message (includes injection,
    #: wire time, and handler dispatch at the target).
    am_latency: float = 4.0 * _US
    #: Progress-thread occupancy per AM at the target locale.  This is the
    #: term that makes AM-bound locales a scaling bottleneck.
    am_service: float = 700 * _NS
    #: Marginal latency per *additional* operation riding an aggregated
    #: active message (see :mod:`repro.comm.aggregation`): payload
    #: marshalling plus the handler's per-item work, far below a full
    #: ``am_latency`` round trip — that gap is the whole point of
    #: batching.
    am_batch_item_latency: float = 250 * _NS
    #: Marginal uplink/progress occupancy per additional aggregated item.
    am_batch_item_service: float = 80 * _NS

    # -- One-sided data movement (GET / PUT) -----------------------------
    #: Small-message one-sided read/write latency.
    rdma_small_latency: float = 1.4 * _US
    #: Per-byte cost of bulk one-sided transfers (~10 GB/s).
    rdma_byte_cost: float = 0.1 * _NS
    #: NIC occupancy per RDMA data operation.
    rdma_service: float = 80 * _NS

    # -- Tasking ----------------------------------------------------------
    #: Spawning one task on the current locale.
    task_spawn_local: float = 2.0 * _US
    #: Spawning a task on a remote locale (an `on` statement / remote fork).
    task_spawn_remote: float = 6.0 * _US
    #: Joining a completed task group (charged once per construct).
    task_join: float = 1.0 * _US

    # -- Memory management -------------------------------------------------
    #: Allocating an object on the local heap.
    alloc_latency: float = 120 * _NS
    #: Freeing an object on the local heap.
    free_latency: float = 90 * _NS
    #: Marginal cost per object of a *bulk* free (amortized free-list ops);
    #: this is what the scatter list buys in `tryReclaim`.
    bulk_free_per_object: float = 25 * _NS

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every constant multiplied by ``factor``.

        Useful for sensitivity sweeps ("would the crossover move on a
        slower interconnect?") without editing individual fields.
        """
        fields: Dict[str, float] = {
            name: getattr(self, name) * factor
            for name in self.__dataclass_fields__
        }
        return CostModel(**fields)

    def with_overrides(self, **overrides: float) -> "CostModel":
        """Return a copy with the given fields replaced.

        A thin, discoverable wrapper over :func:`dataclasses.replace`.
        """
        return replace(self, **overrides)

    def network_scaled(self, factor: float) -> "CostModel":
        """Return a copy with only :data:`NETWORK_FIELDS` multiplied.

        This is the per-distance-class axis of the cost model: a slower
        *link* changes wire/NIC/progress-thread terms but not CPU-side
        work.  ``factor == 1.0`` returns ``self`` unchanged (identity, so
        the flat topology's routes are built from the very same model
        object and stay bit-identical to the legacy compile).
        """
        if factor == 1.0:
            return self
        return replace(
            self,
            **{name: getattr(self, name) * factor for name in NETWORK_FIELDS},
        )


#: The default calibration used by every benchmark unless overridden.
DEFAULT_COSTS = CostModel()

#: A congested / degraded interconnect: every *network-facing* cost is 8x
#: the default while CPU-side work is unchanged.  This widens the gap
#: between the RDMA and active-message regimes — useful for asking whether
#: a design's crossover points are artifacts of the default calibration.
DEGRADED_COSTS = DEFAULT_COSTS.network_scaled(8.0)

#: A wide-area-style profile: latencies two orders of magnitude over the
#: defaults (bandwidth-ish terms only 10x), for "would this design survive
#: geo-distribution at all" sensitivity sweeps.
WAN_COSTS = DEFAULT_COSTS.with_overrides(
    nic_atomic_local_latency=DEFAULT_COSTS.nic_atomic_local_latency * 100,
    nic_atomic_remote_latency=DEFAULT_COSTS.nic_atomic_remote_latency * 100,
    nic_atomic_service=DEFAULT_COSTS.nic_atomic_service * 10,
    am_latency=DEFAULT_COSTS.am_latency * 100,
    am_service=DEFAULT_COSTS.am_service * 10,
    rdma_small_latency=DEFAULT_COSTS.rdma_small_latency * 100,
    rdma_byte_cost=DEFAULT_COSTS.rdma_byte_cost * 10,
    rdma_service=DEFAULT_COSTS.rdma_service * 10,
    task_spawn_remote=DEFAULT_COSTS.task_spawn_remote * 100,
)

#: Named calibrations a scenario spec can ask for by string.
COST_PROFILES: Dict[str, CostModel] = {
    "default": DEFAULT_COSTS,
    "degraded": DEGRADED_COSTS,
    "wan": WAN_COSTS,
}


def resolve_cost_model(
    profile: str = "default",
    *,
    scale: float = 1.0,
    class_scale: float = 1.0,
    overrides: "Optional[Mapping[str, float] | Iterable[Tuple[str, float]]]" = None,
) -> CostModel:
    """Build a :class:`CostModel` from a named profile + adjustments.

    ``profile`` picks a base from :data:`COST_PROFILES`; ``scale``
    multiplies every constant uniformly; ``class_scale`` is the
    per-distance-class axis — it multiplies only the network-facing
    fields (:data:`NETWORK_FIELDS`), which is how a topology's distance
    classes derive their link calibration from one base model; and
    ``overrides`` (a mapping or ``(field, value)`` pairs) then replaces
    individual fields with real numbers.  Anything else raises
    ``ValueError`` listing the valid choices, prefixed with the
    declarative field at fault (``cost_profile``, ``cost_scale``,
    ``class_scale``, ``cost_overrides``) — this is the validation surface
    :meth:`repro.runtime.config.RuntimeConfig.from_topology` leans on.
    """
    try:
        model = COST_PROFILES[profile]
    except (KeyError, TypeError):
        raise ValueError(
            f"cost_profile: unknown cost profile {profile!r}; expected one"
            f" of {sorted(COST_PROFILES)}"
        ) from None
    for name, label, factor in (
        ("cost_scale", "cost scale", scale),
        ("class_scale", "class scale", class_scale),
    ):
        if not _is_real(factor) or factor <= 0:
            raise ValueError(
                f"{name}: {label} must be a positive number, got {factor!r}"
            )
    if scale != 1.0:
        model = model.scaled(scale)
    if class_scale != 1.0:
        model = model.network_scaled(class_scale)
    if overrides:
        try:
            overrides = dict(overrides)
        except (TypeError, ValueError):
            raise ValueError(
                f"cost_overrides: expected a mapping of cost field to"
                f" number, got {overrides!r}"
            ) from None
        bad = sorted(set(overrides) - set(CostModel.__dataclass_fields__))
        if bad:
            raise ValueError(
                f"cost_overrides: unknown cost override field(s) {bad}; valid"
                f" fields are {sorted(CostModel.__dataclass_fields__)}"
            )
        for key, value in overrides.items():
            if not _is_real(value):
                raise ValueError(
                    f"cost_overrides: {key} must be a real number, got"
                    f" {value!r}"
                )
        model = model.with_overrides(**overrides)
    return model


def _is_real(value: Any) -> bool:
    """True for an int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
