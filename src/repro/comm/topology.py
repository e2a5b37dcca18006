"""Multi-level interconnect topologies: distance classes over locales.

The paper's evaluation machine (a Cray XC-50) is not a flat graph of
equidistant locales: CPU-coherent sockets sit inside nodes, nodes inside
electrical groups, groups across an optical dragonfly.  The cost
separations that drive every figure — ``cpu atomic << NIC atomic << AM``
— are really *distance classes*, not global constants.  This module makes
that explicit: a :class:`Topology` partitions every (src, dst) locale
pair into a small ordered set of :class:`DistanceClass`\\ es, and the
network model (:mod:`repro.comm.network`) compiles one cost route per
(home locale, distance class) instead of the old local/remote pair.

Three built-ins cover the machines the reproduction cares about:

* :class:`FlatTopology` — exactly the legacy behaviour (every remote peer
  pays the same price); the default, and bit-identical to the pre-topology
  engine by construction (see docs/TOPOLOGY.md and the exactness tests).
* :class:`HierarchicalTopology` — locales grouped into CPU-coherent
  sockets inside nodes: same-socket peers are coherent (CPU-atomic
  prices, no NIC detour), same-node peers ride the NIC, and cross-node
  traffic is AM-priced through a **shared per-node uplink** service point
  (every locale on a node funnels its off-node traffic through one serial
  resource).
* :class:`DragonflyTopology` — locales grouped into dragonfly groups:
  intra-group links are the normal remote fabric, inter-group (optical)
  links are degraded by a scale factor and serialized through a shared
  per-group uplink.

Distance classes are *descriptive*, not prescriptive: each class names a
``transport`` (how atomics are priced), a network-cost ``scale``
(multiplying only the network-facing constants — see
:meth:`repro.comm.costs.CostModel.network_scaled`), and whether the class
funnels through a shared uplink.  Route compilation in the network model
turns that description into precompiled :class:`~repro.comm.routes`
entries once per (home, class); the hot paths never consult the topology
object again — cells cache their home's *distance row* (a tuple mapping
source locale to class index) and index their precompiled plans with one
tuple lookup.

Determinism: ``distance`` is a pure function of the two locale ids, and
uplink service points obey the same idle-banking capacity-conservation
contract as the NIC/progress points (docs/ENGINE.md), so virtual-time
results remain a pure function of the program and its seed under every
topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .costs import is_finite_number

__all__ = [
    "DistanceClass",
    "Topology",
    "FlatTopology",
    "HierarchicalTopology",
    "DragonflyTopology",
    "TOPOLOGY_KINDS",
    "topology_names",
    "parse_topology",
]

#: Transports a distance class may name (how atomics are priced):
#:
#: * ``"local"``    — the issuing locale itself (class 0 only): legacy
#:   local rules (NIC-local under ``ugni``, CPU atomic under ``none``);
#: * ``"coherent"`` — a different locale inside the same CPU coherence
#:   domain: CPU-atomic prices, no serial network resource (and a
#:   CMPXCHG16B wide CAS still works);
#: * ``"remote"``   — the legacy remote rules (NIC atomic under ``ugni``,
#:   AM round trip under ``none``);
#: * ``"nic"``      — NIC (RDMA) atomics when the network offers them
#:   (demotes to ``"am"`` under ``none``);
#: * ``"am"``       — always an active-message round trip.
_TRANSPORTS = ("local", "coherent", "remote", "nic", "am")

#: Network-cost scale of the dragonfly's inter-group (optical) class.
GLOBAL_SCALE = 4.0


@dataclass(frozen=True)
class DistanceClass:
    """One rung of a topology's distance ladder.

    ``scale`` multiplies only the *network-facing* cost constants of the
    runtime's base :class:`~repro.comm.costs.CostModel` for operations in
    this class (CPU-side work is distance-independent).  When
    ``shared_uplink`` is set, operations in this class serialize through
    the destination's per-group uplink service point instead of its
    per-locale NIC/progress point — the "everything leaving/entering this
    node shares one pipe" contention the paper's machine exhibits between
    electrical groups.
    """

    name: str
    transport: str
    scale: float = 1.0
    shared_uplink: bool = False

    def __post_init__(self) -> None:
        if self.transport not in _TRANSPORTS:
            raise ValueError(
                f"unknown distance-class transport {self.transport!r};"
                f" expected one of {list(_TRANSPORTS)}"
            )
        if not is_finite_number(self.scale) or self.scale <= 0:
            raise ValueError(
                f"distance-class scale must be a finite positive number,"
                f" got {self.scale!r}"
            )


class Topology:
    """Partition of locale pairs into distance classes (base class).

    Subclasses define :attr:`classes` (class 0 MUST be the ``"local"``
    self class), :meth:`distance` and ``build_distance_row(dst)``: the
    tuple of ``distance(src, dst)`` for every ``src``, in closed form
    (fill with the farthest class, slice-assign the nearer ranges, then
    the self entry).  Hot paths index the row by issuing locale; they
    read it from :meth:`NetworkModel.distance_row
    <repro.comm.network.NetworkModel.distance_row>`, which caches it per
    runtime.  Uplink grouping and coherence domains have generic
    defaults.
    """

    #: Registry key / canonical spec prefix ("flat", "hier", "dragonfly").
    kind: str = "abstract"

    def __init__(self, num_locales: int) -> None:
        if not isinstance(num_locales, int) or num_locales < 1:
            raise ValueError(
                f"num_locales must be a positive integer, got {num_locales!r}"
            )
        self.num_locales = num_locales
        self.classes: Tuple[DistanceClass, ...] = ()

    # -- the defining relation -----------------------------------------
    def distance(self, src: int, dst: int) -> int:
        """Distance-class index of an operation issued by ``src`` against
        memory homed on ``dst``.  Pure: depends only on the two ids."""
        raise NotImplementedError

    # -- contention & coherence grouping --------------------------------
    def uplink_group(self, locale: int) -> int:
        """Shared-uplink group of ``locale`` (for ``shared_uplink``
        classes); default: one group per locale (no sharing)."""
        return locale

    def coherence_domain(self, locale: int) -> int:
        """CPU-coherence domain id of ``locale``.

        Locales in one domain reach each other at ``"coherent"``
        transport (or are the same locale); privatized objects may share
        one instance per domain (:func:`repro.core.privatization.
        replicate_coherent`).  Default: every locale is its own domain.
        """
        return locale

    # -- description ----------------------------------------------------
    def spec(self) -> str:
        """The canonical string spec that re-creates this topology."""
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.spec()!r}, num_locales={self.num_locales})"


def _fill_block(row: List[int], dst: int, size: int, cls: int) -> None:
    """Set ``row`` to ``cls`` over the ``size``-aligned block of locale ids
    holding ``dst`` (cut short at the last locale: a partial last block)."""
    lo = dst - dst % size
    hi = min(lo + size, len(row))
    row[lo:hi] = [cls] * (hi - lo)


class FlatTopology(Topology):
    """Every remote peer is equidistant — the legacy (and default) model.

    Two classes: self and remote.  Route compilation under this topology
    produces *exactly* the pre-topology engine's tables (verified entry by
    entry in tests/test_topology.py), so every existing baseline stays
    bit-identical.
    """

    kind = "flat"

    def __init__(self, num_locales: int) -> None:
        super().__init__(num_locales)
        self.classes = (
            DistanceClass("self", "local"),
            DistanceClass("remote", "remote"),
        )

    def distance(self, src: int, dst: int) -> int:
        return 0 if src == dst else 1

    def build_distance_row(self, dst: int) -> Tuple[int, ...]:
        row = [1] * self.num_locales
        row[dst] = 0
        return tuple(row)


class HierarchicalTopology(Topology):
    """Sockets inside nodes: the paper machine's intra-cabinet shape.

    Locales are laid out in id order: ``locales_per_socket`` consecutive
    locales form a CPU-coherent socket, ``sockets_per_node`` consecutive
    sockets form a node.  Distance ladder:

    ====  ========  ===========  ==========================================
    idx   name      transport    meaning
    ====  ========  ===========  ==========================================
    0     self      local        the issuing locale
    1     socket    coherent     same socket: CPU atomics, no NIC detour
    2     node      nic          same node, different socket: NIC fabric
    3     uplink    am           different node: AM-priced, through the
                                 target node's **shared uplink** point
    ====  ========  ===========  ==========================================

    The uplink class keeps the base network constants (same wire speed,
    just AM-priced and funnelled through one pipe).  The last node may be
    partial when the shape does not divide ``num_locales``.
    """

    kind = "hier"

    def __init__(
        self,
        num_locales: int,
        *,
        sockets_per_node: int = 2,
        locales_per_socket: int = 2,
    ) -> None:
        super().__init__(num_locales)
        for label, v in (
            ("sockets_per_node", sockets_per_node),
            ("locales_per_socket", locales_per_socket),
        ):
            if not isinstance(v, int) or v < 1:
                raise ValueError(
                    f"{label} must be a positive integer, got {v!r}"
                )
        self.sockets_per_node = sockets_per_node
        self.locales_per_socket = locales_per_socket
        self.node_size = sockets_per_node * locales_per_socket
        self.classes = (
            DistanceClass("self", "local"),
            DistanceClass("socket", "coherent"),
            DistanceClass("node", "nic"),
            DistanceClass("uplink", "am", shared_uplink=True),
        )

    def socket_of(self, locale: int) -> int:
        """Socket id of ``locale`` (coherence domain)."""
        return locale // self.locales_per_socket

    def node_of(self, locale: int) -> int:
        """Node id of ``locale`` (uplink group)."""
        return locale // self.node_size

    def distance(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        if src // self.locales_per_socket == dst // self.locales_per_socket:
            return 1
        if src // self.node_size == dst // self.node_size:
            return 2
        return 3

    def build_distance_row(self, dst: int) -> Tuple[int, ...]:
        row = [3] * self.num_locales
        _fill_block(row, dst, self.node_size, 2)
        _fill_block(row, dst, self.locales_per_socket, 1)
        row[dst] = 0
        return tuple(row)

    def uplink_group(self, locale: int) -> int:
        return self.node_of(locale)

    def coherence_domain(self, locale: int) -> int:
        return self.socket_of(locale)

    def spec(self) -> str:
        return f"hier:{self.sockets_per_node}x{self.locales_per_socket}"


class DragonflyTopology(Topology):
    """Electrical groups joined by degraded all-to-all optical links.

    ``group_size`` consecutive locales form a group; intra-group traffic
    rides the normal remote fabric, inter-group traffic pays network costs
    degraded by :data:`GLOBAL_SCALE` and serializes through the target
    group's shared optical uplink — the XC-50's dragonfly in miniature.
    """

    kind = "dragonfly"

    def __init__(self, num_locales: int, *, group_size: int = 4) -> None:
        super().__init__(num_locales)
        if not isinstance(group_size, int) or group_size < 1:
            raise ValueError(
                f"group_size must be a positive integer, got {group_size!r}"
            )
        self.group_size = group_size
        self.classes = (
            DistanceClass("self", "local"),
            DistanceClass("group", "remote"),
            DistanceClass(
                "global", "remote", scale=GLOBAL_SCALE, shared_uplink=True
            ),
        )

    def group_of(self, locale: int) -> int:
        """Dragonfly group id of ``locale`` (uplink group)."""
        return locale // self.group_size

    def distance(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        return 1 if src // self.group_size == dst // self.group_size else 2

    def build_distance_row(self, dst: int) -> Tuple[int, ...]:
        row = [2] * self.num_locales
        _fill_block(row, dst, self.group_size, 1)
        row[dst] = 0
        return tuple(row)

    def uplink_group(self, locale: int) -> int:
        return self.group_of(locale)

    def spec(self) -> str:
        return f"dragonfly:{self.group_size}"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _build_flat(num_locales: int, arg: "str | None") -> FlatTopology:
    if arg is not None:
        raise ValueError(f"topology kind 'flat' takes no shape, got {arg!r}")
    return FlatTopology(num_locales)


def _build_hier(num_locales: int, arg: "str | None") -> HierarchicalTopology:
    if arg is None:
        return HierarchicalTopology(num_locales)
    try:
        sockets, per_socket = (int(part) for part in arg.split("x"))
    except ValueError:
        raise ValueError(
            f"hier shape must be '<sockets_per_node>x<locales_per_socket>'"
            f" (e.g. 'hier:2x2'), got {arg!r}"
        ) from None
    return HierarchicalTopology(
        num_locales, sockets_per_node=sockets, locales_per_socket=per_socket
    )


def _build_dragonfly(num_locales: int, arg: "str | None") -> DragonflyTopology:
    if arg is None:
        return DragonflyTopology(num_locales)
    try:
        group_size = int(arg)
    except ValueError:
        raise ValueError(
            f"dragonfly shape must be '<group_size>' (e.g. 'dragonfly:4'),"
            f" got {arg!r}"
        ) from None
    return DragonflyTopology(num_locales, group_size=group_size)


#: Registered topology kinds, mapping name -> builder(num_locales, shape-arg).
TOPOLOGY_KINDS: Dict[str, Callable[[int, "str | None"], Topology]] = {
    "flat": _build_flat,
    "hier": _build_hier,
    "dragonfly": _build_dragonfly,
}


def topology_names() -> List[str]:
    """The accepted topology kind names, for validation error messages."""
    return sorted(TOPOLOGY_KINDS)


def parse_topology(spec: str, num_locales: int) -> Topology:
    """Build a :class:`Topology` from its spec string: ``"flat"``,
    ``"hier"``, ``"hier:2x2"``, ``"dragonfly"`` or ``"dragonfly:4"``.

    Anything else raises ``ValueError`` naming the accepted form;
    unknown kinds list the valid names.  This is the validation surface
    :class:`~repro.runtime.config.RuntimeConfig` and the scenario specs
    lean on.
    """
    if not isinstance(spec, str):
        raise ValueError(
            f"topology spec must be a string such as 'flat', 'hier:2x2' or"
            f" 'dragonfly:4', got {spec!r}"
        )
    kind, sep, arg = spec.partition(":")
    kind = kind.strip().lower()
    builder = TOPOLOGY_KINDS.get(kind)
    if builder is None:
        raise ValueError(
            f"unknown topology {spec!r}; expected one of {topology_names()}"
            f" (optionally with a shape, e.g. 'hier:2x2', 'dragonfly:4')"
        )
    return builder(num_locales, arg if sep else None)
