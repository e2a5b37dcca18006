"""Adaptive message aggregation across shared uplinks.

Under a multi-level topology (:mod:`repro.comm.topology`) every locale on
a node funnels its off-node traffic through one **shared uplink** service
point, and every cross-node operation pays active-message prices.  The
reclamation subsystem's scan paths — epoch-vote scans, hazard-slot reads,
quiescence announcements, deferred-delete gathers, bulk frees — issue
*many small operations to the same node*: exactly the shape a real PGAS
runtime coalesces into one aggregated message per destination (Chapel's
aggregators, GASNet's AM batching).  This module is that coalescing
layer, made explicit and priced.

Model
-----
An :class:`AggregationSpec` carries one knob, the **window** ``W``: the
maximum number of same-destination-group operations one uplink traversal
may carry.  ``W == 1`` disables aggregation — every call site then runs
the *identical* legacy one-message-per-op path, which is what keeps all
pre-existing scenario baselines bit-identical with aggregation off.

With ``W > 1``, the :class:`UplinkAggregator` groups a call's operation
list by ``(distance class, uplink group)``:

* operations whose distance class declares **no shared uplink** (the
  issuing locale itself, coherent peers, same-node NIC traffic, and every
  class of the flat topology) charge the legacy per-op path unchanged —
  so even with aggregation *enabled*, a flat machine is bit-identical to
  the legacy engine by construction;
* operations behind the same shared uplink are split into batches of at
  most ``W`` and each batch pays **one** uplink traversal: the class's
  full base latency once, plus a marginal
  :attr:`~repro.comm.costs.CostModel.am_batch_item_latency` per extra
  operation, occupying the uplink service point once per batch (base
  service plus a marginal ``am_batch_item_service`` per extra op).  The
  charge runs through the same :class:`~repro.runtime.clock.ServicePoint`
  machinery as every other operation, so idle-banking capacity
  conservation — and with it the engine's determinism invariant — holds
  for aggregated traffic too.

Determinism: batch composition is a pure function of the operation list
and the topology (grouping preserves first-seen order; no runtime state
is consulted), so aggregated costs are bit-identical across repeated runs
and independent of task order under the workload discipline of
:mod:`repro.bench.workloads`.

See docs/AGGREGATION.md for the full model and tuning guidance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from .counters import CommOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import TaskContext
    from ..runtime.runtime import Runtime
    from .network import NetworkModel

__all__ = [
    "AggregationSpec",
    "parse_aggregation",
    "UplinkAggregator",
    "BatchCounters",
]


@dataclass(frozen=True)
class AggregationSpec:
    """The aggregation knob: how many same-uplink ops share one traversal.

    ``window == 1`` (the default) disables aggregation entirely; call
    sites run the legacy one-message-per-op paths.
    """

    window: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.window, int) or isinstance(self.window, bool):
            raise ValueError(
                f"aggregation window must be an integer >= 1, got"
                f" {self.window!r}"
            )
        if self.window < 1:
            raise ValueError(
                f"aggregation window must be >= 1 (1 disables aggregation),"
                f" got {self.window}"
            )

    @property
    def enabled(self) -> bool:
        """True when batching is on (window > 1)."""
        return self.window > 1

    def spec(self) -> int:
        """The canonical (int) spec that re-creates this object."""
        return self.window


def parse_aggregation(spec: "int | str") -> AggregationSpec:
    """Build an :class:`AggregationSpec` from its spec: an integer window
    or its decimal string (``"8"``, what ``--aggregation`` passes).

    Anything else — including ``0``, negatives, booleans, floats and
    ``None`` — raises ``ValueError`` naming the accepted form; this is the
    validation surface :class:`~repro.runtime.config.RuntimeConfig` and
    the scenario specs lean on.
    """
    if isinstance(spec, str):
        try:
            spec = int(spec)
        except ValueError:
            pass  # still a string: rejected below
    if isinstance(spec, bool) or not isinstance(spec, int):
        raise ValueError(
            f"aggregation spec must be an integer window >= 1 (1 disables"
            f" aggregation) or its decimal string, got {spec!r}"
        )
    return AggregationSpec(spec)


class BatchCounters:
    """Mutable tally of aggregated work (fed into reclaimer stats)."""

    __slots__ = ("batches",)

    def __init__(self) -> None:
        #: Aggregated messages issued (one per window-sized batch), each
        #: one shared-uplink traversal.
        self.batches = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BatchCounters(batches={self.batches})"


class UplinkAggregator:
    """Coalesces same-uplink operations into batched traversals.

    One instance per :class:`~repro.comm.network.NetworkModel`, which
    holds it; the aggregator does not hold the network back, and reaches
    it through the calling task's runtime.  Every method takes the legacy
    per-op path for operations that cannot batch (aggregation disabled,
    no shared uplink on the route), so call sites never need their own
    fallback branch.
    """

    def __init__(
        self,
        network: "NetworkModel",
        spec: AggregationSpec,
        policy: "Any | None" = None,
    ) -> None:
        from ..policy import StaticWindowPolicy

        self.spec = spec
        #: The window policy (docs/POLICY.md) owning the live window.
        #: Default: a static policy pinned to the spec's window — the
        #: bit-identical legacy behaviour.
        self.policy = (
            policy if policy is not None else StaticWindowPolicy(spec.window)
        )
        #: True when batching can ever happen on this machine: the window
        #: is open — statically, or openable by a dynamic policy — *and*
        #: the topology has at least one shared uplink.  A flat machine
        #: is never active, whatever the window — the flat-exactness
        #: guarantee.
        self.active = (spec.enabled or self.policy.dynamic) and bool(
            network.uplinks
        )
        self._dynamic = self.policy.dynamic and self.active

    @property
    def window(self) -> int:
        """The live aggregation window (the policy's current value)."""
        return self.policy.current

    def policy_tick(self) -> None:
        """Fold batch observations into the window (root-driven points).

        Called by the reclamation managers at the end of their sequential
        ``try_reclaim`` / ``clear`` paths — never from concurrent tasks —
        so window movement is deterministic (docs/POLICY.md).
        """
        if self._dynamic:
            self.policy.tick()

    # ------------------------------------------------------------------
    # grouping
    # ------------------------------------------------------------------
    @staticmethod
    def _classify(
        net: "NetworkModel", src: int, home: int
    ) -> Tuple[int, "int | None"]:
        """(distance class, uplink group or None) of ``src`` -> ``home``."""
        dclass = net.distance_row(home)[src]
        if net.topology.classes[dclass].shared_uplink:
            return dclass, net.topology.uplink_group(home)
        return dclass, None

    def _batches(
        self, items: Sequence[Tuple[Tuple[int, int], Any]]
    ) -> Iterable[Tuple[int, int, List[Any]]]:
        """Split ``((dclass, group), payload)`` items into window batches.

        Grouping preserves first-seen order of (class, group) keys and
        in-group payload order, so batch composition is a pure function
        of the input sequence — the determinism requirement.
        """
        grouped: Dict[Tuple[int, int], List[Any]] = {}
        order: List[Tuple[int, int]] = []
        for key, payload in items:
            bucket = grouped.get(key)
            if bucket is None:
                bucket = grouped[key] = []
                order.append(key)
            bucket.append(payload)
        window = self.window
        for key in order:
            bucket = grouped[key]
            for i in range(0, len(bucket), window):
                yield key[0], key[1], bucket[i : i + window]

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def _charge_batch(
        self,
        net: "NetworkModel",
        ctx: "TaskContext",
        dclass: int,
        group: int,
        count: int,
        base_latency: float,
        base_service: float,
        counters: "BatchCounters | None",
    ) -> None:
        """One uplink traversal carrying ``count`` coalesced operations."""
        cc = net._class_costs[dclass]
        extra = count - 1
        latency = base_latency + extra * cc.am_batch_item_latency
        service = base_service + extra * cc.am_batch_item_service
        point = net.uplinks[group]
        t = ctx.now + latency
        finish = point.serve_locked(t, service)
        if finish > ctx.now:
            ctx.now = finish
        if self._dynamic:
            # Feed the window policy its virtual-time facts: occupancy
            # against the live window and the uplink queueing delay this
            # batch experienced (``finish - service - t``; zero when the
            # point was idle or the service fit a banked gap).  The fold
            # is commutative-exact, so concurrent observers are safe.
            self.policy.observe(
                count=count,
                window=self.policy.current,
                queue_delay=finish - service - t,
                marginal=extra * cc.am_batch_item_latency,
            )
        if counters is not None:
            counters.batches += 1
        tr = net._tracer
        if tr is not None:
            tr.batch(finish, dclass, group, count, finish - service - t)

    # ------------------------------------------------------------------
    # batched operation flavours
    # ------------------------------------------------------------------
    def read_cells(
        self,
        ctx: "TaskContext",
        cells: Sequence[Any],
        counters: "BatchCounters | None" = None,
    ) -> List[Any]:
        """Atomically read many cells, coalescing same-uplink reads.

        Returns the observed values in input order.  Cells reachable
        without a shared uplink are read through their own charged
        ``read()`` (the legacy path); cells behind an uplink are read in
        window-sized batches — one AM traversal per batch, values taken
        with the cost-free ``peek()`` the batch's remote handler models.
        """
        if not self.active:
            return [cell.read() for cell in cells]
        net = ctx.runtime.network
        src = ctx.locale_id
        values: List[Any] = [None] * len(cells)
        batchable: List[Tuple[Tuple[int, int], int]] = []
        for i, cell in enumerate(cells):
            dclass, group = self._classify(net, src, cell.home)
            if group is None:
                values[i] = cell.read()
            else:
                batchable.append(((dclass, group), i))
        for dclass, group, batch in self._batches(batchable):
            cc = net._class_costs[dclass]
            net.diags.record(src, CommOp.AM)
            self._charge_batch(
                net,
                ctx,
                dclass,
                group,
                len(batch),
                2.0 * cc.am_latency,
                cc.am_service,
                counters,
            )
            for i in batch:
                values[i] = cells[i].peek()
        return values

    def write_cells(
        self,
        ctx: "TaskContext",
        writes: Sequence[Tuple[Any, Any]],
        counters: "BatchCounters | None" = None,
    ) -> None:
        """Atomically store to many cells, coalescing same-uplink stores.

        ``writes`` is a sequence of ``(cell, value)`` pairs.  The batched
        carrier is the same AM round trip as :meth:`read_cells` (a remote
        store through the AM route is a round trip — the ack is what
        orders it); values land via the cost-free ``poke``.
        """
        if not self.active:
            for cell, value in writes:
                cell.write(value)
            return
        net = ctx.runtime.network
        src = ctx.locale_id
        batchable: List[Tuple[Tuple[int, int], int]] = []
        for i, (cell, value) in enumerate(writes):
            dclass, group = self._classify(net, src, cell.home)
            if group is None:
                cell.write(value)
            else:
                batchable.append(((dclass, group), i))
        for dclass, group, batch in self._batches(batchable):
            cc = net._class_costs[dclass]
            net.diags.record(src, CommOp.AM)
            self._charge_batch(
                net,
                ctx,
                dclass,
                group,
                len(batch),
                2.0 * cc.am_latency,
                cc.am_service,
                counters,
            )
            for i in batch:
                cell, value = writes[i]
                cell.poke(value)

    def bulk_gather(
        self,
        ctx: "TaskContext",
        transfers: Sequence[Tuple[int, int]],
        counters: "BatchCounters | None" = None,
    ) -> None:
        """Bulk GETs of ``(source locale, nbytes)``, coalescing sources.

        Sources behind the same uplink share a traversal per batch: the
        payloads ride one transfer (base RDMA latency once, summed bytes,
        marginal per extra source), occupying the uplink point once.
        Everything else charges :meth:`NetworkModel.bulk` per source.
        """
        net = ctx.runtime.network
        if not self.active:
            for src_locale, nbytes in transfers:
                net.bulk(ctx, src_locale, nbytes)
            return
        src = ctx.locale_id
        batchable: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
        for src_locale, nbytes in transfers:
            dclass, group = self._classify(net, src, src_locale)
            if group is None:
                net.bulk(ctx, src_locale, nbytes)
            else:
                batchable.append(((dclass, group), (src_locale, nbytes)))
        for dclass, group, batch in self._batches(batchable):
            cc = net._class_costs[dclass]
            total_bytes = sum(nbytes for _lid, nbytes in batch)
            net.diags.record_bulk(src, total_bytes)
            self._charge_batch(
                net,
                ctx,
                dclass,
                group,
                len(batch),
                cc.rdma_small_latency + total_bytes * cc.rdma_byte_cost,
                cc.rdma_service,
                counters,
            )

    def free_grouped(
        self,
        rt: "Runtime",
        ctx: "TaskContext",
        by_locale: Mapping[int, Sequence[int]],
        counters: "BatchCounters | None" = None,
    ) -> int:
        """Bulk-free per-locale offset lists, coalescing the free RPCs.

        The legacy shape is one :meth:`Runtime.free_bulk` (one RPC when
        non-coherent, plus amortized per-object frees) per owning locale,
        in sorted-locale order.  With aggregation, locales behind the same
        uplink share the RPC crossing per window batch; the per-locale
        amortized free cost is unchanged.  Returns objects freed.
        """
        freed = 0
        if not self.active:
            for lid in sorted(by_locale):
                freed += rt.free_bulk(lid, by_locale[lid])
            return freed
        src = ctx.locale_id
        batchable: List[Tuple[Tuple[int, int], int]] = []
        net = rt.network
        for lid in sorted(by_locale):
            dclass, group = self._classify(net, src, lid)
            if group is None:
                freed += rt.free_bulk(lid, by_locale[lid])
            else:
                batchable.append(((dclass, group), lid))
        for dclass, group, batch in self._batches(batchable):
            cc = net._class_costs[dclass]
            net.diags.record(src, CommOp.AM)
            self._charge_batch(
                net,
                ctx,
                dclass,
                group,
                len(batch),
                2.0 * cc.am_latency,
                cc.am_service,
                counters,
            )
            for lid in batch:
                freed += rt.free_bulk(lid, by_locale[lid], rpc=False)
        return freed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"UplinkAggregator(window={self.window}, active={self.active})"
        )
