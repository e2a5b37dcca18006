"""Tests for the multi-level topology model (repro.comm.topology).

Covers the distance-class ladder of each built-in topology, spec parsing
and its error surface, the per-class cost resolution
(``resolve_cost_model``, ``network_scaled``), the
flat-table precompilation exactness guarantee (per-class compile ≡ legacy
branchy compile, entry by entry), the runtime-level cost ordering
(coherent < NIC < uplink), shared-uplink contention, locality-aware
privatization helpers, and the scenario-layer threading
(``TopologySpec.topology``, baseline incomparability, churn pairing).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.comm.costs import (
    DEFAULT_COSTS,
    DEGRADED_COSTS,
    NETWORK_FIELDS,
    resolve_cost_model,
)
from repro.comm.routes import atomic_route_index
from repro.comm.topology import (
    DistanceClass,
    DragonflyTopology,
    FlatTopology,
    HierarchicalTopology,
    Topology,
    parse_topology,
    topology_names,
)
from repro.bench.scenarios import TopologySpec
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import Runtime


# ---------------------------------------------------------------------------
# Distance ladders
# ---------------------------------------------------------------------------


class TestDistanceLadders:
    def test_flat_is_two_classes(self):
        topo = FlatTopology(8)
        assert [c.name for c in topo.classes] == ["self", "remote"]
        assert topo.distance(3, 3) == 0
        assert topo.distance(3, 4) == 1
        assert topo.distance(0, 7) == 1

    def test_hier_ladder(self):
        # 2 sockets/node x 2 locales/socket: nodes {0..3}, {4..7};
        # sockets {0,1}, {2,3}, {4,5}, {6,7}.
        topo = HierarchicalTopology(
            8, sockets_per_node=2, locales_per_socket=2
        )
        assert [c.name for c in topo.classes] == ["self", "socket", "node", "uplink"]
        assert topo.distance(0, 0) == 0
        assert topo.distance(0, 1) == 1  # same socket
        assert topo.distance(0, 2) == 2  # same node, other socket
        assert topo.distance(0, 3) == 2
        assert topo.distance(0, 4) == 3  # other node
        assert topo.distance(7, 6) == 1
        assert topo.distance(7, 0) == 3

    def test_hier_grouping_helpers(self):
        topo = HierarchicalTopology(
            8, sockets_per_node=2, locales_per_socket=2
        )
        assert [topo.socket_of(lid) for lid in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert [topo.node_of(lid) for lid in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert topo.uplink_group(5) == 1
        assert topo.coherence_domain(5) == 2

    def test_dragonfly_ladder(self):
        topo = DragonflyTopology(8, group_size=4)
        assert [c.name for c in topo.classes] == ["self", "group", "global"]
        assert topo.distance(0, 0) == 0
        assert topo.distance(0, 3) == 1
        assert topo.distance(0, 4) == 2
        assert topo.uplink_group(6) == 1

    @pytest.mark.parametrize("nloc", range(1, 18))
    @pytest.mark.parametrize(
        "spec", ["flat", "hier", "hier:3x2", "hier:1x3", "dragonfly", "dragonfly:3"]
    )
    def test_distance_row_matches_distance_and_is_cached(self, spec, nloc):
        # The built-ins build rows in closed form; every row must equal the
        # per-pair definition, including partial last nodes and groups.
        # The runtime's network model caches each row once.
        from repro.comm.network import NetworkModel

        topo = parse_topology(spec, nloc)
        net = NetworkModel(RuntimeConfig(num_locales=nloc, topology=spec))
        for dst in range(nloc):
            expected = tuple(topo.distance(src, dst) for src in range(nloc))
            assert topo.build_distance_row(dst) == expected
            row = net.distance_row(dst)
            assert row == expected
            assert net.distance_row(dst) is row

    def test_distance_is_symmetric_for_builtins(self):
        for topo in (
            FlatTopology(8),
            HierarchicalTopology(8),
            DragonflyTopology(8, group_size=3),
        ):
            for a in range(8):
                for b in range(8):
                    assert topo.distance(a, b) == topo.distance(b, a)

    def test_class_zero_is_local(self):
        for topo in (FlatTopology(4), HierarchicalTopology(4), DragonflyTopology(4)):
            assert topo.classes[0].transport == "local"

    def test_distance_class_validation(self):
        with pytest.raises(ValueError, match="transport"):
            DistanceClass("x", "warp")
        with pytest.raises(ValueError, match="scale"):
            DistanceClass("x", "am", scale=0)
        with pytest.raises(ValueError, match="scale"):
            DistanceClass("x", "am", scale=True)


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


class TestParseTopology:
    def test_strings(self):
        assert isinstance(parse_topology("flat", 4), FlatTopology)
        hier = parse_topology("hier:4x2", 16)
        assert isinstance(hier, HierarchicalTopology)
        assert hier.sockets_per_node == 4
        assert hier.locales_per_socket == 2
        dfly = parse_topology("dragonfly:8", 16)
        assert isinstance(dfly, DragonflyTopology)
        assert dfly.group_size == 8

    def test_defaults_without_shape(self):
        assert parse_topology("hier", 8).spec() == "hier:2x2"
        assert parse_topology("dragonfly", 8).spec() == "dragonfly:4"

    def test_spec_round_trips(self):
        for spec in ("flat", "hier:2x2", "hier:1x4", "dragonfly:2"):
            topo = parse_topology(spec, 8)
            again = parse_topology(topo.spec(), 8)
            assert type(again) is type(topo)
            assert again.spec() == topo.spec()

    def test_unknown_kind_lists_valid_names(self):
        with pytest.raises(ValueError) as exc:
            parse_topology("torus", 8)
        for name in topology_names():
            assert name in str(exc.value)

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            parse_topology("hier:2", 8)
        with pytest.raises(ValueError):
            parse_topology("hier:axb", 8)
        with pytest.raises(ValueError):
            parse_topology("hier:0x2", 8)
        with pytest.raises(ValueError):
            parse_topology("dragonfly:many", 8)
        with pytest.raises(ValueError):
            parse_topology("flat:4", 8)

    def test_non_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_topology(42, 8)

    def test_runtime_config_threading(self):
        cfg = RuntimeConfig(num_locales=8, topology="hier:2x2")
        assert cfg.resolved_topology().spec() == "hier:2x2"
        # replace() re-resolves
        cfg2 = replace(cfg, topology="dragonfly:4")
        assert cfg2.resolved_topology().spec() == "dragonfly:4"
        with pytest.raises(ValueError):
            RuntimeConfig(num_locales=8, topology="nope")

    def test_topology_spec_learns_shape(self):
        cfg = TopologySpec(locales=8, topology="hier:2x2").runtime_config()
        topo = cfg.resolved_topology()
        assert isinstance(topo, HierarchicalTopology)
        assert topo.node_size == 4


# ---------------------------------------------------------------------------
# Cost layer edges (satellite: resolve_cost_model / scaled immutability)
# ---------------------------------------------------------------------------


class TestCostLayerEdges:
    def test_unknown_profile_lists_choices(self):
        with pytest.raises(ValueError) as exc:
            resolve_cost_model("turbo")
        assert "default" in str(exc.value)

    def test_bad_overrides_list_fields(self):
        with pytest.raises(ValueError) as exc:
            resolve_cost_model("default", overrides={"warp_latency": 1.0})
        assert "warp_latency" in str(exc.value)

    @pytest.mark.parametrize("scale", [0, -1.0, "2", True])
    def test_non_positive_scale_rejected(self, scale):
        with pytest.raises(ValueError):
            resolve_cost_model("default", scale=scale)

    def test_scaled_returns_new_frozen_instance(self):
        before = DEFAULT_COSTS.am_latency
        scaled = DEFAULT_COSTS.scaled(2.0)
        assert scaled is not DEFAULT_COSTS
        assert DEFAULT_COSTS.am_latency == before  # source untouched
        assert scaled.am_latency == 2 * before
        with pytest.raises(Exception):
            scaled.am_latency = 0.0  # type: ignore[misc]

    def test_network_scaled_touches_only_network_fields(self):
        scaled = DEFAULT_COSTS.network_scaled(3.0)
        for name in NETWORK_FIELDS:
            assert getattr(scaled, name) == 3.0 * getattr(DEFAULT_COSTS, name)
        for name in ("cpu_atomic_latency", "cpu_dcas_latency", "alloc_latency",
                     "free_latency", "task_spawn_local", "cpu_load_latency"):
            assert getattr(scaled, name) == getattr(DEFAULT_COSTS, name)

    def test_network_scaled_identity_returns_self(self):
        # Flat-topology routes are compiled from the very same object —
        # the bit-identity guarantee leans on this.
        assert DEFAULT_COSTS.network_scaled(1.0) is DEFAULT_COSTS

    def test_degraded_profile_is_network_scaled_8x(self):
        assert DEGRADED_COSTS == DEFAULT_COSTS.network_scaled(8.0)


# ---------------------------------------------------------------------------
# Route precompilation exactness (satellite: flat ≡ legacy, entry by entry)
# ---------------------------------------------------------------------------


def _route_facts(route):
    return (
        route.diag_index,
        route.latency,
        route.point.name if route.point is not None else None,
        route.point_service,
        route.line_service,
    )


class TestFlatTableExactness:
    @pytest.mark.parametrize("network", ["ugni", "none"])
    def test_flat_class_compile_equals_legacy_compile(self, network):
        # Flat class rows (narrow-plain, narrow-opt-out, wide) with class
        # 0 = local and class 1 = remote are the legacy 8-entry cube; the
        # cube's wide entries ignore opt_out, so both match the wide row.
        rt = Runtime(num_locales=4, network=network)
        try:
            for home in range(4):
                rows = rt.network.atomic_class_routes(home)
                legacy = rt.network._compile_legacy_atomic_table(home)
                assert len(legacy) == 8
                for wide in (False, True):
                    for opt_out in (False, True):
                        row = rows[2 if wide else int(opt_out)]
                        assert len(row) == 2
                        for local, got in ((True, row[0]), (False, row[1])):
                            idx = atomic_route_index(wide, opt_out, local)
                            assert _route_facts(got) == _route_facts(
                                legacy[idx]
                            ), f"home={home} entry={idx}"
        finally:
            rt.close()

    def test_flat_table_cached_per_home(self):
        rt = Runtime(num_locales=2)
        try:
            t0 = rt.network.atomic_class_routes(0)
            assert rt.network.atomic_class_routes(0) is t0
            assert rt.network.atomic_class_routes(1) is not t0
        finally:
            rt.close()

    def test_class_rows_shape(self):
        rt = Runtime(config=RuntimeConfig(num_locales=8, topology="hier:2x2"))
        try:
            rows = rt.network.atomic_class_routes(0)
            assert len(rows) == 3  # narrow-plain, narrow-opt-out, wide
            assert all(len(row) == 4 for row in rows)  # one per class
        finally:
            rt.close()


# ---------------------------------------------------------------------------
# Runtime-level behaviour
# ---------------------------------------------------------------------------


def _atomic_cost_from(rt: Runtime, src: int, home: int) -> float:
    """Virtual cost of one narrow atomic against ``home`` issued at ``src``."""
    cost = {}

    def main():
        cell = rt.atomic_int(0, locale=home)
        with rt.on(src):
            task = rt._own_context()
            before = task.now
            cell.add(1)
            cost["v"] = task.now - before

    rt.run(main)
    return cost["v"]


class TestTopologyPricing:
    def test_hier_cost_ladder(self):
        """coherent << nic-local <= node < uplink — the distance ladder."""
        rt = Runtime(config=RuntimeConfig(num_locales=8, topology="hier:2x2"))
        try:
            coherent = _atomic_cost_from(rt, 1, 0)
            local = _atomic_cost_from(rt, 0, 0)
            node = _atomic_cost_from(rt, 2, 0)
            uplink = _atomic_cost_from(rt, 4, 0)
            assert coherent < local < node < uplink
        finally:
            rt.close()

    def test_dragonfly_intergroup_degradation(self):
        rt = Runtime(config=RuntimeConfig(num_locales=8, topology="dragonfly:4"))
        try:
            intra = _atomic_cost_from(rt, 1, 0)
            inter = _atomic_cost_from(rt, 4, 0)
            assert inter > 2 * intra  # global_scale=4 on network terms
        finally:
            rt.close()

    def test_flat_explicit_matches_default(self):
        """topology='flat' is exactly the legacy (default) machine."""
        import repro.bench.workloads as wl

        r_default = wl.run_atomic_mix(
            Runtime(num_locales=4), cell="atomic_int", ops_per_task=128
        )
        r_flat = wl.run_atomic_mix(
            Runtime(config=RuntimeConfig(num_locales=4, topology="flat",
                                         tasks_per_locale=2)),
            cell="atomic_int",
            ops_per_task=128,
        )
        assert r_default.elapsed == r_flat.elapsed
        assert r_default.comm == r_flat.comm

    def test_coherent_data_ops_are_local_priced(self):
        rt = Runtime(config=RuntimeConfig(num_locales=8, topology="hier:2x2"))
        try:
            def main():
                obj = rt.new_obj("payload", locale=1)
                rt.network.diags.reset()
                task = rt._own_context()
                before = task.now
                rt.deref(obj)  # locale 0 reading locale 1: same socket
                same_socket = task.now - before
                totals_mid = rt.comm_totals()
                before = task.now
                obj2 = rt.new_obj("payload", locale=4)
                rt.deref(obj2)  # cross-node
                cross = task.now - before
                return same_socket, cross, totals_mid

            same_socket, cross, mid = rt.run(main)
            # Same-socket GET is a local load: no GET counter, tiny cost.
            assert mid["get"] == 0
            assert cross > 10 * same_socket
        finally:
            rt.close()

    def test_coherent_fork_is_cheap_and_message_free(self):
        rt = Runtime(config=RuntimeConfig(num_locales=8, topology="hier:2x2"))
        try:
            def main():
                task = rt._own_context()
                before = task.now
                with rt.on(1):
                    pass
                socket_trip = task.now - before
                before = task.now
                with rt.on(4):
                    pass
                uplink_trip = task.now - before
                return socket_trip, uplink_trip, rt.comm_totals()

            socket_trip, uplink_trip, totals = rt.run(main)
            # Only the cross-node hop sends messages; the same-socket hop
            # is a shared-memory spawn (consistent with every other
            # coherent-class charge recording nothing).
            assert totals["fork"] == 1
            assert totals["am"] == 1
            assert uplink_trip > 5 * socket_trip
        finally:
            rt.close()

    def test_uplink_is_shared_across_node(self):
        """Cross-node traffic to two different locales on one node shares
        one uplink service point; on flat they'd be independent NICs."""
        rt = Runtime(config=RuntimeConfig(num_locales=8, topology="hier:2x2"))
        try:
            assert rt.network.uplinks  # materialized
            p4 = rt.network.atomic_class_routes(4)[0][3].point
            p5 = rt.network.atomic_class_routes(5)[0][3].point
            p0 = rt.network.atomic_class_routes(0)[0][3].point
            assert p4 is p5          # same node => same uplink
            assert p4 is not p0      # different node => different uplink
        finally:
            rt.close()

    def test_flat_has_no_uplinks(self):
        rt = Runtime(num_locales=4)
        try:
            assert rt.network.uplinks == {}
        finally:
            rt.close()


# ---------------------------------------------------------------------------
# Locality-aware privatization
# ---------------------------------------------------------------------------


class TestCoherentPrivatization:
    def test_coherence_domains(self):
        from repro.core.privatization import coherence_domains

        flat = Runtime(num_locales=4)
        hier = Runtime(config=RuntimeConfig(num_locales=8, topology="hier:2x2"))
        try:
            assert coherence_domains(flat) == [0, 1, 2, 3]
            assert coherence_domains(hier) == [0, 0, 1, 1, 2, 2, 3, 3]
        finally:
            flat.close()
            hier.close()

    def test_replicate_coherent_shares_per_socket(self):
        from repro.core.privatization import replicate_coherent

        rt = Runtime(config=RuntimeConfig(num_locales=8, topology="hier:2x2"))
        try:
            built = []

            def factory(lid):
                built.append(lid)
                return {"home": lid}

            instances = replicate_coherent(rt, factory)
            assert len(instances) == 8
            assert built == [0, 2, 4, 6]  # first locale of each socket
            assert instances[0] is instances[1]
            assert instances[1] is not instances[2]
        finally:
            rt.close()

    def test_replicate_coherent_plugs_into_privatization(self):
        from repro.core.privatization import PrivatizedObject, replicate_coherent

        rt = Runtime(config=RuntimeConfig(num_locales=8, topology="hier:2x2"))
        try:
            class Thing(PrivatizedObject):
                def __init__(self, runtime):
                    super().__init__(
                        runtime, replicate_coherent(runtime, lambda lid: [lid])
                    )

            def main():
                thing = Thing(rt)
                assert thing.get_privatized_instance(0) is thing.get_privatized_instance(1)
                assert thing.get_privatized_instance(2) is not thing.get_privatized_instance(1)

            rt.run(main)
        finally:
            rt.close()


# ---------------------------------------------------------------------------
# Scenario / workload threading
# ---------------------------------------------------------------------------


class TestScenarioThreading:
    def test_topology_spec_field_validated(self):
        from repro.bench.scenarios import ScenarioError, TopologySpec

        spec = TopologySpec(locales=8, topology="hier")
        assert spec.topology == "hier:2x2"  # normalized to canonical form
        assert spec.as_dict()["topology"] == "hier:2x2"
        with pytest.raises(ScenarioError) as exc:
            TopologySpec(locales=8, topology="torus")
        assert "dragonfly" in str(exc.value)
        with pytest.raises(ScenarioError):
            TopologySpec(locales=8, topology=42)

    def test_baseline_incomparable_on_machine_axes(self):
        from repro.bench import scenarios as sc

        spec = sc.get_scenario("queue-churn").with_measure(ops_scale=0.125)
        run = sc.run_scenario(spec)
        base = sc.baseline_entry(run)
        assert base["topology"] == "flat"
        assert base["cost_profile"] == "default"
        assert base["cost_scale"] == 1.0
        baselines = {spec.name: base}
        # identical spec: match
        status = sc._baseline_status(run, baselines)
        assert status["status"] == "match"
        # each machine axis flips the verdict to incomparable
        for axis, value in (
            ("topology", "hier:2x2"),
            ("cost_profile", "degraded"),
            ("cost_scale", 2.0),
            ("reclaimer", "hp"),
        ):
            other = sc.run_scenario(
                spec.with_topology(**{axis: value})
            )
            status = sc._baseline_status(other, baselines)
            assert status["status"] == "incomparable", axis
            assert axis in status["reason"]

    def test_churn_pairing_validation_and_locality(self):
        from repro.bench.workloads import _churn_partners, run_producer_consumer

        rt = Runtime(config=RuntimeConfig(num_locales=8, topology="hier:2x2",
                                          tasks_per_locale=1))
        try:
            ring = _churn_partners(rt, 8, "ring")
            near = _churn_partners(rt, 8, "near")
            far = _churn_partners(rt, 8, "far")
            # every pairing is a bijection (single mutator per structure)
            for p in (ring, near, far):
                assert sorted(p) == list(range(8))
            assert ring == [1, 2, 3, 4, 5, 6, 7, 0]
            assert near == [1, 0, 3, 2, 5, 4, 7, 6]
            topo = rt.network.topology
            # near pairs are coherent; far pairs all cross nodes
            assert all(topo.distance(i, near[i]) == 1 for i in range(8))
            assert all(topo.distance(i, far[i]) == 3 for i in range(8))
            with pytest.raises(ValueError, match="pairing"):
                run_producer_consumer(rt, items_per_task=1, pairing="bogus")
        finally:
            rt.close()

    def test_far_pairing_on_flat_reduces_to_ring(self):
        from repro.bench.workloads import _churn_partners

        rt = Runtime(num_locales=4)
        try:
            assert _churn_partners(rt, 4, "far") == _churn_partners(rt, 4, "ring")
        finally:
            rt.close()

    def test_near_pairing_adapts_to_shapes_without_siblings(self):
        """hier:2x1 has no coherent socket siblings; 'near' must still
        pick the closest available rung (same node), not pretend."""
        from repro.bench.workloads import _churn_partners

        rt = Runtime(config=RuntimeConfig(num_locales=8, topology="hier:2x1"))
        try:
            near = _churn_partners(rt, 8, "near")
            topo = rt.network.topology
            assert sorted(near) == list(range(8))
            # node size is 2, so the best possible pairing stays
            # same-node (class 2 — there is no coherent class occupied).
            assert all(topo.distance(i, near[i]) == 2 for i in range(8))
        finally:
            rt.close()

    def test_coforall_spawn_is_distance_aware(self):
        """A coforall spanning dragonfly groups pays the degraded spawn
        tree; coherent hier siblings are not counted as forks."""
        flat = Runtime(config=RuntimeConfig(num_locales=8, tasks_per_locale=1))
        dfly = Runtime(config=RuntimeConfig(num_locales=8, topology="dragonfly:4",
                                            tasks_per_locale=1))
        hier = Runtime(config=RuntimeConfig(num_locales=8, topology="hier:2x2",
                                            tasks_per_locale=1))
        try:
            def elapsed(rt):
                def main():
                    with rt.timed() as t:
                        rt.coforall_locales(lambda lid: None)
                    return t.elapsed, rt.comm_totals()["fork"]
                return rt.run(main)

            t_flat, forks_flat = elapsed(flat)
            t_dfly, forks_dfly = elapsed(dfly)
            t_hier, forks_hier = elapsed(hier)
            assert t_dfly > t_flat  # 4x-scaled spawn tree across groups
            assert forks_flat == 7
            assert forks_dfly == 7
            assert forks_hier == 6  # locale 1 is a coherent sibling
        finally:
            flat.close()
            dfly.close()
            hier.close()

    def test_coherent_only_spawn_tree_is_local_priced(self):
        """A coforall that never leaves the coherence domain spawns over
        shared memory: no forks counted, task_spawn_local per hop —
        consistent with remote_fork for the same peers."""
        flat = Runtime(config=RuntimeConfig(num_locales=4, tasks_per_locale=1))
        onenode = Runtime(config=RuntimeConfig(num_locales=4, topology="hier:1x4",
                                               tasks_per_locale=1))
        try:
            def elapsed(rt):
                def main():
                    with rt.timed() as t:
                        rt.coforall_locales(lambda lid: None)
                    return t.elapsed, rt.comm_totals()["fork"]
                return rt.run(main)

            t_flat, forks_flat = elapsed(flat)
            t_one, forks_one = elapsed(onenode)
            assert forks_flat == 3 and forks_one == 0
            assert t_one < t_flat  # local spawns beat the remote tree
        finally:
            flat.close()
            onenode.close()

    def test_rackaffine_beats_crossnode(self):
        """The headline locality effect: draining a socket sibling is much
        cheaper than draining across the node uplinks."""
        from repro.bench import scenarios as sc

        near = sc.run_scenario(
            sc.get_scenario("topo-hier-rackaffine").with_measure(ops_scale=0.125)
        )
        far = sc.run_scenario(
            sc.get_scenario("topo-hier-crossnode").with_measure(ops_scale=0.125)
        )
        assert near.result.elapsed * 3 < far.result.elapsed

    def test_topology_scenarios_deterministic_across_pools(self):
        """One representative new scenario, bit-identical across pool sizes
        (the full set is verified by the baseline regression in CI)."""
        from repro.bench import scenarios as sc

        spec = sc.get_scenario("topo-hier-reclaim-hp").with_measure(ops_scale=0.25)
        ref = None
        for pool in (1, 2, 4):
            run = sc.run_scenario(spec.with_topology(worker_pool_size=pool))
            key = (run.result.elapsed, run.result.operations, run.result.comm)
            if ref is None:
                ref = key
            else:
                assert key == ref, f"pool={pool}"

    def test_toml_spec_with_topology(self):
        from repro.bench.scenarios import ScenarioSpec

        pytest.importorskip("tomllib")
        spec = ScenarioSpec.from_toml(
            """
            [scenario]
            name = "t"

            [topology]
            locales = 8
            topology = "dragonfly:4"

            [workload]
            kind = "atomic_hotspot"
            """
        )
        assert spec.topology.topology == "dragonfly:4"
        assert isinstance(
            spec.topology.runtime_config().resolved_topology(), DragonflyTopology
        )

    def test_registered_topology_scenarios_exist(self):
        from repro.bench.scenarios import scenario_names

        names = scenario_names()
        for expected in (
            "topo-hier-hotspot",
            "topo-hier-rackaffine",
            "topo-hier-crossnode",
            "topo-dragonfly-churn",
            "topo-dragonfly-hotspot",
            "topo-hier-reclaim-ebr",
            "topo-hier-reclaim-hp",
        ):
            assert expected in names


class TestTopologyBase:
    def test_base_distance_abstract(self):
        topo = Topology(4)
        with pytest.raises(NotImplementedError):
            topo.distance(0, 1)

    def test_bad_locale_count(self):
        with pytest.raises(ValueError):
            FlatTopology(0)
        with pytest.raises(ValueError):
            HierarchicalTopology(-1)
