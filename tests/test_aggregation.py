"""Uplink message aggregation (repro.comm.aggregation; docs/AGGREGATION.md).

Covers the ISSUE 5 checklist:

* window validation errors (spec parsing, RuntimeConfig, TopologySpec);
* flat-topology exactness — the batched path is bit-identical to the
  legacy per-op path on flat machines (and with the window closed,
  everywhere), verified against the shipped scenario baselines;
* domain-ordered scan equivalence — same frees, fewer uplink crossings,
  lower virtual time under hierarchy;
* determinism of aggregated runs across repeats and worker-pool sizes
  {1, 2, 4, 8};
* socket-shared limbo accounting exactness (one EpochManager instance
  per coherence domain);
* ragged shapes — partial-node uplink grouping (hier:2x3 over 8
  locales) on the aggregated path;
* the scenario/CLI surface (baseline comparability axis, --filter,
  --aggregation x --update-baselines exclusion).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import scenarios
from repro.bench.__main__ import scenario_main
from repro.bench.workloads import run_epoch_mixed
from repro.comm.aggregation import AggregationSpec, parse_aggregation
from repro.core.epoch_manager import EpochManager
from repro.errors import TokenStateError
from repro.reclaim import make_reclaimer
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import Runtime

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "scenario_baselines.json"


def _hier_runtime(window: int, *, topology: str = "hier:2x2", **kw) -> Runtime:
    return Runtime(
        config=RuntimeConfig.from_topology(
            locales=8, topology=topology, aggregation=window, **kw
        )
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class TestSpecValidation:
    def test_parse_accepted_forms(self):
        assert parse_aggregation(None).window == 1
        assert parse_aggregation("off").window == 1
        assert parse_aggregation(1).window == 1
        assert parse_aggregation(8).window == 8
        assert parse_aggregation("8").window == 8
        assert parse_aggregation({"window": 4}).window == 4
        spec = AggregationSpec(4)
        assert parse_aggregation(spec) is spec
        assert not AggregationSpec(1).enabled
        assert AggregationSpec(2).enabled

    @pytest.mark.parametrize(
        "bad", [0, -3, True, False, 1.5, "nope", "1.5", {"win": 3}, {}, [4]]
    )
    def test_parse_rejections(self, bad):
        with pytest.raises(ValueError):
            parse_aggregation(bad)

    def test_mapping_rejects_extra_keys(self):
        with pytest.raises(ValueError, match="unknown aggregation key"):
            parse_aggregation({"window": 4, "flush": "eager"})

    def test_runtime_config_validates_eagerly(self):
        with pytest.raises(ValueError, match="aggregation window"):
            RuntimeConfig(num_locales=4, aggregation=0)
        cfg = RuntimeConfig(num_locales=4, aggregation="8")
        assert cfg.resolved_aggregation().window == 8

    def test_from_topology_threads_the_window(self):
        cfg = RuntimeConfig.from_topology(
            locales=8, topology="hier:2x2", aggregation=4
        )
        rt = Runtime(config=cfg)
        try:
            assert rt.aggregation.window == 4
            assert rt.network.aggregator.active
        finally:
            rt.close()

    def test_flat_machine_is_never_active(self):
        rt = Runtime(config=RuntimeConfig(num_locales=4, aggregation=16))
        try:
            assert rt.aggregation.window == 16
            # No shared uplinks anywhere on a flat machine: the
            # aggregator is inert by construction.
            assert not rt.network.aggregator.active
        finally:
            rt.close()

    def test_topology_spec_normalizes_and_rejects(self):
        spec = scenarios.TopologySpec(aggregation="off")
        assert spec.aggregation == 1
        spec = scenarios.TopologySpec(aggregation="8")
        assert spec.aggregation == 8
        assert spec.as_dict()["aggregation"] == 8
        assert "aggregation" not in scenarios.TopologySpec().as_dict()
        with pytest.raises(scenarios.ScenarioError, match="topology.aggregation"):
            scenarios.TopologySpec(aggregation=0)
        with pytest.raises(scenarios.ScenarioError, match="topology.aggregation"):
            scenarios.TopologySpec(aggregation="wide")


# ---------------------------------------------------------------------------
# flat-topology exactness
# ---------------------------------------------------------------------------


class TestFlatExactness:
    #: Flat-machine scenarios spanning all four schemes and both the
    #: epoch and churn generators — the batched path must reproduce
    #: their shipped baselines bit-exactly even with the window open.
    FLAT_SCENARIOS = (
        "paper-reclaim-endonly",
        "reclaim-hotspot-hp",
        "reclaim-read-mostly-qsbr",
        "reclaim-churn-ibr",
    )

    @pytest.mark.parametrize("name", FLAT_SCENARIOS)
    def test_window_open_matches_shipped_baseline(self, name):
        with open(BASELINES) as fh:
            base = json.load(fh)["scenarios"][name]
        spec = scenarios.get_scenario(name).with_topology(aggregation=8)
        run = scenarios.run_scenario(spec)
        assert run.result.elapsed == base["elapsed_virtual_s"]
        assert run.result.operations == base["operations"]
        assert run.result.comm == base["comm"]

    def test_window_open_equals_window_closed_on_flat(self):
        # A quick cross-kind sweep at reduced scale: enabling the window
        # on a flat machine changes nothing at all.
        for name in ("multi-structure", "queue-churn"):
            spec = scenarios.get_scenario(name).with_measure(ops_scale=0.25)
            off = scenarios.run_scenario(spec)
            on = scenarios.run_scenario(spec.with_topology(aggregation=16))
            assert on.result.elapsed == off.result.elapsed
            assert on.result.comm == off.result.comm

    def test_window_closed_is_legacy_under_hierarchy(self):
        # window == 1 on a hierarchical machine: the plan is off, the
        # aggregator inert — the pre-aggregation baselines stay pinned.
        with open(BASELINES) as fh:
            base = json.load(fh)["scenarios"]["topo-hier-reclaim-ebr"]
        run = scenarios.run_scenario(
            scenarios.get_scenario("topo-hier-reclaim-ebr")
        )
        assert run.result.elapsed == base["elapsed_virtual_s"]
        assert run.result.comm == base["comm"]


# ---------------------------------------------------------------------------
# domain-ordered scan equivalence
# ---------------------------------------------------------------------------


def _run_hier_mixed(window: int, reclaimer: str):
    """One epoch_mixed run on hier:2x2; returns (result, uplink serves)."""
    rt = _hier_runtime(window, reclaimer=reclaimer)
    try:
        result = run_epoch_mixed(
            rt,
            ops_per_task=256,
            tasks_per_locale=1,
            write_percent=50,
            remote_percent=50,
            rounds=2,
        )
        serves = sum(p.served for p in rt.network.uplinks.values())
        return result, serves
    finally:
        rt.close()


class TestDomainOrderedEquivalence:
    @pytest.mark.parametrize("scheme", ["ebr", "hp"])
    def test_same_frees_fewer_crossings(self, scheme):
        legacy, legacy_serves = _run_hier_mixed(1, scheme)
        agg, agg_serves = _run_hier_mixed(16, scheme)
        # Same reclamation outcome...
        assert agg.extra["em"]["freed"] == legacy.extra["em"]["freed"]
        assert agg.operations == legacy.operations
        # ...with strictly fewer uplink traversals.
        assert agg_serves < legacy_serves
        # The batching shows up in the per-scheme diagnostics.
        em = agg.extra["em"]
        assert em["uplink_crossings"] > 0
        assert legacy.extra["em"]["uplink_crossings"] == 0

    @pytest.mark.parametrize("scheme", ["ebr", "hp"])
    def test_agg_scenarios_beat_their_pr4_baselines(self, scheme):
        # The acceptance bar: at the registered workload scale the
        # aggregated successors post lower virtual time than the
        # aggregation-off twins (at small scale the domain-ordered
        # traversal's fixed overheads can outweigh the volume-scaled
        # savings — the when-to-tune discipline of docs/AGGREGATION.md —
        # which is why this asserts against the shipped full-scale
        # baselines).
        with open(BASELINES) as fh:
            base = json.load(fh)["scenarios"]
        legacy = base[f"topo-hier-reclaim-{scheme}"]["elapsed_virtual_s"]
        for window in (4, 16):
            agg = base[f"topo-hier-agg-{scheme}-w{window}"]["elapsed_virtual_s"]
            assert agg < legacy

    @pytest.mark.parametrize("scheme", ["qsbr", "ibr"])
    def test_scan_paths_batch_for_every_scheme(self, scheme):
        legacy, legacy_serves = _run_hier_mixed(1, scheme)
        agg, agg_serves = _run_hier_mixed(16, scheme)
        assert agg.extra["em"]["freed"] == legacy.extra["em"]["freed"]
        assert agg_serves < legacy_serves
        assert agg.elapsed < legacy.elapsed
        assert agg.extra["em"]["scan_batches"] > 0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("name", ["topo-hier-agg-ebr-w4", "topo-hier-agg-hp-w4"])
    def test_identical_across_repeats_and_pool_sizes(self, name):
        spec = scenarios.get_scenario(name).with_measure(ops_scale=0.5, repeats=2)
        reference = None
        for pool in (1, 2, 4, 8):
            run = scenarios.run_scenario(
                spec.with_topology(worker_pool_size=pool)
            )
            facts = (run.result.elapsed, run.result.operations, run.result.comm)
            if reference is None:
                reference = facts
            else:
                assert facts == reference, f"pool={pool} diverged for {name}"


# ---------------------------------------------------------------------------
# socket-shared limbo accounting
# ---------------------------------------------------------------------------


class TestSocketSharedAccounting:
    def test_one_instance_per_domain_and_exact_accounting(self):
        rt = _hier_runtime(4)
        try:
            def main():
                em = EpochManager(rt)
                assert em.share_coherent
                # hier:2x2 over 8 locales: sockets {0,1},{2,3},{4,5},{6,7}.
                assert em._instance_lids == (0, 2, 4, 6)
                assert em.get_privatized_instance(1) is em.get_privatized_instance(0)
                assert em.get_privatized_instance(2) is not em.get_privatized_instance(0)
                # Retire a known count from several locales, then clear:
                # the shared lists must account every object exactly once.
                total = 0
                for lid in (0, 1, 2, 5):
                    with rt.on(lid):
                        tok = em.register()
                        tok.pin()
                        for _ in range(10):
                            tok.defer_delete(rt.new_obj(object()))
                            total += 1
                        tok.unpin()
                        tok.unregister()
                assert em.pending_count() == total
                freed = em.clear()
                assert freed == total
                assert em.pending_count() == 0
                em.destroy()

            rt.run(main)
        finally:
            rt.close()

    def test_ebr_adapter_counts_shared_instances_once(self):
        rt = _hier_runtime(4)
        try:
            def main():
                rec = make_reclaimer(rt, "ebr")
                guard = rec.register()
                guard.pin()
                for _ in range(5):
                    guard.defer_delete(rt.new_obj(object()))
                guard.unpin()
                stats = rec.stats()
                assert stats["retired"] == 5
                assert stats["pending"] == 5
                rec.clear()
                stats = rec.stats()
                assert stats["freed"] == 5
                assert stats["pending"] == 0
                guard.unregister()
                rec.destroy()

            rt.run(main)
        finally:
            rt.close()

    def test_tokens_work_from_socket_siblings_only(self):
        rt = _hier_runtime(4)
        try:
            def main():
                em = EpochManager(rt)
                tok = em.register()  # on locale 0 (socket {0, 1})
                with rt.on(1):
                    tok.pin()  # coherent sibling: allowed
                    tok.unpin()
                with rt.on(2):
                    with pytest.raises(TokenStateError):
                        tok.pin()  # different socket: locale-bound error
                tok.unregister()
                em.destroy()

            rt.run(main)
        finally:
            rt.close()

    def test_share_coherent_off_without_aggregation(self):
        rt = _hier_runtime(1)
        try:
            def main():
                em = EpochManager(rt)
                assert not em.share_coherent
                assert em._instance_lids == tuple(range(8))
                # The legacy shape: one single-locale group per locale.
                assert not em._aggregated
                assert em._plan == tuple((lid, (lid,), (lid,)) for lid in range(8))
                # Explicit opt-in works even with the window closed.
                shared = EpochManager(rt, share_coherent=True)
                assert shared.share_coherent
                assert shared._aggregated
                assert shared._plan == ((0, (0, 2), (0, 1, 2, 3)), (4, (4, 6), (4, 5, 6, 7)))
                em.destroy()
                shared.destroy()

            rt.run(main)
        finally:
            rt.close()


# ---------------------------------------------------------------------------
# ragged shapes
# ---------------------------------------------------------------------------


class TestRaggedShapes:
    def test_partial_node_uplink_grouping(self):
        rt = _hier_runtime(4, topology="hier:2x3")
        try:
            topo = rt.topology
            # hier:2x3 over 8 locales: node 0 holds 0-5, node 1 only 6-7
            # (a partial node whose single socket is itself partial).
            assert [topo.uplink_group(lid) for lid in range(8)] == [0] * 6 + [1] * 2
            assert [topo.coherence_domain(lid) for lid in range(8)] == [
                0, 0, 0, 1, 1, 1, 2, 2,
            ]

            def main():
                em = EpochManager(rt)
                assert em.share_coherent
                # Plan: one group per node; the short node is its own
                # group with its partial socket as the only instance.
                assert em._plan == ((0, (0, 3), (0, 1, 2, 3, 4, 5)), (6, (6,), (6, 7)))
                em.destroy()

            rt.run(main)

            result = run_epoch_mixed(
                rt,
                ops_per_task=128,
                tasks_per_locale=1,
                write_percent=50,
                remote_percent=50,
                rounds=2,
            )
            # Both uplinks — including the partial node's — carried
            # aggregated scan traffic.
            assert set(rt.network.uplinks) == {0, 1}
            assert all(p.served > 0 for p in rt.network.uplinks.values())
            assert result.extra["em"]["uplink_crossings"] > 0
        finally:
            rt.close()

    def test_ragged_scenario_registered_and_deterministic(self):
        spec = scenarios.get_scenario("topo-hier-ragged")
        assert spec.topology.topology == "hier:2x3"
        assert spec.topology.aggregation == 4
        run = scenarios.run_scenario(
            spec.with_measure(ops_scale=0.25, repeats=2)
        )
        assert run.result.extra["em"]["uplink_crossings"] > 0


# ---------------------------------------------------------------------------
# scenario & CLI surface
# ---------------------------------------------------------------------------


class TestScenarioSurface:
    def test_aggregation_mismatch_is_incomparable(self):
        spec = scenarios.get_scenario("reclaim-hotspot-ebr").with_topology(
            aggregation=8
        )
        run = scenarios.run_scenario(spec)
        baselines = scenarios.load_baselines(str(BASELINES))
        report = scenarios.build_report([run], baselines=baselines)
        verdict = report["scenarios"]["reclaim-hotspot-ebr"]["regression"]
        assert verdict["status"] == "incomparable"
        assert "aggregation" in verdict["reason"]

    def test_new_scenarios_record_their_window(self):
        baselines = scenarios.load_baselines(str(BASELINES))
        assert baselines["topo-hier-agg-ebr-w4"]["aggregation"] == 4
        assert baselines["topo-hier-agg-hp-w16"]["aggregation"] == 16
        assert baselines["topo-hier-ragged"]["aggregation"] == 4

    def test_list_filter(self, capsys):
        assert scenario_main(["--list", "--filter", "topo-hier-agg"]) == 0
        out = capsys.readouterr().out
        assert "topo-hier-agg-ebr-w4" in out
        assert "agg=w4" in out
        assert "queue-churn" not in out

    def test_filter_requires_list(self, capsys):
        with pytest.raises(SystemExit):
            scenario_main(["--run", "queue-churn", "--filter", "x"])

    def test_aggregation_forbidden_with_update_baselines(self):
        with pytest.raises(SystemExit):
            scenario_main(
                ["--all", "--update-baselines", "--aggregation", "8"]
            )
