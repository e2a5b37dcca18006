"""Tests for the declarative scenario engine (repro.bench.scenarios).

Covers the validation surface (unknown keys, bad network names,
non-positive locale counts, bad workload parameters), TOML loading, the
registry, the grid runner, report/baseline aggregation, and the
determinism contract: a named scenario's virtual results are bit-identical
across repeated runs and across worker-pool sizes.
"""

from __future__ import annotations

import inspect
import json
import sys

import pytest

from repro.bench.scenarios import (
    MeasureSpec,
    ScenarioError,
    ScenarioSpec,
    TopologySpec,
    WORKLOAD_KINDS,
    WorkloadSpec,
    build_report,
    get_scenario,
    iter_scenarios,
    load_baselines,
    baseline_entry,
    register_scenario,
    run_scenario,
    run_scenario_grid,
    scenario_names,
)
from repro.comm.aggregation import AggregationSpec
from repro.comm.topology import FlatTopology
from repro.policy import PolicySpec
from repro.runtime.config import RuntimeConfig

#: Machine-axis spellings that no longer parse (docs/SCENARIOS.md,
#: "Removed spellings"): (field, value, the value as a TOML ``[topology]``
#: entry writes it, or None where TOML cannot express it).
_REMOVED_SPELLINGS = [
    pytest.param(
        "topology",
        {"kind": "hier", "sockets_per_node": 2, "locales_per_socket": 2},
        '{ kind = "hier", sockets_per_node = 2, locales_per_socket = 2 }',
        id="topology-mapping",
    ),
    pytest.param("aggregation", {"window": 4}, "{ window = 4 }", id="aggregation-mapping"),
    pytest.param(
        "policy",
        {"epoch": "threshold:32", "window": "adaptive:4..8"},
        '{ epoch = "threshold:32", window = "adaptive:4..8" }',
        id="policy-mapping",
    ),
    pytest.param("topology", FlatTopology(8), None, id="topology-instance"),
    pytest.param("aggregation", AggregationSpec(4), None, id="aggregation-instance"),
    pytest.param("policy", PolicySpec(), None, id="policy-instance"),
    pytest.param("aggregation", None, None, id="aggregation-None"),
    pytest.param("policy", None, None, id="policy-None"),
    pytest.param("trace", None, None, id="trace-None"),
    pytest.param("aggregation", "off", '"off"', id="aggregation-off"),
    pytest.param("policy", "default", '"default"', id="policy-default"),
    pytest.param("policy", "", '""', id="policy-empty"),
    pytest.param("trace", "", '""', id="trace-empty"),
    pytest.param("topology", "hier:2x2@2", '"hier:2x2@2"', id="hier-scale"),
    pytest.param("topology", "dragonfly:4@8", '"dragonfly:4@8"', id="dragonfly-scale"),
    pytest.param(
        "policy", "decay:64:exponential:4", '"decay:64:exponential:4"', id="decay-curve"
    ),
]

#: A tiny-but-real document used by the parsing tests.
DOC = {
    "scenario": {"name": "t", "description": "d"},
    "topology": {"locales": 2, "network": "none", "tasks_per_locale": 1},
    "workload": {"kind": "atomic_mix", "cell": "atomic_int", "ops_per_task": 8},
    "measure": {"ops_scale": 1.0, "repeats": 1},
}


def _doc(**overrides):
    doc = {k: dict(v) for k, v in DOC.items()}
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


class TestSpecParsing:
    def test_round_trip(self):
        spec = ScenarioSpec.from_dict(DOC)
        assert spec.name == "t"
        assert spec.topology.locales == 2
        assert spec.topology.network == "none"
        assert spec.workload.kind == "atomic_mix"
        again = ScenarioSpec.from_dict(spec.as_dict())
        assert again == spec

    def test_unknown_top_level_key_rejected(self):
        doc = _doc()
        doc["workloads"] = {}
        with pytest.raises(ScenarioError, match="workloads"):
            ScenarioSpec.from_dict(doc)

    def test_unknown_topology_key_rejected(self):
        with pytest.raises(ScenarioError, match="locals"):
            ScenarioSpec.from_dict(_doc(topology={"locals": 4}))

    def test_unknown_measure_key_rejected(self):
        with pytest.raises(ScenarioError, match="opscale"):
            ScenarioSpec.from_dict(_doc(measure={"opscale": 2}))

    def test_unknown_workload_param_rejected(self):
        with pytest.raises(ScenarioError, match="zipf_exponent"):
            # zipf_exponent belongs to atomic_hotspot, not atomic_mix
            ScenarioSpec.from_dict(
                _doc(workload={"kind": "atomic_mix", "zipf_exponent": 1.5})
            )

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ScenarioError, match="atomic_mixx"):
            ScenarioSpec.from_dict(_doc(workload={"kind": "atomic_mixx"}))

    def test_missing_workload_rejected(self):
        with pytest.raises(ScenarioError, match="workload"):
            ScenarioSpec.from_dict(_doc(workload=None))

    def test_missing_name_rejected(self):
        with pytest.raises(ScenarioError, match="name"):
            ScenarioSpec.from_dict(_doc(scenario={"description": "x"}))

    def test_bad_network_name_rejected(self):
        with pytest.raises(ScenarioError, match="infiniband"):
            ScenarioSpec.from_dict(_doc(topology={"network": "infiniband"}))

    def test_non_positive_locales_rejected(self):
        for bad in (0, -3):
            with pytest.raises(ScenarioError, match="locales"):
                ScenarioSpec.from_dict(_doc(topology={"locales": bad}))

    def test_non_integer_locales_rejected(self):
        with pytest.raises(ScenarioError, match="locales"):
            TopologySpec(locales="four")

    def test_bad_cost_profile_rejected(self):
        with pytest.raises(ScenarioError, match="turbo"):
            TopologySpec(cost_profile="turbo")

    def test_bad_cost_override_field_rejected(self):
        with pytest.raises(ScenarioError, match="warp_latency"):
            TopologySpec(cost_overrides={"warp_latency": 1e-6})

    def test_non_positive_cost_scale_rejected(self):
        with pytest.raises(ScenarioError, match="cost scale"):
            TopologySpec(cost_scale=0)

    def test_bad_measure_values_rejected(self):
        with pytest.raises(ScenarioError, match="ops_scale"):
            MeasureSpec(ops_scale=-1)
        with pytest.raises(ScenarioError, match="repeats"):
            MeasureSpec(repeats=0)

    def test_non_numeric_scales_rejected_as_scenario_errors(self):
        """TOML-typo strings must not escape as raw TypeErrors."""
        with pytest.raises(ScenarioError, match="ops_scale"):
            MeasureSpec(ops_scale="2")
        with pytest.raises(ScenarioError, match="cost scale"):
            TopologySpec(cost_scale="2")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", "abc"),
            ("seed", 1.5),
            ("seed", True),
            ("worker_pool_size", "2"),
            ("worker_pool_size", 0),
            ("cost_overrides", {"am_latency": "x"}),
            ("cost_overrides", {"am_latency": True}),
            ("cost_overrides", 5),
            ("cost_overrides", {"am_latency": float("nan")}),
            ("cost_overrides", {"am_latency": float("inf")}),
            ("cost_overrides", {"am_latency": -1.0}),
            ("cost_scale", float("nan")),
            ("topology", "hier:2x2@inf"),
        ],
    )
    def test_malformed_field_types_rejected_by_field(self, field, value):
        """TOML typos fail at spec validation, naming the field — never
        mid-run as a raw TypeError."""
        with pytest.raises(ScenarioError, match=f"topology.{field}"):
            ScenarioSpec.from_dict(_doc(topology={"locales": 2, field: value}))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("network", "infiniband"),
            ("topology", "torus"),
            ("cost_profile", "turbo"),
            ("cost_scale", -1.0),
            ("cost_scale", float("nan")),
            ("cost_scale", float("inf")),
            ("topology", "hier:2x2@nan"),
            ("topology", "hier:2x2@inf"),
            ("topology", "dragonfly:4@nan"),
            ("cost_overrides", {"warp_latency": 1e-6}),
            ("cost_overrides", {"am_latency": float("inf")}),
            ("cost_overrides", {"am_latency": -1.0}),
            ("reclaimer", "rc"),
            ("aggregation", 0),
            ("engine", "jit"),
            ("policy", "never"),
            ("trace", "loud"),
        ],
    )
    def test_every_invalid_machine_field_names_itself(self, field, value):
        with pytest.raises(ScenarioError, match=f"^topology.{field}: "):
            TopologySpec(**{field: value})

    @pytest.mark.parametrize("field, value, toml", _REMOVED_SPELLINGS)
    def test_removed_spellings_name_their_field(self, field, value, toml):
        """Each axis takes one spelling; the old ones fail naming the field."""
        with pytest.raises(ValueError, match=f"^{field}: "):
            RuntimeConfig(num_locales=8, **{field: value})
        with pytest.raises(ScenarioError, match=f"^topology.{field}: "):
            TopologySpec(locales=8, **{field: value})

    def test_runtime_config_is_parsed_once_and_kept(self):
        topo = TopologySpec(locales=8, topology="hier", policy="fixed")
        cfg = topo.runtime_config()
        assert cfg is topo.runtime_config()
        assert cfg.resolved_topology().spec() == topo.topology == "hier:2x2"
        assert cfg.resolved_policy().spec() == topo.policy == "fixed"
        # Every spec builds its own config; equality ignores it.
        twin = TopologySpec(locales=8, topology="hier:2x2")
        assert twin == topo and twin.runtime_config() is not cfg

    def test_phased_reclaim_with_shared_locale_workers_rejected(self):
        """The determinism rule is enforced, not just documented."""
        from repro.bench.workloads import (
            run_epoch_mixed,
            run_multi_structure,
            run_producer_consumer,
        )
        from repro.runtime import Runtime

        rt = Runtime(num_locales=2, tasks_per_locale=2)
        for call in (
            lambda: run_epoch_mixed(
                rt, ops_per_task=4, tasks_per_locale=2, rounds=2,
                reclaim_between_rounds=True,
            ),
            lambda: run_producer_consumer(
                rt, items_per_task=4, tasks_per_locale=2, rounds=2,
                reclaim_between_rounds=True,
            ),
            lambda: run_multi_structure(
                rt, ops_per_slot=4, tasks_per_locale=2, rounds=2,
                reclaim_between_rounds=True,
            ),
        ):
            with pytest.raises(ValueError, match="reclaim_between_rounds"):
                call()
        rt.close()

    def test_topology_materializes_runtime_config(self):
        topo = TopologySpec(
            locales=3,
            network="none",
            cost_profile="degraded",
            cost_scale=2.0,
            cost_overrides={"am_latency": 1e-5},
            seed=7,
        )
        cfg = topo.runtime_config()
        assert cfg.num_locales == 3
        assert cfg.seed == 7
        assert not cfg.uses_network_atomics
        # override wins over profile and scale
        assert cfg.costs.am_latency == 1e-5
        # non-overridden fields carry profile x scale (degraded=8x, scale=2x)
        from repro.comm.costs import DEFAULT_COSTS

        assert cfg.costs.am_service == DEFAULT_COSTS.am_service * 8 * 2

    def test_resolved_params_scaling_floors_at_one(self):
        w = WorkloadSpec.from_dict({"kind": "atomic_mix", "ops_per_task": 10})
        assert w.resolved_params(0.5)["ops_per_task"] == 5
        assert w.resolved_params(0.001)["ops_per_task"] == 1
        assert w.resolved_params(1.0)["ops_per_task"] == 10

    def test_with_workload_changing_kind_drops_old_params(self):
        spec = ScenarioSpec.from_dict(DOC)
        derived = spec.with_workload(kind="epoch", ops_per_task=4)
        assert derived.workload.kind == "epoch"
        assert "cell" not in dict(derived.workload.params)

    @pytest.mark.parametrize("kind", sorted(WORKLOAD_KINDS))
    def test_kind_params_are_runner_keywords(self, kind):
        # The runner is the generator itself, called with the spec params
        # as keywords: a renamed keyword or param must fail here, not at
        # run time.  The uniform mix leaves zipf_exponent at its
        # generator default (no skew).
        entry = WORKLOAD_KINDS[kind]
        keywords = {
            name
            for name, param in inspect.signature(entry.runner).parameters.items()
            if param.kind is inspect.Parameter.KEYWORD_ONLY
        } - {"tasks_per_locale", "manager_kwargs"}
        pinned = {"atomic_mix": {"zipf_exponent"}}.get(kind, set())
        assert {name for name, _ in entry.defaults} == keywords - pinned
        params = inspect.signature(entry.runner).parameters
        assert all(params[name].default is None for name in pinned)


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="tomllib requires Python 3.11+"
)
class TestTomlLoading:
    TOML = """
[scenario]
name = "toml-t"
description = "from toml"

[topology]
locales = 2
network = "ugni"

[workload]
kind = "epoch_mixed"
ops_per_task = 8
write_percent = 50

[measure]
repeats = 2
"""

    def test_from_toml_text(self):
        spec = ScenarioSpec.from_toml(self.TOML)
        assert spec.name == "toml-t"
        assert spec.workload.kind == "epoch_mixed"
        assert spec.measure.repeats == 2

    def test_from_toml_file(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(self.TOML)
        assert ScenarioSpec.from_toml(str(path)).name == "toml-t"

    def test_bad_toml_keys_rejected(self):
        with pytest.raises(ScenarioError, match="locals"):
            ScenarioSpec.from_toml(
                '[scenario]\nname = "x"\n[topology]\nlocals = 2\n'
                '[workload]\nkind = "epoch"\n'
            )


class TestRegistry:
    def test_at_least_eight_builtins(self):
        assert len(scenario_names()) >= 8

    def test_iter_matches_names(self):
        assert [s.name for s in iter_scenarios()] == scenario_names()

    def test_builtins_cover_promised_families(self):
        kinds = {s.workload.kind for s in iter_scenarios()}
        assert {"atomic_hotspot", "epoch_mixed", "churn", "multi_structure"} <= kinds
        profiles = {s.topology.cost_profile for s in iter_scenarios()}
        assert "degraded" in profiles

    def test_unknown_name_suggests_nearest(self):
        with pytest.raises(ScenarioError, match="hotspot-zipf"):
            get_scenario("hotspot-zip")

    def test_duplicate_registration_rejected(self):
        spec = ScenarioSpec.from_dict(_doc(scenario={"name": "dup-test"}))
        register_scenario(spec)
        try:
            with pytest.raises(ScenarioError, match="dup-test"):
                register_scenario(spec)
            register_scenario(spec, replace_existing=True)  # allowed
        finally:
            from repro.bench import scenarios as _m

            _m._REGISTRY.pop("dup-test", None)


def _mini(name: str, **measure) -> ScenarioSpec:
    """A registered scenario scaled down for fast execution."""
    return get_scenario(name).with_measure(ops_scale=0.02, **measure)


class TestRegisteredRoundTrip:
    """What the former machine-axis registry promised, checked on the
    shipped scenarios: canonical specs round-trip through the dict form."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_registered_spec_round_trips(self, name):
        spec = get_scenario(name)
        again = ScenarioSpec.from_dict(spec.as_dict())
        assert again == spec
        cfg, cfg_again = spec.topology.runtime_config(), again.topology.runtime_config()
        for resolve in ("resolved_topology", "resolved_aggregation", "resolved_policy"):
            assert getattr(cfg, resolve)().spec() == getattr(cfg_again, resolve)().spec()


class TestExecution:
    def test_run_scenario_returns_sane_result(self):
        run = run_scenario(_mini("hotspot-zipf"))
        assert run.result.elapsed > 0
        assert run.result.operations > 0
        assert run.result.comm["amo"] + run.result.comm["local_amo"] > 0
        assert run.wall_seconds >= 0

    def test_determinism_across_runs_and_pool_sizes(self):
        """The acceptance-criteria check, in miniature.

        Two repetitions per pool size (the runner itself raises if they
        disagree) and two pool sizes whose results must also coincide.
        """
        for name in ("queue-churn", "write-heavy-reclaim"):
            base = _mini(name, repeats=2)
            results = []
            for pool in (1, 3):
                run = run_scenario(base.with_topology(worker_pool_size=pool))
                results.append(
                    (
                        run.result.elapsed,
                        run.result.operations,
                        dict(run.result.comm),
                    )
                )
            assert results[0] == results[1], f"{name} depends on pool size"

    def test_every_workload_kind_executes(self):
        for kind in WORKLOAD_KINDS:
            spec = ScenarioSpec(
                name=f"mini-{kind}",
                topology=TopologySpec(locales=2, tasks_per_locale=1),
                workload=WorkloadSpec(kind=kind),
                measure=MeasureSpec(ops_scale=0.01),
            )
            result = run_scenario(spec).result
            assert result.elapsed > 0, kind
            assert result.operations > 0, kind

    def test_grid_preserves_order_and_fires_progress(self):
        specs = [_mini("hotspot-zipf"), _mini("paper-atomic-mix")]
        seen = []
        runs = run_scenario_grid(specs, progress=seen.append)
        assert [r.spec.name for r in runs] == ["hotspot-zipf", "paper-atomic-mix"]
        assert seen == runs


class TestReporting:
    def test_report_shape_and_baseline_verdicts(self, tmp_path):
        runs = run_scenario_grid([_mini("hotspot-zipf"), _mini("paper-atomic-mix")])
        # Record the first as a baseline; leave the second "new"; then
        # corrupt the first to show "drift".
        baselines = {"hotspot-zipf": baseline_entry(runs[0])}
        report = build_report(runs, baselines=baselines)
        assert report["scenarios"]["hotspot-zipf"]["regression"]["status"] == "match"
        assert report["scenarios"]["paper-atomic-mix"]["regression"]["status"] == "new"

        baselines["hotspot-zipf"]["elapsed_virtual_s"] *= 2
        report = build_report(runs, baselines=baselines)
        entry = report["scenarios"]["hotspot-zipf"]["regression"]
        assert entry["status"] == "drift"
        assert "baseline" in entry

        # ops_scale mismatch -> incomparable, not drift
        baselines["hotspot-zipf"]["ops_scale"] = 1.0
        report = build_report(runs, baselines=baselines)
        assert (
            report["scenarios"]["hotspot-zipf"]["regression"]["status"]
            == "incomparable"
        )

        # The report must be JSON-serializable as-is.
        json.dumps(report)

    def test_load_baselines_missing_file(self, tmp_path):
        assert load_baselines(str(tmp_path / "nope.json")) == {}

    def test_shipped_baselines_cover_every_builtin(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "benchmarks" / "scenario_baselines.json"
        baselines = load_baselines(str(path))
        assert set(scenario_names()) <= set(baselines)


class TestCli:
    def test_list(self, capsys):
        from repro.bench.__main__ import main

        assert main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_update_baselines_merges_partial_runs(self, tmp_path, capsys):
        """A --run NAME update must not discard other scenarios' baselines."""
        from repro.bench.__main__ import main

        baselines = tmp_path / "baselines.json"
        baselines.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "scenarios": {
                        "some-other": {
                            "ops_scale": 1.0,
                            "elapsed_virtual_s": 1.0,
                            "operations": 1,
                            "comm": {},
                        }
                    },
                }
            )
        )
        rc = main(
            [
                "scenarios",
                "--run",
                "hotspot-zipf",
                "--baselines",
                str(baselines),
                "--update-baselines",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == 0
        doc = json.loads(baselines.read_text())
        assert "some-other" in doc["scenarios"]  # preserved
        assert "hotspot-zipf" in doc["scenarios"]  # added

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--run", "nosuch"], "nosuch"),
            (["--spec", "MISSING"], "MISSING"),
            (["--spec", "BAD"], "topology.locales"),
            (["--spec", "GARBLED"], "cannot load scenario TOML"),
            (["--run", "hotspot-zipf", "--policy", "never"], "topology.policy"),
            (["--run", "hotspot-zipf", "--ops-scale", "-1"], "measure.ops_scale"),
            (["--run", "hotspot-zipf", "--ops-scale", "nan"], "measure.ops_scale"),
            (["--run", "hotspot-zipf", "--ops-scale", "inf"], "measure.ops_scale"),
            (["--run", "hotspot-zipf", "--cost-scale", "nan"], "topology.cost_scale"),
            (["--run", "hotspot-zipf", "--cost-scale", "inf"], "topology.cost_scale"),
            (["--run", "topo-hier-ragged", "--topology", "hier:2x2@nan"],
             "topology.topology"),
            (["--run", "topo-dragonfly-churn", "--topology", "dragonfly:4@nan"],
             "topology.topology"),
            (["--spec", "AM_INF"], "topology.cost_overrides"),
            (["--spec", "AM_NEG"], "topology.cost_overrides"),
            (["--spec", "ZIPF"], "workload.zipf_exponent"),
            (["--spec", "WRITE"], "workload.write_percent"),
            (["--spec", "HEAP"], "workload.structure"),
            (["--spec", "OPS"], "workload.ops_per_task"),
            (["--spec", "EVERY"], "workload.reclaim_every"),
            (["--spec", "BUCKETS"], "workload.hash_buckets"),
        ],
    )
    def test_spec_errors_exit_2_with_one_error_line(
        self, tmp_path, capsys, argv, needle
    ):
        """Exit 1 means drifted baselines; a spec error must not look
        like one."""
        from repro.bench.__main__ import main

        if sys.version_info < (3, 11) and "--spec" in argv:
            pytest.skip("tomllib requires Python 3.11+")
        specs = {
            "BAD": ("locales = 0", 'kind = "epoch"'),
            "AM_INF": ('network = "none"\ncost_overrides = { am_latency = inf }',
                       'kind = "epoch"'),
            "AM_NEG": ("cost_overrides = { am_latency = -1.0 }", 'kind = "epoch"'),
            "ZIPF": ("", 'kind = "atomic_hotspot"\nzipf_exponent = -1.0'),
            "WRITE": ("", 'kind = "epoch_mixed"\nwrite_percent = 150'),
            "HEAP": ("", 'kind = "churn"\nstructure = "heap"'),
            "OPS": ("", 'kind = "epoch"\nops_per_task = -5'),
            "EVERY": ("", 'kind = "epoch"\nreclaim_every = 0'),
            "BUCKETS": ("", 'kind = "multi_structure"\nhash_buckets = 0'),
        }
        files = {
            "MISSING": tmp_path / "missing.toml",
            "GARBLED": tmp_path / "garbled.toml",
        }
        for key, (topology, workload) in specs.items():
            files[key] = tmp_path / f"{key.lower()}.toml"
            files[key].write_text(
                f'[scenario]\nname = "x"\n[topology]\n{topology}\n'
                f"[workload]\n{workload}\n"
            )
        files["GARBLED"].write_text("[scenario\n")
        argv = [str(files.get(a, a)) for a in argv]
        rc = main(["scenarios", *argv, "--out", str(tmp_path / "r.json")])
        assert rc == 2
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith("error: ")
        assert needle.replace("MISSING", "missing.toml") in out[0]

    @pytest.mark.parametrize(
        "field, value, toml", [p for p in _REMOVED_SPELLINGS if p.values[2] is not None]
    )
    def test_removed_spellings_exit_2_through_spec(
        self, tmp_path, capsys, field, value, toml
    ):
        from repro.bench.__main__ import main

        if sys.version_info < (3, 11):
            pytest.skip("tomllib requires Python 3.11+")
        path = tmp_path / "removed.toml"
        path.write_text(
            f'[scenario]\nname = "x"\n[topology]\n{field} = {toml}\n'
            f'[workload]\nkind = "epoch"\n'
        )
        rc = main(["scenarios", "--spec", str(path), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith(f"error: topology.{field}: ")

    def test_run_writes_report(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out_path = tmp_path / "report.json"
        rc = main(
            [
                "scenarios",
                "--run",
                "hotspot-zipf",
                "--ops-scale",
                "0.02",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert "hotspot-zipf" in doc["scenarios"]
        assert doc["scenarios"]["hotspot-zipf"]["elapsed_virtual_s"] > 0
