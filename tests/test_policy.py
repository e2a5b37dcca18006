"""Tests for the pluggable virtual-time policy engine (src/repro/policy).

Four layers, mirroring the subsystem's contract:

* **spec parsing** — ``parse_policy`` / ``PolicySpec`` round-trips,
  canonical normalization, and the shared list-the-valid-names error
  idiom;
* **unit semantics** — each epoch policy (fixed/threshold/decay/grace)
  and window policy (static/adaptive) decided against hand-built
  virtual-time facts;
* **machine fields** — ``RuntimeConfig`` parses every machine field
  once, its canonical specs round-trip, ``TopologySpec`` reports errors
  by field, and a policy mismatch makes a baseline ``incomparable``
  (never silently ``drift``);
* **end-to-end determinism** — the hard requirement: policy decisions
  are bit-identical across repeats and worker-pool sizes {1, 2, 4, 8},
  the engaged ``fixed``/``static`` default exactly reproduces the
  shipped baselines, and the adaptive sweep scenario beats its static
  twin on virtual time (the claim its baseline records).
"""

from __future__ import annotations

import pytest

from repro.bench.scenarios import (
    ScenarioError,
    TopologySpec,
    baseline_entry,
    build_report,
    get_scenario,
    load_baselines,
    run_scenario,
)
from repro.policy import (
    AdaptiveWindowPolicy,
    DecayEpochPolicy,
    EpochFacts,
    FixedEpochPolicy,
    GraceEpochPolicy,
    PolicySpec,
    StaticWindowPolicy,
    ThresholdEpochPolicy,
    parse_policy,
)
from repro.runtime.config import RuntimeConfig

BASELINES = "benchmarks/scenario_baselines.json"


def _facts(pending=(), now=0.0, last_pin=None) -> EpochFacts:
    return EpochFacts(now=now, pending=tuple(pending), last_pin=last_pin)


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_default_spellings_normalize_to_fixed(self):
        for raw in (None, "", "default", "fixed", "static", "fixed+static"):
            spec = parse_policy(raw)
            assert spec == PolicySpec()
            assert spec.spec() == "fixed"
            assert spec.is_default

    def test_round_trip_is_canonical(self):
        for raw in (
            "threshold:64",
            "decay:128",
            "decay:128:exponential:4",
            "grace:0.0001",
            "adaptive:4..64",
            "threshold:64+adaptive:4..64",
        ):
            spec = parse_policy(raw)
            assert parse_policy(spec.spec()) == spec

    def test_halves_commute(self):
        a = parse_policy("static+threshold:64")
        b = parse_policy("threshold:64+static")
        assert a == b
        assert a.spec() == "threshold:64"

    def test_bare_kinds_get_documented_defaults(self):
        assert parse_policy("threshold") == parse_policy("threshold:64")
        assert parse_policy("grace") == parse_policy("grace:0.0001")
        assert parse_policy("adaptive") == parse_policy("adaptive:2..64")
        assert parse_policy("decay") == parse_policy("decay:64:linear:8")

    def test_mapping_form(self):
        spec = parse_policy({"epoch": "threshold:32", "window": "adaptive:4..8"})
        assert spec.spec() == "threshold:32+adaptive:4..8"
        with pytest.raises(ValueError, match="accepted keys"):
            parse_policy({"epcoh": "threshold:32"})

    def test_passthrough_and_type_errors(self):
        spec = PolicySpec(epoch_kind="threshold", epoch_param=9)
        assert parse_policy(spec) is spec
        with pytest.raises(ValueError, match="string, mapping, or PolicySpec"):
            parse_policy(3.14)

    def test_unknown_kind_lists_valid_names(self):
        with pytest.raises(ValueError) as exc:
            parse_policy("bogus:3")
        for name in ("fixed", "threshold", "decay", "grace", "static", "adaptive"):
            assert name in str(exc.value)

    def test_duplicate_halves_rejected(self):
        with pytest.raises(ValueError, match="more than one epoch half"):
            parse_policy("threshold:4+grace:0.1")
        with pytest.raises(ValueError, match="more than one window half"):
            parse_policy("static+adaptive:2..4")

    def test_bad_knobs_rejected(self):
        for bad in (
            "fixed:3",  # fixed takes no parameters
            "threshold:0",  # n >= 1
            "threshold:1:2",  # too many knobs
            "grace:0",  # grace > 0
            "decay:64:sigmoid",  # unknown curve
            "decay:64:linear:0",  # horizon >= 1
            "adaptive:64..2",  # lo <= hi
            "adaptive:0..4",  # lo >= 1
            "adaptive:16",  # range must be lo..hi
        ):
            with pytest.raises(ValueError):
                parse_policy(bad)


# ----------------------------------------------------------------------
# epoch-policy unit semantics
# ----------------------------------------------------------------------
class TestEpochPolicies:
    def test_fixed_always_advances(self):
        pol = FixedEpochPolicy()
        assert pol.always_advance
        assert not pol.wants_pin_times
        for _ in range(3):
            assert pol.decide(_facts())
        assert pol.advances == 3 and pol.deferrals == 0

    def test_threshold_gates_on_max_pending(self):
        pol = ThresholdEpochPolicy(8)
        assert not pol.decide(_facts(pending=(7, 3)))
        assert pol.decide(_facts(pending=(3, 8)))  # max, not total
        assert (pol.advances, pol.deferrals) == (1, 1)

    def test_threshold_streak_resets_on_advance(self):
        pol = ThresholdEpochPolicy(10)
        for _ in range(4):
            pol.decide(_facts(pending=(1,)))
        assert pol.streak == 4
        pol.decide(_facts(pending=(10,)))
        assert pol.streak == 0

    def test_decay_linear_reaches_zero_at_horizon(self):
        pol = DecayEpochPolicy(100, "linear", 4)
        # Effective thresholds along the streak: 100, 75, 50, 25 — the
        # pending count of 30 first crosses at the fourth decision.
        decisions = [pol.decide(_facts(pending=(30,))) for _ in range(4)]
        assert decisions == [False, False, False, True]
        assert pol.streak == 0  # the advance reset the decay

    def test_decay_never_defers_past_horizon(self):
        pol = DecayEpochPolicy(10**9, "step", 3)
        decisions = [pol.decide(_facts(pending=(0,))) for _ in range(8)]
        # step holds the full threshold until t >= 1, then forces advance.
        assert decisions == [False, False, False, True, False, False, False, True]

    def test_decay_exponential_curve_shape(self):
        pol = DecayEpochPolicy(100, "exponential", 8)
        assert pol.effective_threshold() == 100
        pol.streak = 2  # t = 0.25 -> 2**-1
        assert pol.effective_threshold() == 50
        pol.streak = 8
        assert pol.effective_threshold() == 0

    def test_grace_holds_epoch_open(self):
        pol = GraceEpochPolicy(1e-3)
        assert pol.wants_pin_times
        assert pol.decide(_facts(now=0.0, last_pin=None))  # nothing pinned yet
        assert not pol.decide(_facts(now=1.0005, last_pin=1.0))
        assert pol.decide(_facts(now=1.002, last_pin=1.0))

    def test_decisions_are_pure_functions_of_facts(self):
        """Two instances fed the same fact sequence decide identically."""
        seq = [(i * 7 % 13,) for i in range(20)]
        a = DecayEpochPolicy(8, "linear", 4)
        b = DecayEpochPolicy(8, "linear", 4)
        da = [a.decide(_facts(pending=p)) for p in seq]
        db = [b.decide(_facts(pending=p)) for p in seq]
        assert da == db


# ----------------------------------------------------------------------
# window-policy unit semantics
# ----------------------------------------------------------------------
class TestWindowPolicies:
    def test_static_never_moves(self):
        pol = StaticWindowPolicy(16)
        pol.observe(count=16, window=16, queue_delay=9.9, marginal=0.1)
        assert pol.tick() == 16
        assert not pol.dynamic

    def test_adaptive_grows_on_any_full_batch(self):
        pol = AdaptiveWindowPolicy(16, 2, 64)
        # A never-fillable stream (free_grouped-shaped) must not veto growth.
        pol.observe(count=4, window=16, queue_delay=0.0, marginal=0.5)
        pol.observe(count=16, window=16, queue_delay=0.0, marginal=0.5)
        assert pol.tick() == 32
        assert pol.grows == 1

    def test_adaptive_shrinks_when_queueing_dominates(self):
        pol = AdaptiveWindowPolicy(16, 2, 64)
        pol.observe(count=16, window=16, queue_delay=2.0, marginal=0.5)
        assert pol.tick() == 8  # shrink wins over the full batch
        assert pol.shrinks == 1

    def test_adaptive_clamps_to_bounds(self):
        pol = AdaptiveWindowPolicy(64, 2, 64)
        pol.observe(count=64, window=64, queue_delay=0.0, marginal=0.5)
        assert pol.tick() == 64  # already at hi
        pol = AdaptiveWindowPolicy(2, 2, 64)
        pol.observe(count=1, window=2, queue_delay=2.0, marginal=0.5)
        assert pol.tick() == 2  # already at lo

    def test_adaptive_idle_tick_is_noop(self):
        pol = AdaptiveWindowPolicy(16, 2, 64)
        assert pol.tick() == 16
        assert pol.ticks == 0

    def test_adaptive_seed_clamped_into_bounds(self):
        assert AdaptiveWindowPolicy(128, 2, 64).current == 64
        assert AdaptiveWindowPolicy(1, 2, 64).current == 2
        with pytest.raises(ValueError, match="1 <= lo <= hi"):
            AdaptiveWindowPolicy(16, 8, 4)

    def test_observe_folds_commute(self):
        """Accumulation is order-independent (the concurrency contract)."""
        obs = [
            dict(count=16, window=16, queue_delay=0.5, marginal=0.2),
            dict(count=3, window=16, queue_delay=0.0, marginal=0.9),
            dict(count=16, window=16, queue_delay=0.1, marginal=0.4),
        ]
        a = AdaptiveWindowPolicy(16, 2, 64)
        b = AdaptiveWindowPolicy(16, 2, 64)
        for o in obs:
            a.observe(**o)
        for o in reversed(obs):
            b.observe(**o)
        assert a.tick() == b.tick()


# ----------------------------------------------------------------------
# the machine fields, parsed once by RuntimeConfig
# ----------------------------------------------------------------------
def _canonical(cfg: RuntimeConfig) -> dict:
    return {
        "reclaimer": cfg.reclaimer,
        "topology": cfg.resolved_topology().spec(),
        "aggregation": cfg.resolved_aggregation().spec(),
        "engine": cfg.engine,
        "policy": cfg.resolved_policy().spec(),
    }


class TestMachineAxes:
    def test_every_axis_round_trips(self):
        cfg = RuntimeConfig(
            num_locales=8,
            reclaimer="hp",
            topology="hier:2x2",
            aggregation="16",
            engine="compiled",
            policy="adaptive:4..32+threshold:32",
        )
        spec = _canonical(cfg)
        assert spec["aggregation"] == 16
        assert spec["policy"] == "threshold:32+adaptive:4..32"
        again = RuntimeConfig(num_locales=8, **spec)
        assert _canonical(again) == spec

    def test_defaults(self):
        spec = _canonical(RuntimeConfig(num_locales=4))
        assert spec == {
            "reclaimer": "ebr",
            "topology": "flat",
            "aggregation": 1,
            "engine": "interpreted",
            "policy": "fixed",
        }
        topo = TopologySpec()
        assert (topo.reclaimer, topo.topology, topo.aggregation) == (
            "ebr", "flat", 1,
        )
        assert (topo.engine, topo.policy, topo.trace) == (
            "interpreted", "fixed", "off",
        )

    def test_unknown_axis_name_lists_axes(self):
        with pytest.raises(ScenarioError) as exc:
            TopologySpec.from_dict({"colour": "red"})
        assert "colour" in str(exc.value)
        for name in ("reclaimer", "topology", "aggregation", "engine", "policy"):
            assert name in str(exc.value)

    def test_unknown_axis_value_lists_valid_names(self):
        with pytest.raises(ValueError, match="^reclaimer: .*'ebr'"):
            RuntimeConfig(reclaimer="garbage")
        with pytest.raises(ValueError, match="^engine: .*'interpreted'"):
            RuntimeConfig(engine="jit")
        with pytest.raises(ScenarioError, match="topology.reclaimer: .*'ebr'"):
            TopologySpec(reclaimer="garbage")

    def test_topology_requires_locales(self):
        """The topology is parsed against the machine's locale count."""
        topo = RuntimeConfig(num_locales=8, topology="hier").resolved_topology()
        assert topo.spec() == "hier:2x2"
        assert topo.num_locales == 8
        assert TopologySpec(locales=8, topology="hier").topology == "hier:2x2"
        with pytest.raises(ValueError, match="^topology: .*built for 8"):
            RuntimeConfig(num_locales=4, topology=topo)
        with pytest.raises(ScenarioError, match="topology.topology: .*built for 8"):
            TopologySpec(locales=4, topology=topo)

    def test_policy_axis_parses_through_parse_policy(self):
        pol = RuntimeConfig(policy="grace:0.001").resolved_policy()
        assert isinstance(pol, PolicySpec)
        assert pol == parse_policy("grace:0.001")
        assert TopologySpec(policy="grace:0.001").policy == "grace:0.001"

    def test_policy_mismatch_makes_baseline_incomparable(self):
        run = run_scenario(
            get_scenario("queue-churn").with_measure(ops_scale=0.02)
        )
        baselines = {"queue-churn": baseline_entry(run)}
        baselines["queue-churn"]["policy"] = "threshold:64"
        report = build_report([run], baselines=baselines)
        entry = report["scenarios"]["queue-churn"]["regression"]
        assert entry["status"] == "incomparable"
        assert "policy" in str(entry)


# the shared policy gate (every scheme)
# ----------------------------------------------------------------------
class TestPolicyGate:
    @pytest.mark.parametrize("scheme", ["ebr", "hp", "qsbr", "ibr"])
    def test_deferral_is_free_and_ticks_the_window_once(self, scheme):
        from repro.reclaim import make_reclaimer
        from repro.runtime import Runtime
        from repro.runtime.context import current_context

        rt = Runtime(
            config=RuntimeConfig(
                num_locales=2, reclaimer=scheme, policy="threshold:64"
            )
        )
        aggregator = rt.network.aggregator
        ticks = []
        tick = aggregator.policy_tick
        aggregator.policy_tick = lambda: ticks.append(1) or tick()

        def main():
            rec = make_reclaimer(rt, scheme)
            before = current_context().now
            assert not rec.try_reclaim()  # nothing pending: deferred
            assert current_context().now == before
            assert len(ticks) == 1
            stats = rec.stats()
            assert stats["policy_deferrals"] == 1
            assert stats["reclaim_attempts"] == 1
            rec.destroy()

        rt.run(main)
        rt.close()


# ----------------------------------------------------------------------
# end-to-end determinism (the acceptance criteria, full strength)
# ----------------------------------------------------------------------
class TestEndToEnd:
    @pytest.mark.parametrize(
        "name",
        [
            "policy-sweep-hier-threshold",
            "policy-sweep-hier-decay",
            "policy-sweep-hier-grace",
            "policy-sweep-dragonfly-adaptive",
        ],
    )
    def test_decisions_identical_across_repeats_and_pools(self, name):
        """Bit-identical decisions across repeats and pools {1, 2, 4, 8}.

        ``repeats=2`` makes the runner itself verify run-to-run equality;
        the loop then checks the four pool sizes against each other,
        including the policy decision counters and the final window.
        """
        base = get_scenario(name).with_measure(ops_scale=0.25, repeats=2)
        results = []
        for pool in (1, 2, 4, 8):
            run = run_scenario(base.with_topology(worker_pool_size=pool))
            em = run.result.extra.get("em", {})
            results.append(
                (
                    run.result.elapsed,
                    run.result.operations,
                    dict(run.result.comm),
                    em.get("advances"),
                    em.get("policy_deferrals"),
                    em.get("window"),
                )
            )
        assert all(r == results[0] for r in results), (
            f"{name} decisions depend on pool size: {results}"
        )

    def test_engaged_default_reproduces_shipped_baseline(self):
        """``--policy fixed`` must be bit-identical to leaving it unset."""
        run = run_scenario(
            get_scenario("queue-churn").with_topology(policy="fixed+static")
        )
        report = build_report([run], baselines=load_baselines(BASELINES))
        entry = report["scenarios"]["queue-churn"]["regression"]
        assert entry["status"] == "match", entry

    @pytest.mark.parametrize(
        "name",
        ["policy-sweep-hier-threshold", "policy-sweep-dragonfly-adaptive"],
    )
    def test_policy_sweeps_reproduce_shipped_baselines(self, name):
        run = run_scenario(get_scenario(name))
        report = build_report([run], baselines=load_baselines(BASELINES))
        entry = report["scenarios"][name]["regression"]
        assert entry["status"] == "match", entry

    def test_adaptive_beats_its_static_twin(self):
        """The head-to-head the sweep baselines record: same machine, same
        workload, window free to grow — strictly less virtual time."""
        static = run_scenario(get_scenario("policy-sweep-dragonfly-w16"))
        adaptive = run_scenario(get_scenario("policy-sweep-dragonfly-adaptive"))
        assert adaptive.result.elapsed < static.result.elapsed
        assert adaptive.result.extra["em"]["window"] > 16

    def test_policy_decisions_change_behaviour(self):
        """A deferring threshold policy must actually skip root scans."""
        base = get_scenario("policy-sweep-hier-threshold")
        fixed = run_scenario(base.with_topology(policy="fixed"))
        gated = run_scenario(base)
        assert gated.result.extra["em"]["policy_deferrals"] > 0
        assert gated.result.extra["em"]["reclaims"] < fixed.result.extra["em"]["reclaims"]
