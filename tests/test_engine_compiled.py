"""The compiled-engine bit-identity gate (docs/ENGINE.md).

The ``engine = "compiled"`` axis must never change virtual results: for
every workload — whether it lowers to the columnar replay, the serial
tier, or falls back to the interpreter — virtual time, comm totals,
reclaim stats and trace spans must be bit-identical to an interpreted
run, across the scenario registry, all four reclaimers, and worker-pool
sizes {1, 2, 4, 8}.

Alongside the end-to-end gate, the column lowerings of
:mod:`repro.engine.opstream` are pinned against the RNG streams the
interpreted task bodies consume — the "same bit stream" precondition the
executor's replay correctness rests on — and the compilation cache's
hit path is pinned against its cold path.
"""

import random
from types import SimpleNamespace

import pytest

from repro.atomics.integer import AtomicUInt64
from repro.bench import scenarios
from repro.bench.workloads import (
    _place_objects,
    run_atomic_mix,
    run_epoch_mixed,
    run_epoch_workload,
    run_multi_structure,
    run_producer_consumer,
)
from repro.core import EpochManager
from repro.engine import COLUMN_CACHE, compiled_plan, engine_summary, run_alloc_phase
from repro.engine.executor import _cpu_plan, _instance_target
from repro.engine.opstream import fast_randbelow, mix_column, zipf_column
from repro.errors import CompiledFallbackError, LocaleError, RuntimeStateError
from repro.runtime.config import RECLAIMER_SCHEMES, RuntimeConfig
from repro.runtime.runtime import Runtime


def _fingerprint(result):
    """Everything the bit-identity contract pins for one workload run."""
    return (
        result.elapsed,
        result.operations,
        tuple(sorted(result.comm.items())),
        scenarios._jsonable(result.extra),
    )


def _run_scenario(name, engine, **topo_overrides):
    spec = scenarios.get_scenario(name).with_topology(
        engine=engine, **topo_overrides
    )
    spec = spec.with_measure(ops_scale=0.25)
    return _fingerprint(scenarios.run_scenario(spec).result)


def _run_workload(fn, kwargs, engine, **cfg):
    """One workload run; the fingerprint includes trace events if any."""
    rt = Runtime(config=RuntimeConfig(engine=engine, **cfg))
    fp = _fingerprint(fn(rt, **kwargs))
    events = rt._tracer.events() if rt._tracer is not None else None
    return fp + (events,)


# A slice of the registry covering every lowering path: the compiled
# atomic mix and hotspot (flat / hier / dragonfly / AM transport), the
# compiled epoch rounds under EBR and HP (open aggregation windows,
# ragged shapes), the serial tier (churn, multi_structure), and the
# multi-task token bank.
SCENARIO_SAMPLE = [
    "paper-atomic-mix",
    "hotspot-zipf",
    "hotspot-zipf-am",
    "topo-dragonfly-hotspot",
    "write-heavy-reclaim",
    "topo-hier-agg-ebr-w16",
    "topo-hier-ragged",
    "topo-dragonfly-agg-ebr-w16",
    "topo-dragonfly-agg-hp-w16",
    "queue-churn",
    "multi-structure",
]


class TestScenarioEquivalence:
    @pytest.mark.parametrize("name", SCENARIO_SAMPLE)
    def test_compiled_matches_interpreted(self, name):
        interpreted = _run_scenario(name, "interpreted")
        compiled = _run_scenario(name, "compiled")
        assert compiled == interpreted

    @pytest.mark.parametrize("scheme", RECLAIMER_SCHEMES)
    def test_all_reclaimers(self, scheme):
        # epoch_mixed under every scheme: EBR and HP rounds replay
        # columnar (run_ebr_epoch_phase / run_guard_epoch_phase), QSBR
        # and IBR rounds run the real bodies on the serial tier.
        name = f"reclaim-hotspot-{scheme}"
        interpreted = _run_scenario(name, "interpreted")
        compiled = _run_scenario(name, "compiled")
        assert compiled == interpreted

    @pytest.mark.parametrize("pool", [1, 2, 4, 8])
    @pytest.mark.parametrize(
        "name", ["paper-atomic-mix", "topo-hier-agg-ebr-w16"]
    )
    def test_pool_sizes(self, name, pool):
        # The compiled replay is one legal (pool-size-1) schedule; it
        # must agree with interpreted runs at every pool size, and a
        # compiled run's own pool size must be irrelevant.
        interpreted = _run_scenario(name, "interpreted", worker_pool_size=pool)
        compiled = _run_scenario(name, "compiled", worker_pool_size=pool)
        assert compiled == interpreted


class TestReclaimerMatrix:
    """Bit-identity pins for the fig4-7 epoch workload and the epoch_mixed
    rounds, lowered or serial: every reclaimer x pool size x trace detail."""

    @pytest.mark.parametrize("trace", ["off", "spans"])
    @pytest.mark.parametrize("pool", [1, 2, 4, 8])
    @pytest.mark.parametrize("scheme", RECLAIMER_SCHEMES)
    def test_epoch_workload(self, scheme, pool, trace):
        kwargs = dict(ops_per_task=24, remote_percent=50, delete=True)
        cfg = dict(
            num_locales=4,
            reclaimer=scheme,
            worker_pool_size=pool,
            trace=trace,
        )
        a = _run_workload(run_epoch_workload, kwargs, "interpreted", **cfg)
        b = _run_workload(run_epoch_workload, kwargs, "compiled", **cfg)
        assert a == b

    @pytest.mark.parametrize("trace", ["off", "spans"])
    @pytest.mark.parametrize("scheme", RECLAIMER_SCHEMES)
    def test_epoch_mixed_guard_rounds(self, scheme, trace):
        kwargs = dict(
            ops_per_task=48, write_percent=75, remote_percent=100, rounds=4
        )
        cfg = dict(num_locales=4, reclaimer=scheme, trace=trace)
        a = _run_workload(run_epoch_mixed, kwargs, "interpreted", **cfg)
        b = _run_workload(run_epoch_mixed, kwargs, "compiled", **cfg)
        assert a == b

    @pytest.mark.parametrize("scheme", RECLAIMER_SCHEMES)
    def test_epoch_readonly(self, scheme):
        # Figure 7's pin/unpin-only loop (delete=False).
        kwargs = dict(ops_per_task=24, remote_percent=0, delete=False)
        cfg = dict(num_locales=4, reclaimer=scheme)
        a = _run_workload(run_epoch_workload, kwargs, "interpreted", **cfg)
        b = _run_workload(run_epoch_workload, kwargs, "compiled", **cfg)
        assert a == b

    def test_hp_threshold_scans_fire_mid_phase(self):
        # >= scan_threshold retirements per guard: the value-dependent
        # hazard scan runs for real inside the replay, on the task clock.
        kwargs = dict(ops_per_task=200, write_percent=100, remote_percent=50)
        cfg = dict(num_locales=4, reclaimer="hp")
        a = _run_workload(run_epoch_mixed, kwargs, "interpreted", **cfg)
        b = _run_workload(run_epoch_mixed, kwargs, "compiled", **cfg)
        assert a == b
        # The scans actually fired (800 retirements, threshold 128).
        assert a[3]["em"]["scans"] > 0

    @pytest.mark.parametrize("scheme", RECLAIMER_SCHEMES)
    @pytest.mark.parametrize("structure", ["queue", "stack"])
    def test_churn_serial_tier(self, structure, scheme):
        kwargs = dict(structure=structure, items_per_task=24, rounds=2)
        cfg = dict(num_locales=4, reclaimer=scheme)
        a = _run_workload(run_producer_consumer, kwargs, "interpreted", **cfg)
        b = _run_workload(run_producer_consumer, kwargs, "compiled", **cfg)
        assert a == b

    def test_multi_structure_serial_tier(self):
        kwargs = dict(ops_per_slot=24)
        cfg = dict(num_locales=4)
        a = _run_workload(run_multi_structure, kwargs, "interpreted", **cfg)
        b = _run_workload(run_multi_structure, kwargs, "compiled", **cfg)
        assert a == b


# ``(id suffix, ops_per_task, machine)`` of the object-cell lowerings:
# ragged op counts cut the last 4-op cycle before (30) or after (31) its
# doubled CAS charge, and the multi-class machines make each locale pick
# a different per-(cell, class) plan per cell.
_OBJECT_SHAPES = [
    ("", 32, dict(num_locales=2)),
    ("-ragged30", 30, dict(num_locales=2)),
    ("-ragged31", 31, dict(num_locales=3)),
    ("-hier2x2", 32, dict(num_locales=8, topology="hier:2x2")),
    ("-dragonfly2", 30, dict(num_locales=6, topology="dragonfly:2")),
]


class TestWorkloadEquivalence:
    """Direct workload-level equivalence on shapes the registry lacks."""

    @staticmethod
    def _results(fn, kwargs, **cfg):
        return [
            _run_workload(fn, kwargs, engine, **cfg)
            for engine in ("interpreted", "compiled")
        ]

    @pytest.mark.parametrize("network", ["ugni", "none"])
    @pytest.mark.parametrize("nloc", [1, 3])
    def test_mix_small_machines(self, network, nloc):
        a, b = self._results(
            run_atomic_mix,
            dict(cell="atomic_int", ops_per_task=48, tasks_per_locale=2),
            num_locales=nloc,
            network=network,
            tasks_per_locale=2,
        )
        assert a == b

    def test_hotspot_skewed(self):
        a, b = self._results(
            run_atomic_mix,
            dict(
                cell="atomic_int",
                ops_per_task=64,
                tasks_per_locale=2,
                num_cells=8,
                zipf_exponent=2.0,
            ),
            num_locales=4,
            tasks_per_locale=2,
        )
        assert a == b

    @pytest.mark.parametrize(
        "cell", ["atomic_int", "atomic_object", "atomic_object_aba"]
    )
    @pytest.mark.parametrize(
        "zipf_exponent", [None, 1.2], ids=["uniform", "zipf"]
    )
    def test_every_draw_and_cell_kind(self, cell, zipf_exponent):
        # One generator, two target draws, three cell kinds: every
        # combination replays bit-identically (ragged 4-op cycle, several
        # tasks per locale, a skewed draw over few cells).
        a, b = self._results(
            run_atomic_mix,
            dict(
                cell=cell,
                ops_per_task=31,
                tasks_per_locale=2,
                num_cells=8,
                zipf_exponent=zipf_exponent,
            ),
            num_locales=3,
            tasks_per_locale=2,
        )
        assert a == b

    def test_epoch_mixed_multi_round_reclaim(self):
        a, b = self._results(
            run_epoch_mixed,
            dict(
                ops_per_task=48,
                tasks_per_locale=1,
                write_percent=75,
                remote_percent=100,
                rounds=4,
            ),
            num_locales=4,
            tasks_per_locale=1,
        )
        assert a == b

    def test_epoch_mixed_endonly_multitask(self):
        a, b = self._results(
            run_epoch_mixed,
            dict(
                ops_per_task=48,
                tasks_per_locale=3,
                write_percent=25,
                remote_percent=0,
                rounds=2,
                reclaim_between_rounds=False,
            ),
            num_locales=4,
            tasks_per_locale=3,
        )
        assert a == b

    @pytest.mark.parametrize(
        "kind, ops_per_task, machine",
        [
            pytest.param(kind, ops, machine, id=kind + label)
            for kind in ("atomic_object", "atomic_object_aba")
            for label, ops, machine in _OBJECT_SHAPES
        ],
    )
    def test_object_mix_lowers(self, kind, ops_per_task, machine):
        # The AtomicObject variants lower now: the (1, 1, 2, 1) op-cycle
        # charges on the narrow (plain) or wide (ABA) route row.
        tier, _ = compiled_plan("atomic_mix")
        assert tier == "columnar"
        a, b = self._results(
            run_atomic_mix,
            dict(cell=kind, ops_per_task=ops_per_task, tasks_per_locale=1),
            tasks_per_locale=1,
            **machine,
        )
        assert a == b

    def test_object_hotspot_lowers(self):
        for _label, ops, machine in _OBJECT_SHAPES:
            a, b = self._results(
                run_atomic_mix,
                dict(
                    cell="atomic_object",
                    ops_per_task=ops,
                    num_cells=8,
                    zipf_exponent=1.2,
                ),
                **machine,
            )
            assert a == b, machine


SEED_OPS = 1 << 12

#: Five 8-locale ``ugni`` shapes, one task per locale: the Fig 3
#: ``atomic int`` mix and its Zipf hotspot, the Fig 7 read-only epoch
#: workload, and Fig 4's and Fig 5's phased-reclaim shapes (25 % and
#: 100 % of ops retire, 50 % remote, 4 rounds).
SEED_SHAPES = {
    "fig3_atomics": (run_atomic_mix, dict(cell="atomic_int", ops_per_task=SEED_OPS)),
    "fig3_hotspot": (
        run_atomic_mix,
        dict(cell="atomic_int", ops_per_task=SEED_OPS, num_cells=64, zipf_exponent=1.2),
    ),
    "fig7_readonly": (
        run_epoch_workload,
        dict(
            ops_per_task=SEED_OPS,
            delete=False,
            reclaim_every=None,
            cleanup_at_end=False,
        ),
    ),
    "reclaim_sparse": (
        run_epoch_mixed,
        dict(ops_per_task=SEED_OPS // 4, write_percent=25, remote_percent=50, rounds=4),
    ),
    "reclaim_dense": (
        run_epoch_mixed,
        dict(ops_per_task=SEED_OPS // 4, write_percent=100, remote_percent=50, rounds=4),
    ),
}

_NO_COMM = dict.fromkeys(
    ("get", "put", "amo", "local_amo", "am", "fork", "bulk", "bulk_bytes"), 0
)

#: Virtual seconds and comm totals of the thread-per-task seed engine.
#: Every engine since must reproduce them exactly.
SEED_RESULTS = {
    "fig3_atomics": (
        0.004692420000000045,
        {**_NO_COMM, "amo": 28824, "local_amo": 3944},
    ),
    "fig7_readonly": (
        0.0007625500000003865,
        {**_NO_COMM, "local_amo": 131144, "fork": 14},
    ),
}


class TestSeedShapes:
    """The 8-locale shapes run fully compiled, agree with the interpreter,
    and the two the seed engine measured still give its results."""

    @staticmethod
    def _run(name, engine):
        fn, kwargs = SEED_SHAPES[name]
        rt = Runtime(
            config=RuntimeConfig(
                num_locales=8, network="ugni", tasks_per_locale=1, engine=engine
            )
        )
        try:
            return fn(rt, tasks_per_locale=1, **kwargs), engine_summary(rt)
        finally:
            rt.close()

    @pytest.mark.parametrize("name", sorted(SEED_SHAPES))
    def test_engines_agree_and_match_seed(self, name):
        interp, _ = self._run(name, "interpreted")
        comp, summary = self._run(name, "compiled")
        assert summary["effective"] == "compiled", summary
        assert "fallbacks" not in summary, summary
        assert (comp.elapsed, comp.comm) == (interp.elapsed, interp.comm)
        if name in SEED_RESULTS:
            assert (interp.elapsed, interp.comm) == SEED_RESULTS[name]


def _point_states(fn, kwargs, engine, trace, **cfg):
    """``(name, next_free, idle_bank, busy_time, served)`` of every NIC,
    progress and uplink point after one run, plus the run's tier counts."""
    rt = Runtime(config=RuntimeConfig(engine=engine, trace=trace, **cfg))
    try:
        fn(rt, **kwargs)
        net = rt.network
        points = [*net.nic, *net.progress, *net.uplinks.values()]
        states = [
            (p.name, p.next_free, p.idle_bank, p.busy_time, p.served)
            for p in points
        ]
        return states, engine_summary(rt).get("phases", {})
    finally:
        rt.close()


class TestPointStateInPlace:
    """The columnar replay charges the real service points in spawn order,
    so their whole state — ``busy_time`` included — equals the interpreted
    inline spawn-order schedule's (``trace="full"`` forces that path)."""

    @pytest.mark.parametrize(
        "fn, kwargs, cfg",
        [
            pytest.param(
                run_atomic_mix,
                dict(cell="atomic_int", ops_per_task=48, tasks_per_locale=2),
                dict(num_locales=4, network=network, tasks_per_locale=2),
                id=f"atomic-mix-{network}",
            )
            for network in ("ugni", "none")
        ]
        + [
            pytest.param(
                run_epoch_mixed,
                dict(
                    ops_per_task=64,
                    write_percent=50,
                    remote_percent=50,
                    rounds=2,
                ),
                dict(
                    num_locales=8,
                    topology="hier:2x2",
                    aggregation=16,
                    reclaimer=scheme,
                ),
                id=f"hier-agg-epoch-mixed-{scheme}",
            )
            for scheme in ("ebr", "hp")
        ]
        + [
            pytest.param(
                run_epoch_workload,
                dict(ops_per_task=24, remote_percent=50, delete=True),
                dict(num_locales=4, reclaimer="ebr"),
                id="listing5-ebr-remote50",
            )
        ],
    )
    def test_points_match_interpreted_inline(self, fn, kwargs, cfg):
        compiled, tiers = _point_states(fn, kwargs, "compiled", "off", **cfg)
        interpreted, _ = _point_states(
            fn, kwargs, "interpreted", "full", **cfg
        )
        assert tiers.get("columnar", 0) > 0  # the replay actually ran
        assert compiled == interpreted


class TestAllocPhase:
    """``Runtime.new_objs`` (and the ``run_alloc_phase`` delegate) equals
    the ``new_obj`` loop it batches: addresses, root clock, comm totals,
    service-point state, every heap's stats and, traced, every event."""

    MACHINES = [
        pytest.param(dict(topology=topology, network=network), id=f"{topology}-{network}")
        for topology in ("flat", "hier:2x2", "dragonfly:4")
        for network in ("ugni", "none")
    ]

    @staticmethod
    def _loop(rt, targets):
        return [rt.new_obj(object(), locale=t) for t in targets]

    @staticmethod
    def _targets(remote_percent, n=200):
        """Items owned cyclically; ``remote_percent`` of them elsewhere."""
        rng = random.Random(24 + remote_percent)
        return [
            (i + rng.randrange(1, 8)) % 8 if rng.randrange(100) < remote_percent else i % 8
            for i in range(n)
        ]

    @staticmethod
    def _run(place, targets, trace="off", **machine):
        config = RuntimeConfig.from_topology(locales=8, trace=trace, **machine)
        rt = Runtime(config=config)
        try:
            for loc in rt.locales:  # a free list to reuse from, LIFO
                addrs = [loc.heap.alloc(i) for i in range(6)]
                for a in addrs[1::2]:
                    loc.heap.free(a.offset)
            net = rt.network

            def main():
                rt._own_context().now = 1e-7  # a nonzero float base
                return place(rt, targets), rt._own_context().now

            addrs, now = rt.run(main)
            points = [
                (p.next_free, p.idle_bank, p.busy_time, p.served)
                for p in (*net.nic, *net.progress, *net.uplinks.values())
            ]
            return (
                addrs,
                now,
                sorted(rt.comm_totals().items()),
                points,
                [loc.heap.snapshot_stats() for loc in rt.locales],
                rt._tracer.events() if rt._tracer is not None else None,
            )
        finally:
            rt.close()

    @pytest.mark.parametrize("machine", MACHINES)
    @pytest.mark.parametrize("remote_percent", [0, 50, 100])
    def test_matches_interpreted_new_obj_loop(self, machine, remote_percent):
        targets = self._targets(remote_percent)
        batched = self._run(Runtime.new_objs, targets, **machine)
        assert batched == self._run(self._loop, targets, **machine)
        assert self._run(run_alloc_phase, targets, **machine) == batched
        assert any(s.reuses for s in batched[4])
        if remote_percent and machine["topology"] == "flat":
            assert dict(batched[2])["am"] > 0  # non-coherent homes paid AMs

    @pytest.mark.parametrize("machine", MACHINES[::2])
    def test_full_trace_events_match_new_obj_loop(self, machine):
        targets = self._targets(50, n=40)
        batched = self._run(Runtime.new_objs, targets, trace="full", **machine)
        assert batched[5]  # the tracer recorded the allocations
        assert batched == self._run(self._loop, targets, trace="full", **machine)

    def test_outside_a_task_allocates_without_charges(self):
        targets = self._targets(50, n=40)
        results = []
        for place in (Runtime.new_objs, self._loop):
            rt = Runtime(num_locales=8)
            addrs = place(rt, targets)  # no task of this runtime: no charge
            results.append((addrs, sorted(rt.comm_totals().items())))
            assert all(rt.is_live(a) for a in addrs)
            rt.close()
        assert results[0] == results[1]
        assert not any(v for _, v in results[0][1])

    @pytest.mark.parametrize("bad", [8, -1, 1.0, "1", True, None])
    def test_bad_locale_raises_before_any_charge_or_allocation(self, bad):
        rt = Runtime(num_locales=8)
        try:
            def main():
                ctx = rt._own_context()
                with pytest.raises(LocaleError):
                    rt.new_objs([1, 2, bad, 3])
                return ctx.now

            assert rt.run(main) == 0.0
            assert not any(rt.comm_totals().values())
            assert all(loc.heap.snapshot_stats().allocations == 0 for loc in rt.locales)
        finally:
            rt.close()


class TestEbrReplayCells:
    """The EBR replay serves only the lines of its cells (instance epoch,
    token slot, limbo and pool heads): all are opted out of network
    atomics and charged only from their instance's home locales, so their
    routes are CPU-only.  ``_cpu_plan`` checks that when a replay plan is
    built."""

    MACHINES = [
        pytest.param(
            dict(topology=topology, aggregation=window, network=network),
            id=f"{topology}-w{window}-{network}",
        )
        for topology, window in (
            ("flat", 1), ("hier:2x2", 1), ("hier:2x2", 4), ("dragonfly:4", 1)
        )
        for network in ("ugni", "none")
    ]

    @staticmethod
    def _config(engine="interpreted", **machine):
        return RuntimeConfig.from_topology(locales=8, engine=engine, **machine)

    @pytest.mark.parametrize("machine", MACHINES)
    def test_replay_cells_are_cpu_only(self, machine):
        rt = Runtime(config=self._config(**machine))
        net = rt.network

        def main():
            em = EpochManager(rt)
            for lid in range(rt.num_locales):
                with rt.on(lid):
                    tok = em.register()
                for src in sorted(tok._home_locales):
                    _instance_target(net, tok, src)  # epoch, limbo, pool
                    _cpu_plan(net, tok.local_epoch, src)
            return em.share_coherent

        shared = rt.run(main)
        # An open window on the hierarchical machine shares instances, so
        # siblings charge the cells from another locale of the socket.
        assert shared == (machine["aggregation"] > 1)

    @pytest.mark.parametrize("machine", MACHINES)
    def test_ebr_replays_match_interpreted(self, machine):
        shapes = [
            (run_epoch_mixed, dict(ops_per_task=32, write_percent=50,
                                   remote_percent=50, rounds=2)),
            (run_epoch_workload, dict(ops_per_task=16, remote_percent=50,
                                      delete=True)),
        ]
        for fn, kwargs in shapes:
            runs = {}
            for engine in ("interpreted", "compiled-strict"):
                rt = Runtime(config=self._config(engine, **machine))
                runs[engine] = _fingerprint(fn(rt, **kwargs))
                if engine != "interpreted":
                    assert engine_summary(rt)["phases"].get("columnar", 0) > 0
            assert runs["compiled-strict"] == runs["interpreted"]

    def test_a_point_on_the_route_is_refused(self):
        rt = Runtime(config=self._config(network="ugni"))

        def main():
            # A plain (not opted-out) cell charged from another locale
            # rides the home NIC.
            cell = AtomicUInt64(rt, 1, name="remote-cell")
            with pytest.raises(RuntimeStateError, match="remote-cell"):
                _cpu_plan(rt.network, cell, 0)

        rt.run(main)


class TestCompilationCache:
    """Cold-vs-hit paths of the cross-run column cache."""

    def test_hit_path_is_bit_identical_to_cold(self):
        kwargs = dict(cell="atomic_int", ops_per_task=48, tasks_per_locale=2)
        cfg = dict(num_locales=2, tasks_per_locale=2)
        COLUMN_CACHE.clear()
        cold = _run_workload(run_atomic_mix, kwargs, "compiled", **cfg)
        hits0, misses0, entries0 = COLUMN_CACHE.stats()
        assert misses0 >= 1 and entries0 >= 1
        warm = _run_workload(run_atomic_mix, kwargs, "compiled", **cfg)
        hits1, misses1, _ = COLUMN_CACHE.stats()
        assert hits1 > hits0  # the repeat run reused the lowered columns
        assert misses1 == misses0
        assert warm == cold

    def test_distinct_shapes_get_distinct_entries(self):
        COLUMN_CACHE.clear()
        cfg = dict(num_locales=2)
        _run_workload(
            run_atomic_mix, dict(cell="atomic_int", ops_per_task=32),
            "compiled", **cfg
        )
        _, misses_a, _ = COLUMN_CACHE.stats()
        _run_workload(
            run_atomic_mix, dict(cell="atomic_int", ops_per_task=64),
            "compiled", **cfg
        )
        _, misses_b, _ = COLUMN_CACHE.stats()
        assert misses_b > misses_a  # different shape, different key

    def test_columns_shared_across_cell_kinds(self):
        # The mix draw stream is kind-independent: the object variant
        # reuses the integer variant's columns.
        COLUMN_CACHE.clear()
        cfg = dict(num_locales=2)
        _run_workload(
            run_atomic_mix, dict(cell="atomic_int", ops_per_task=32),
            "compiled", **cfg
        )
        hits0, misses0, _ = COLUMN_CACHE.stats()
        _run_workload(
            run_atomic_mix, dict(cell="atomic_object", ops_per_task=32),
            "compiled", **cfg
        )
        hits1, misses1, _ = COLUMN_CACHE.stats()
        assert misses1 == misses0
        assert hits1 > hits0

    def test_scenario_repeats_share_columns(self):
        COLUMN_CACHE.clear()
        spec = scenarios.get_scenario("paper-atomic-mix").with_topology(
            engine="compiled"
        )
        spec = spec.with_measure(ops_scale=0.25, repeats=3)
        scenarios.run_scenario(spec)
        hits, misses, _ = COLUMN_CACHE.stats()
        assert misses >= 1
        assert hits >= misses  # repeats 2 and 3 hit what repeat 1 built


class TestStrictMode:
    """``compiled-strict``: any interpreter fallback is an error."""

    def test_strict_passes_on_lowered_shape(self):
        kwargs = dict(ops_per_task=24, remote_percent=50, delete=True)
        cfg = dict(num_locales=4, reclaimer="ebr")
        a = _run_workload(run_epoch_workload, kwargs, "interpreted", **cfg)
        b = _run_workload(run_epoch_workload, kwargs, "compiled-strict", **cfg)
        assert a == b

    def test_strict_passes_on_serial_tier(self):
        kwargs = dict(structure="queue", items_per_task=16, rounds=2)
        cfg = dict(num_locales=2)
        a = _run_workload(run_producer_consumer, kwargs, "interpreted", **cfg)
        b = _run_workload(
            run_producer_consumer, kwargs, "compiled-strict", **cfg
        )
        assert a == b

    @pytest.mark.parametrize("scheme", ["qsbr", "ibr"])
    def test_strict_runs_unlowered_schemes_serial(self, scheme):
        spec = scenarios.get_scenario(f"reclaim-hotspot-{scheme}")
        spec = spec.with_topology(engine="compiled-strict")
        run = scenarios.run_scenario(spec.with_measure(ops_scale=0.25))
        assert run.engine["effective"] == "compiled"
        assert run.engine["phases"] == {"serial": 1}

    def test_strict_raises_on_fallback_shape(self):
        # Mid-phase tryReclaim elections are schedule-scoped: no lowering.
        rt = Runtime(
            config=RuntimeConfig(engine="compiled-strict", num_locales=2)
        )
        with pytest.raises(CompiledFallbackError, match="fell back"):
            run_epoch_workload(rt, ops_per_task=16, reclaim_every=8)

    def test_strict_raises_under_full_tracing(self):
        rt = Runtime(
            config=RuntimeConfig(
                engine="compiled-strict", num_locales=2, trace="full"
            )
        )
        with pytest.raises(CompiledFallbackError, match="trace=full"):
            run_atomic_mix(rt, cell="atomic_int", ops_per_task=16)

    def test_plain_compiled_still_falls_back_silently(self):
        # The reclaim_every shape is the one place results ARE allowed to
        # vary between runs (mid-phase tryReclaim elections follow the
        # real schedule — the documented reason it cannot lower), so this
        # asserts the fallback contract, not bit-equality: plain
        # ``compiled`` runs the shape without raising and records the
        # fallback in the engine log.
        rt = Runtime(config=RuntimeConfig(engine="compiled", num_locales=2))
        try:
            run_epoch_workload(rt, ops_per_task=16, reclaim_every=8)
            summary = engine_summary(rt)
        finally:
            rt.close()
        assert summary["configured"] == "compiled"
        assert summary["effective"] == "interpreted"
        assert summary["fallbacks"] == [
            {
                "workload": "epoch",
                "reason": "mid-phase tryReclaim elections are schedule-scoped",
            }
        ]


class TestEngineReporting:
    """The effective-engine record and the computed coverage column."""

    def test_compiled_run_reports_effective_engine(self):
        spec = scenarios.get_scenario("queue-churn").with_topology(
            engine="compiled"
        )
        spec = spec.with_measure(ops_scale=0.25)
        run = scenarios.run_scenario(spec)
        assert run.engine is not None
        assert run.engine["configured"] == "compiled"
        assert run.engine["effective"] == "compiled"
        assert run.engine["phases"].get("serial", 0) > 0
        assert "fallbacks" not in run.engine
        assert run.engine == run.report_entry()["engine"]
        # The effective-engine record must never leak into extra: extra
        # is part of the bit-identity fingerprint.
        assert "engine" not in run.result.extra

    def test_interpreted_run_reports_interpreted(self):
        spec = scenarios.get_scenario("queue-churn").with_measure(
            ops_scale=0.25
        )
        run = scenarios.run_scenario(spec)
        assert run.engine == {
            "configured": "interpreted",
            "effective": "interpreted",
        }

    def test_fallback_phases_are_recorded(self):
        rt = Runtime(config=RuntimeConfig(engine="compiled", num_locales=2))
        run_epoch_workload(rt, ops_per_task=16, reclaim_every=8)
        summary = engine_summary(rt)
        assert summary["effective"] == "interpreted"
        assert summary["phases"] == {"interpreted": 1}
        assert summary["fallbacks"] == [
            {
                "workload": "epoch",
                "reason": (
                    "mid-phase tryReclaim elections are schedule-scoped"
                ),
            }
        ]

    def test_compiled_coverage_is_computed(self):
        cov = {
            name: scenarios.compiled_coverage(scenarios.get_scenario(name))
            for name in scenarios.scenario_names()
        }
        assert cov["paper-atomic-mix"] == "columnar"
        assert cov["paper-reclaim-endonly"] == "columnar"
        assert cov["queue-churn"] == "serial"
        assert cov["multi-structure"] == "serial"
        # Pin-time-tracking policies need the serial tier (columnar
        # replay records no per-pin facts).
        assert cov["policy-sweep-hier-grace"] == "serial"
        # Only the EBR and HP epoch rounds lower; QSBR/IBR run serial.
        assert cov["reclaim-hotspot-ebr"] == "columnar"
        assert cov["reclaim-hotspot-hp"] == "columnar"
        assert cov["reclaim-hotspot-qsbr"] == "serial"
        assert cov["reclaim-hotspot-ibr"] == "serial"
        assert set(cov.values()) <= {"columnar", "serial", "interpreted"}

    @pytest.mark.parametrize(
        "kind, scheme, tier",
        [
            ("epoch_mixed", "ebr", "columnar"),
            ("epoch_mixed", "hp", "columnar"),
            ("epoch_mixed", "qsbr", "serial"),
            ("epoch_mixed", "ibr", "serial"),
            ("epoch", "ebr", "columnar"),
            ("epoch", "hp", "serial"),
            ("epoch", "qsbr", "serial"),
            ("epoch", "ibr", "serial"),
        ],
    )
    def test_epoch_tier_by_scheme(self, kind, scheme, tier):
        # The tier table docs/ENGINE.md "Which lowerings stay" justifies.
        assert compiled_plan(kind, reclaimer=scheme) == (tier, None)


class TestColumnLowerings:
    """The columns must consume the interpreted bodies' exact RNG streams."""

    # Powers of two reject half of all getrandbits draws; 1 draws 1 bit.
    @pytest.mark.parametrize("ncells", [1, 2, 3, 24, 64, 100, 512])
    def test_mix_column_pins_body_int_stream(self, ncells):
        seed, n_ops = 0xC0FFEE ^ 7, 100
        rng = random.Random()
        rng.seed(seed)
        column = mix_column(rng, n_ops, ncells)
        # The interpreted body draws rng._randbelow(ncells) once per op.
        ref = random.Random()
        ref.seed(seed)
        assert column == [ref._randbelow(ncells) for _ in range(n_ops)]
        # ... and takes exactly as many draws.
        assert rng.getstate() == ref.getstate()

    def test_epoch_mixed_write_table_unchanged(self, monkeypatch):
        # run_epoch_mixed's is_write table is still the list of
        # ``_randbelow(100) < write_percent`` draws from its table RNG.
        from repro.bench import workloads

        drawn = []

        def spy(rng, n_ops, ncells):
            column = mix_column(rng, n_ops, ncells)
            drawn.append((n_ops, ncells, column))
            return column

        monkeypatch.setattr(workloads, "mix_column", spy)
        rt = Runtime(config=RuntimeConfig(num_locales=2))
        result = run_epoch_mixed(
            rt, ops_per_task=50, write_percent=30, remote_percent=0
        )
        ref_rng = random.Random(rt.config.seed ^ 0x5DEECE66D)
        expected = [ref_rng._randbelow(100) < 30 for _ in range(100)]
        [(n_ops, ncells, column)] = drawn
        assert (n_ops, ncells) == (100, 100)
        assert [r < 30 for r in column] == expected
        assert result.extra["em"]["retired"] == sum(expected)

    def test_zipf_column_pins_body_stream(self):
        import bisect

        seed, n_ops = 12345, 64
        weights = [1.0 / ((rank + 1) ** 1.2) for rank in range(16)]
        cdf, acc = [], 0.0
        for w in weights:
            acc += w
            cdf.append(acc)
        rng = random.Random()
        rng.seed(seed)
        column = zipf_column(rng, n_ops, cdf, cdf[-1])
        ref = random.Random()
        ref.seed(seed)
        assert column == [
            bisect.bisect_left(cdf, ref.random() * cdf[-1])
            for _ in range(n_ops)
        ]

    def test_fast_randbelow_matches_randrange_stream(self):
        # The dedup'd helper must consume randrange's exact bit stream.
        a = random.Random()
        a.seed(99)
        b = random.Random()
        b.seed(99)
        draw = fast_randbelow(a)
        assert [draw(17) for _ in range(200)] == [
            b.randrange(17) for _ in range(200)
        ]

    @pytest.mark.parametrize("remote_percent", [0, 50, 100])
    @pytest.mark.parametrize("nloc", [1, 2, 5, 64])
    def test_placement_draws_match_randrange(self, nloc, remote_percent):
        """``_place_objects`` writes ``_randbelow`` out; its targets are
        those of the ``randrange`` loop it replaced."""
        seed, n = 0xC0FFEE, 300
        machine = SimpleNamespace(
            num_locales=nloc, config=SimpleNamespace(seed=seed), new_objs=list
        )
        rng = random.Random(seed ^ 0x9E3779B9)
        want = []
        for i in range(n):
            owner = i % nloc
            if nloc > 1 and rng.randrange(100) < remote_percent:
                want.append((owner + 1 + rng.randrange(nloc - 1)) % nloc)
            else:
                want.append(owner)
        got = _place_objects(machine, range(n), remote_percent)
        assert got == want
        remote = sum(t != i % nloc for i, t in enumerate(got))
        if nloc == 1 or remote_percent == 0:
            assert remote == 0
        elif remote_percent == 100:
            assert remote == n
        else:
            assert 0 < remote < n


class TestEngineAxis:
    def test_runtime_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RuntimeConfig(engine="vectorized")

    def test_runtime_config_accepts_strict(self):
        assert RuntimeConfig(engine="compiled-strict").engine == (
            "compiled-strict"
        )

    def test_topology_spec_rejects_unknown_engine(self):
        with pytest.raises(scenarios.ScenarioError, match="engine"):
            scenarios.TopologySpec(engine="vectorized")

    def test_engine_threads_through_topology_spec(self):
        topo = scenarios.TopologySpec(engine="compiled")
        assert topo.runtime_config().engine == "compiled"
        assert topo.as_dict()["engine"] == "compiled"
        # The default engine is omitted: it is not part of the simulated
        # machine, so baselines never record it.
        assert "engine" not in scenarios.TopologySpec().as_dict()

    def test_baseline_entry_never_records_engine(self):
        spec = scenarios.get_scenario("paper-atomic-mix").with_topology(
            engine="compiled"
        )
        spec = spec.with_measure(ops_scale=0.25)
        entry = scenarios.baseline_entry(scenarios.run_scenario(spec))
        assert "engine" not in entry
