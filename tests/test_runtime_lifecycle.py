"""A runtime's lifecycle: ``close()`` lets go of the simulated world.

The structures built on a runtime hold it, and the runtime reaches them
only through its privatized table and its heaps' payloads.  ``close()``
(run by ``with Runtime(...)``) drops both, and no other object graph of
the simulator is cyclic, so a finished machine is freed by reference
counting alone (docs/ENGINE.md, "Closing a runtime").  The oracle: with
the cyclic GC disabled, a finished run leaves zero unreachable objects.

A closed runtime refuses new work with ``RuntimeStateError``.
"""

from __future__ import annotations

import gc

import pytest

from repro.bench.scenarios import (
    TopologySpec,
    iter_scenarios,
    run_scenario,
    scenario_names,
)
from repro.errors import RuntimeStateError
from repro.reclaim import make_reclaimer
from repro.runtime import Runtime
from conftest import is_live

#: Small enough that all 42 scenarios run in about a second per trace level.
_OPS_SCALE = 1 / 16

_MACHINES = {
    "flat": dict(locales=4),
    "hier-2x2-agg": dict(locales=8, topology="hier:2x2", aggregation=4),
    "dragonfly-4": dict(locales=8, topology="dragonfly:4"),
}


@pytest.fixture
def no_cyclic_gc():
    """Disable the cyclic GC; yield a probe counting what it would free."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield gc.collect
    finally:
        if was_enabled:
            gc.enable()


def _small(name: str, trace: str):
    spec = next(s for s in iter_scenarios() if s.name == name)
    ops_scale = min(spec.measure.ops_scale, _OPS_SCALE)
    return spec.with_measure(ops_scale=ops_scale, repeats=1).with_topology(
        trace=trace
    )


@pytest.mark.parametrize("trace", ["off", "spans"])
@pytest.mark.parametrize("name", scenario_names())
def test_a_finished_scenario_leaves_no_garbage(name, trace, no_cyclic_gc):
    spec = _small(name, trace)
    run_scenario(spec)  # first run: lazy imports and column caches
    no_cyclic_gc()
    run = run_scenario(spec)
    assert no_cyclic_gc() == 0
    assert run.result.operations > 0
    assert (run.trace_events is not None) == (trace != "off")


@pytest.mark.parametrize("machine", sorted(_MACHINES))
def test_a_bare_runtime_leaves_no_garbage(machine, no_cyclic_gc):
    config = TopologySpec(**_MACHINES[machine]).runtime_config()
    with Runtime(config=config):
        pass
    assert no_cyclic_gc() == 0


@pytest.mark.parametrize("trace", ["off", "spans", "full"])
@pytest.mark.parametrize("scheme", ["ebr", "hp", "qsbr", "ibr"])
@pytest.mark.parametrize("machine", sorted(_MACHINES))
def test_a_runtime_with_live_structures_leaves_no_garbage(
    machine, scheme, trace, no_cyclic_gc
):
    """Guards and tokens still registered, objects still retired and
    allocated when the block ends: ``close()`` alone frees them."""
    config = TopologySpec(
        **_MACHINES[machine], reclaimer=scheme, trace=trace
    ).runtime_config()
    with Runtime(config=config) as rt:

        def main():
            rec = make_reclaimer(rt, scheme)
            guards = []

            def body(i):
                guard = rec.register()
                guard.pin()
                guard.defer_delete(rt.new_obj(object()))
                guard.unpin()
                guards.append(guard)

            rt.forall(range(2 * rt.num_locales), body)
            rec.try_reclaim()
            return len(guards)

        assert rt.run(main) == 2 * rt.num_locales
    assert no_cyclic_gc() == 0
    if trace != "off":
        assert rt._tracer.events()


class TestClosedRuntime:
    def test_with_block_closes(self):
        with Runtime(num_locales=2) as rt:
            rt.run(lambda: rt.forall(range(4), lambda i: None))
        with pytest.raises(RuntimeStateError, match="runtime is closed"):
            rt.run(lambda: None)

    def test_run_after_close_raises(self):
        rt = Runtime(num_locales=2)
        rt.close()
        with pytest.raises(RuntimeStateError, match="runtime is closed"):
            rt.run(lambda: None)

    def test_register_privatized_after_close_raises(self):
        rt = Runtime(num_locales=2)
        rt.close()
        with pytest.raises(RuntimeStateError, match="runtime is closed"):
            rt.register_privatized([object(), object()])

    def test_second_close_is_a_no_op(self):
        rt = Runtime(num_locales=2)
        rt.close()
        rt.close()
        with pytest.raises(RuntimeStateError, match="runtime is closed"):
            rt.run(lambda: None)

    def test_what_run_scenario_reads_survives_close(self):
        config = TopologySpec(locales=2, trace="spans").runtime_config()
        with Runtime(config=config) as rt:
            rt.run(lambda: rt.coforall_locales(lambda lid: None))
            totals = rt.comm_totals()
        assert rt.config is config
        assert [ev["name"] for ev in rt._tracer.events()] == ["coforall"]
        assert rt.comm_totals() == totals and totals["fork"] == 1

    def test_close_drops_the_heaps_payloads(self):
        with Runtime(num_locales=2) as rt:
            addr = rt.new_obj("payload", locale=1)
            assert is_live(rt, addr)
        assert not is_live(rt, addr)
