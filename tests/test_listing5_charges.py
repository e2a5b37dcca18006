"""The Listing 5 retire path: pinned election results and in-place words.

``Token.pin`` / ``defer_delete`` / ``unpin`` and the limbo list and node
pool charge their owner-only words in place — ``word._enter(False)``,
then the commit on ``word._value`` — instead of through the cells' op
methods (atomics/cell.py).  These tests pin what that must not change:

* the election path's virtual results (Fig 4 and Fig 5 shapes, where
  ``tryReclaim`` elections run mid-phase), recorded before the words
  were charged in place;
* a call census: a Listing 5 item enters no cell op method and makes a
  fixed number of charges (an ``_enter`` call is one, a
  ``_charge_run(n)`` call is ``n``);
* a differential run against a reference spelled with the cells' public
  methods, on several machines: equal task clocks, comm totals, EBR word
  lines, NIC/progress/uplink points, manager stats and ``full`` traces.
"""

from __future__ import annotations

import sys

import pytest

from repro.atomics import AtomicBool, AtomicInt64, AtomicRef, AtomicUInt64
from repro.atomics.cell import ChargedWord
from repro.bench.scenarios import TopologySpec
from repro.bench.workloads import _place_objects, _TaskState, run_epoch_workload
from repro.core import AtomicObject, EpochManager
from repro.core.limbo_list import LimboList, LimboNode, NodePool
from repro.core.token import Token
from repro.errors import TokenStateError
from repro.runtime import Runtime, RuntimeConfig

# ---------------------------------------------------------------------------
# Election-path virtual results
# ---------------------------------------------------------------------------

_SHAPES = {
    # Fig 4: 50 % remote, one tryReclaim per task (reclaim_every = ops).
    "fig4": dict(num_locales=8, ops_per_task=64, remote_percent=50, reclaim_every=64),
    # Fig 5: dense tryReclaim, one per item.
    "fig5": dict(num_locales=4, ops_per_task=16, remote_percent=50, reclaim_every=1),
}


def _em_stats(attempts, lost_global, advances, reclaimed, peak):
    return {
        "reclaim_attempts": attempts, "elections_lost_local": 0,
        "elections_lost_global": lost_global, "scans_unsafe": 0,
        "advances": advances, "objects_reclaimed": reclaimed,
        "scan_batches": 0, "uplink_crossings": 0, "reclaims": advances,
        "scheme": "ebr", "retired": reclaimed, "freed": reclaimed,
        "pending": 0, "peak_pending": peak, "policy": "fixed",
        "policy_deferrals": 0, "window": 1,
    }


def _comm(am, amo, bulk, bulk_bytes, fork, local_amo):
    return [
        ("am", am), ("amo", amo), ("bulk", bulk), ("bulk_bytes", bulk_bytes),
        ("fork", fork), ("get", 0), ("local_amo", local_amo), ("put", 0),
    ]


#: ``(repr(elapsed), sorted comm totals, em stats)`` per shape and network,
#: recorded with every word charged through its op method.
_PINNED = {
    ("fig4", "ugni"): (
        "0.00019382039999982833",
        _comm(0, 7, 56, 2128, 35, 5236),
        _em_stats(8, 7, 1, 512, 512),
    ),
    ("fig4", "none"): (
        "0.0001919203999998292",
        _comm(7, 0, 56, 2128, 35, 5236),
        _em_stats(8, 7, 1, 512, 512),
    ),
    ("fig5", "ugni"): (
        "0.0010335234000000042",
        _comm(0, 48, 17, 240, 150, 1074),
        _em_stats(64, 48, 16, 64, 1),
    ),
    ("fig5", "none"): (
        "0.001003123400000002",
        _comm(48, 0, 17, 240, 150, 1074),
        _em_stats(64, 48, 16, 64, 1),
    ),
}


class TestElectionPathPinned:
    @pytest.mark.parametrize("shape, network", sorted(_PINNED))
    def test_virtual_results_are_pinned(self, shape, network):
        kwargs = dict(_SHAPES[shape])
        nloc = kwargs.pop("num_locales")
        with Runtime(config=RuntimeConfig(num_locales=nloc, network=network)) as rt:
            result = run_epoch_workload(rt, **kwargs)
        got = (repr(result.elapsed), sorted(result.comm.items()), result.extra["em"])
        assert got == _PINNED[shape, network]
        assert result.extra["pending_after"] == 0


# ---------------------------------------------------------------------------
# Call census
# ---------------------------------------------------------------------------

_OP_NAMES = (
    "read", "write", "exchange", "compare_and_swap", "fetch_add",
    "test_and_set", "clear",
    "read_aba", "write_aba", "exchange_aba", "compare_and_swap_aba",
)


def _op_codes():
    """Code objects of every op method the cells (and the pointer cell,
    whose ``*_aba`` ops take the wide route) define."""
    codes = set()
    for cls in (AtomicUInt64, AtomicInt64, AtomicBool, AtomicRef, AtomicObject):
        for name in _OP_NAMES:
            fn = vars(cls).get(name)
            if fn is not None:
                codes.add(fn.__code__)
    return codes


class _Census:
    """Counts charges and cell op-method calls while active: an
    ``_enter`` frame is one charge, a ``_charge_run`` frame its ``n``
    (whose fallback ``_enter`` calls are not counted again)."""

    def __init__(self):
        self.enter_code = ChargedWord._enter.__code__
        self.run_code = ChargedWord._charge_run.__code__
        self.op_codes = _op_codes()
        self.enters = 0
        self.ops = []

    def _profile(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code is self.enter_code:
                if frame.f_back.f_code is not self.run_code:
                    self.enters += 1
            elif code is self.run_code:
                self.enters += frame.f_locals["n"]
            elif code in self.op_codes:
                self.ops.append(code.co_name)

    def __call__(self, fn):
        self.enters, self.ops = 0, []
        sys.setprofile(self._profile)
        try:
            return fn()
        finally:
            sys.setprofile(None)


class TestInPlaceCensus:
    def test_items_and_clear_charge_in_place(self):
        """Per item: 3 pin charges, 2 epoch reads, the pool get (one read
        when the pool is empty, read + CAS when it is not), the limbo
        exchange and 1 unpin charge; ``clear`` charges one exchange per
        limbo list and a read + CAS per node it returns to the pool (one
        ``_charge_run`` per drained list)."""
        census = _Census()
        with Runtime(num_locales=2, network="ugni") as rt:
            em = EpochManager(rt)
            per_item = []

            def main():
                objs = _place_objects(rt, range(8), 50)
                tok = em.register()

                def item(addr):
                    tok.pin()
                    tok.defer_delete(addr)
                    tok.unpin()

                for addr in objs[:4]:  # cold pool
                    census(lambda: item(addr))
                    per_item.append((census.enters, census.ops))
                census(em.clear)
                per_item.append((census.enters, census.ops))
                for addr in objs[4:]:  # warm pool
                    census(lambda: item(addr))
                    per_item.append((census.enters, census.ops))
                tok.unregister()

            rt.run(main)
        lists = 2 * em.epoch_cycle  # two instances
        assert per_item == (
            [(8, [])] * 4 + [(lists + 2 * 4, [])] + [(9, [])] * 4
        )


# ---------------------------------------------------------------------------
# Differential check against the op-method spelling
# ---------------------------------------------------------------------------


def _ref_pin(self):
    ctx = self._rt._ctx
    if ctx is None or not self._registered or ctx.locale_id not in self._home_locales:
        ctx = self._check_usable()
    if self._track_pins:
        self._last_pin_vt = ctx.now
    tr = self._full_tracer
    if tr is not None:
        tr.guard("pin", "ebr", ctx.now)
    inst_epoch = self._inst_epoch
    my_epoch = self.local_epoch
    epoch = inst_epoch.read()
    while True:
        my_epoch.write(epoch)
        current = inst_epoch.read()
        if current == epoch:
            return
        epoch = current


def _ref_unpin(self):
    ctx = self._rt._ctx
    if ctx is None or not self._registered or ctx.locale_id not in self._home_locales:
        self._check_usable()
    self.local_epoch.write(0)


def _ref_defer_delete(self, addr):
    ctx = self._rt._ctx
    if ctx is None or not self._registered or ctx.locale_id not in self._home_locales:
        ctx = self._check_usable()
    if self.local_epoch.read() == 0:
        raise TokenStateError("defer_delete requires a pinned token")
    epoch = self._inst_epoch.read()
    self._limbo_lists[epoch - 1].push(addr)
    tr = self._full_tracer
    if tr is not None:
        tr.guard("retire", "ebr", ctx.now, unit=tr.unit_id(self._limbo_lists), slot=epoch - 1)


def _ref_get(self, val):
    while True:
        node = self._head.read()
        if node is None:
            fresh = LimboNode()
            fresh.val = val
            self.allocated += 1
            return fresh
        if self._head.compare_and_swap(node, node.next):
            node.val = val
            node.next = None
            return node


def _ref_put(self, node):
    node.val = None
    while True:
        head = self._head.read()
        node.next = head
        if self._head.compare_and_swap(head, node):
            return


def _exchange(ref, value):
    """An exchange spelled with the cell's public CAS: one narrow charge,
    and a CAS against the value just peeked cannot fail (tasks switch only
    between whole operations)."""
    old = ref.peek()
    assert ref.compare_and_swap(old, value)
    return old


def _ref_push(self, val):
    if self._pool is None:
        node = LimboNode()
        node.val = val
    else:
        node = self._pool.get(val)
    node.next = _exchange(self._head, node)


def _ref_pop_all(self):
    return _exchange(self._head, None)


def _ref_drain(self):
    node = self.pop_all()
    vals = []
    while node is not None:
        nxt = node.next
        vals.append(node.val)
        if self._pool is not None:
            _ref_put(self._pool, node)
        node = nxt
    return vals


_REFERENCE = [
    (Token, "pin", _ref_pin),
    (Token, "unpin", _ref_unpin),
    (Token, "defer_delete", _ref_defer_delete),
    (NodePool, "get", _ref_get),
    (LimboList, "push", _ref_push),
    (LimboList, "pop_all", _ref_pop_all),
    (LimboList, "drain", _ref_drain),
]

_DIFF_MACHINES = [
    pytest.param(dict(topology=topology, network=network), id=f"{topology}-{network}")
    for topology in ("flat", "hier:2x2")
    for network in ("ugni", "none")
] + [
    # Socket-shared instances: limbo lists without a node pool.
    pytest.param(dict(topology="hier:2x2", network="ugni", aggregation=16), id="hier-2x2-agg16"),
]


def _point(p, full):
    return (p.name, p.next_free, p.idle_bank, p.busy_time, p.served)[: 5 if full else 3]


def _drive_listing5(machine, remote_percent, trace):
    """Listing 5 with two tasks per locale, a ``tryReclaim`` every fifth
    item, and ``clear`` at the end; returns everything observable."""
    config = TopologySpec(locales=8, trace=trace, **machine).runtime_config()
    with Runtime(config=config) as rt:
        em = EpochManager(rt)
        clocks = []

        def main():
            objs = _place_objects(rt, range(96), remote_percent)

            def body(i, st):
                tok = st.tok
                tok.pin()
                tok.defer_delete(objs[i])
                tok.unpin()
                st.m += 1
                if st.m % 5 == 0:
                    tok.try_reclaim()
                clocks.append(rt._ctx.now)

            with rt.timed() as t:
                rt.forall(range(96), body, task_init=lambda: _TaskState(em), tasks_per_locale=2)
                freed = em.clear()
            return t.elapsed, freed

        elapsed, freed = rt.run(main)
        net = rt.network
        traced = trace == "full"
        words = []
        for lid in em._instance_lids:
            inst = em.get_privatized_instance(lid)
            cells = [inst.locale_epoch, *(lst._head for lst in inst.limbo_lists)]
            cells += [tok.local_epoch for tok in inst.allocated_tokens]
            if inst.pool is not None:
                cells.append(inst.pool._head)
            words += [_point(c.line, traced) for c in cells]
        points = [_point(p, True) for p in (*net.nic, *net.progress, *net.uplinks.values())]
        return (
            repr(elapsed),
            freed,
            clocks,
            sorted(rt.comm_totals().items()),
            net.diags.per_locale(),
            words,
            points,
            em.stats(),
            rt._tracer.events() if rt._tracer is not None else None,
        )


class TestInPlaceMatchesOpMethods:
    @pytest.mark.parametrize("remote_percent", [0, 50, 100])
    @pytest.mark.parametrize("machine", _DIFF_MACHINES)
    def test_in_place_equals_the_method_reference(self, machine, remote_percent, monkeypatch):
        got = _drive_listing5(machine, remote_percent, "off")
        with monkeypatch.context() as m:
            for cls, name, fn in _REFERENCE:
                m.setattr(cls, name, fn)
            want = _drive_listing5(machine, remote_percent, "off")
        assert got == want
        assert got[1] == 96 and got[7]["advances"] > 0

    @pytest.mark.parametrize("machine", _DIFF_MACHINES[::2])
    def test_full_trace_equals_the_method_reference(self, machine, monkeypatch):
        got = _drive_listing5(machine, 50, "full")
        with monkeypatch.context() as m:
            for cls, name, fn in _REFERENCE:
                m.setattr(cls, name, fn)
            want = _drive_listing5(machine, 50, "full")
        assert got[8]  # the tracer recorded the charges
        assert got == want
