"""Property-based tests (hypothesis) for the core data-plane invariants.

These cover the algebraic substrate — the things every higher layer leans
on silently: pointer compression is a bijection, the heap is an exact
allocator, atomics implement modular 64-bit arithmetic, and the wait-free
limbo list is a permutation-preserving buffer.
"""

from __future__ import annotations

from hypothesis import event, example, given, settings, strategies as st

from repro.atomics import AtomicUInt64
from repro.core import ABA, AtomicObject
from repro.memory import (
    ADDRESS_MASK,
    MAX_COMPRESSIBLE_LOCALES,
    GlobalAddress,
    Heap,
    compress,
    decompress,
)
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.clock import ServicePoint
from conftest import table_items

# Offsets are nonzero (0 is nil) and 48-bit bounded.
offsets = st.integers(min_value=1, max_value=ADDRESS_MASK)
locales = st.integers(min_value=0, max_value=MAX_COMPRESSIBLE_LOCALES - 1)
words64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
ints64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


def _rt() -> Runtime:
    return Runtime(num_locales=1, network="none")


class TestCompressionProperties:
    @given(locale=locales, offset=offsets)
    def test_compress_roundtrips(self, locale, offset):
        a = GlobalAddress(locale, offset)
        assert decompress(compress(a)) == a

    @given(locale=locales, offset=offsets)
    def test_compressed_word_fits_64_bits(self, locale, offset):
        word = compress(GlobalAddress(locale, offset))
        assert 0 <= word < (1 << 64)

    @given(
        a1=st.tuples(locales, offsets),
        a2=st.tuples(locales, offsets),
    )
    def test_compression_is_injective(self, a1, a2):
        g1, g2 = GlobalAddress(*a1), GlobalAddress(*a2)
        if g1 != g2:
            assert compress(g1) != compress(g2)

    @given(locale=locales, offset=offsets)
    def test_nil_never_collides(self, locale, offset):
        assert compress(GlobalAddress(locale, offset)) != 0


class TestHeapProperties:
    @given(ops=st.lists(st.sampled_from(["alloc", "free"]), max_size=120))
    def test_alloc_free_accounting_is_exact(self, ops):
        """live == allocs - frees under any alloc/free interleaving."""
        h = Heap(0)
        live = []
        allocs = frees = 0
        for op in ops:
            if op == "alloc" or not live:
                live.append(h.alloc(object()))
                allocs += 1
            else:
                h.free(live.pop().offset)
                frees += 1
        assert h.live_count == allocs - frees == len(live)
        for a in live:
            h.load(a.offset)  # raises unless live

    @given(n=st.integers(min_value=1, max_value=60))
    def test_distinct_live_addresses(self, n):
        h = Heap(0)
        addrs = [h.alloc(i) for i in range(n)]
        assert len({a.offset for a in addrs}) == n

    @given(
        payloads=st.lists(
            st.one_of(st.integers(), st.text(max_size=10), st.none()),
            min_size=1,
            max_size=40,
        )
    )
    def test_load_returns_exactly_what_was_stored(self, payloads):
        h = Heap(0)
        pairs = [(h.alloc(p), p) for p in payloads]
        for addr, p in pairs:
            assert h.load(addr.offset) == p

    @given(n=st.integers(min_value=1, max_value=40))
    def test_free_then_alloc_reuses_lifo(self, n):
        h = Heap(0)
        addrs = [h.alloc(i) for i in range(n)]
        for a in addrs:
            h.free(a.offset)
        # Reallocation hands back the same offsets in reverse free order.
        again = [h.alloc(i) for i in range(n)]
        assert [a.offset for a in again] == [a.offset for a in reversed(addrs)]


    @given(
        prefix=st.lists(st.integers(min_value=-1, max_value=30), max_size=60),
        n=st.integers(min_value=0, max_value=40),
    )
    def test_alloc_many_equals_single_allocs(self, prefix, n):
        """After any alloc/free prefix, ``alloc_many(n)`` is ``n`` allocs."""
        batch_heap, single_heap = Heap(1), Heap(1)
        for h in (batch_heap, single_heap):
            live = []
            for step in prefix:  # -1 allocates; i frees live[i % len]
                if step < 0 or not live:
                    live.append(h.alloc(object()).offset)
                else:
                    h.free(live.pop(step % len(live)))
        batch = batch_heap.alloc_many(n)
        singles = [single_heap.alloc(object()) for _ in range(n)]
        assert batch == singles
        assert batch_heap.snapshot_stats() == single_heap.snapshot_stats()
        for a in batch:
            batch_heap.load(a.offset)  # raises unless live


class TestAtomicArithmeticProperties:
    @given(start=words64, deltas=st.lists(words64, max_size=20))
    def test_uint_fetch_add_is_mod_2_64(self, start, deltas):
        rt = _rt()
        a = AtomicUInt64(rt, 0, start)
        expect = start
        for d in deltas:
            assert a.fetch_add(d) == expect
            expect = (expect + d) & ((1 << 64) - 1)
        assert a.peek() == expect

    @given(start=ints64, deltas=st.lists(ints64, max_size=20))
    def test_int_arithmetic_wraps_two_complement(self, start, deltas):
        rt = _rt()
        a = rt.atomic_int(start)
        expect = start
        for d in deltas:
            a.add(d)
            expect = (expect + d + (1 << 63)) % (1 << 64) - (1 << 63)
        assert a.peek() == expect

    @given(v=ints64, w=ints64)
    def test_exchange_returns_previous(self, v, w):
        rt = _rt()
        a = rt.atomic_int(v)
        assert a.exchange(w) == v
        assert a.exchange(v) == w

    @given(v=words64, exp=words64, des=words64)
    def test_cas_succeeds_iff_expected_matches(self, v, exp, des):
        rt = _rt()
        a = AtomicUInt64(rt, 0, v)
        ok = a.compare_and_swap(exp, des)
        assert ok == (v == exp)
        assert a.peek() == (des if ok else v)

    @given(
        count=st.integers(0, 3), ecount=st.integers(0, 3), same=st.booleans()
    )
    def test_dcas_succeeds_iff_pointer_and_counter_match(self, count, ecount, same):
        rt = _rt()
        heap = rt.locale(0).heap
        a, b = heap.alloc("a"), heap.alloc("b")
        w = AtomicObject(rt, mode="dcas", initial=a)
        for _ in range(count):
            w.write_aba(a)  # the counter reaches ``count``
        ok = w.compare_and_swap_aba(ABA(a if same else b, ecount), b)
        assert ok == (same and count == ecount)
        assert w.read_aba() == ABA(b if ok else a, count + ok)


def _serve_branch(point: ServicePoint, arrival: float, service: float) -> str:
    """Which branch of ``ServicePoint.serve_locked`` a request takes."""
    if arrival >= point.next_free:
        return "idle"
    return "banked" if point.idle_bank >= service else "saturated"


def _point_state(point: ServicePoint) -> tuple:
    return (point.next_free, point.idle_bank, point.busy_time, point.served)


def _drive_inline_serve(requests):
    """Send ``(arrival, service)`` requests through a cell's ``_enter``
    and the same requests through ``serve_locked`` on a fresh point.

    Each request swaps in a one-step plan with no latency and no home
    point, so the cell's line sees exactly ``(arrival, service)`` with the
    task clock at ``arrival``.  Returns both clock sequences, both
    points' states and the branches the requests took.
    """
    rt = _rt()
    cell = AtomicUInt64(rt, 0)
    ref = ServicePoint()
    _, _, narrow, rows, line = cell._hot
    diag_index = narrow[cell._plan.dist[0]][0]
    got, want, branches = [], [], []

    def main():
        ctx = rt._own_context()
        for arrival, service in requests:
            step = (diag_index, 0.0, None, 0.0, service)
            cell._hot = (rt, (0,), (step,), rows, line)
            ctx.now = arrival
            cell._enter(False)
            got.append(ctx.now)
            branches.append(_serve_branch(ref, arrival, service))
            want.append(ref.serve_locked(arrival, service))

    rt.run(main)
    return got, want, _point_state(line), _point_state(ref), branches


class TestInlineServeProperties:
    """``ChargedWord._enter`` runs ``serve_locked``'s recurrence inline."""

    _THREE_BRANCHES = [
        (0.0, 1e-7), (5e-7, 1e-7), (2e-7, 1e-7), (2e-7, 5e-7), (3e-7, 1e-7)
    ]

    @settings(deadline=None)
    @given(
        requests=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e-5),
                st.floats(min_value=0.0, max_value=1e-6),
            ),
            max_size=60,
        )
    )
    @example(requests=_THREE_BRANCHES)
    def test_inline_serve_equals_serve_locked(self, requests):
        got, want, line, ref, branches = _drive_inline_serve(requests)
        for branch in set(branches):
            event(branch)
        assert got == want  # every task clock, bit for bit
        # A cell line keeps only its recurrence (atomics/cell.py).
        assert line[:2] == ref[:2]  # next_free, idle_bank

    def test_the_example_reaches_every_branch(self):
        *_, branches = _drive_inline_serve(self._THREE_BRANCHES)
        assert set(branches) == {"idle", "banked", "saturated"}

    def test_hot_cell_is_traced_and_untraced_alike(self):
        """A contended cell charged from every locale: tracing ``full``
        (the line calls ``serve_locked``) and ``off`` (inline) give the
        same clocks, line, points and comm totals."""

        def run(trace):
            rt = Runtime(config=RuntimeConfig(num_locales=4, trace=trace))
            hot = AtomicUInt64(rt, 0)
            clocks = []

            def body(i):
                hot.fetch_add(1)
                clocks.append(rt._own_context().now)

            def main():
                with rt.timed() as t:
                    rt.forall(range(200), body)
                return t.elapsed

            elapsed = rt.run(main)
            net = rt.network
            points = [_point_state(p) for p in (*net.nic, *net.progress)]
            line = _point_state(hot.line)
            rt.close()
            # The line's recurrence; its count only when traced (the
            # untraced inline serve keeps next_free and idle_bank alone).
            return (elapsed, clocks, line[:2], points,
                    sorted(rt.comm_totals().items())), line[3]

        off, off_served = run("off")
        full, full_served = run("full")
        assert (off_served, full_served) == (0, 200)  # traced: every op served
        assert off == full


class TestLimboListProperties:
    @given(vals=st.lists(st.integers(), max_size=80))
    def test_collect_is_reversed_pushes(self, vals):
        from repro.core.limbo_list import LimboList, NodePool

        rt = _rt()
        pool = NodePool(rt, 0)
        lst = LimboList(rt, 0, pool)
        for v in vals:
            lst.push(v)
        assert lst.drain() == list(reversed(vals))

    @given(
        batches=st.lists(st.lists(st.integers(), max_size=20), max_size=8)
    )
    def test_phased_push_drain_never_loses_values(self, batches):
        from repro.core.limbo_list import LimboList, NodePool

        rt = _rt()
        pool = NodePool(rt, 0)
        lst = LimboList(rt, 0, pool)
        for batch in batches:
            for v in batch:
                lst.push(v)
            assert lst.drain() == list(reversed(batch))
        assert lst.pop_all() is None


class TestStackProperties:
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("push"), st.integers()),
                st.tuples(st.just("pop"), st.none()),
            ),
            max_size=60,
        )
    )
    @settings(deadline=None)
    def test_stack_matches_list_model(self, ops):
        """Differential test: LockFreeStack vs a plain Python list."""
        from repro.structures import LockFreeStack

        rt = _rt()

        def main():
            st_ = LockFreeStack(rt)
            model = []
            for op, arg in ops:
                if op == "push":
                    st_.push(arg)
                    model.append(arg)
                else:
                    got = st_.try_pop()
                    want = model.pop() if model else None
                    assert got == want
            assert list(st_.unsafe_iter()) == list(reversed(model))

        rt.run(main)


class TestQueueProperties:
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("enq"), st.integers()),
                st.tuples(st.just("deq"), st.none()),
            ),
            max_size=60,
        )
    )
    @settings(deadline=None)
    def test_queue_matches_deque_model(self, ops):
        from collections import deque

        from repro.structures import LockFreeQueue

        rt = _rt()

        def main():
            q = LockFreeQueue(rt)
            model = deque()
            for op, arg in ops:
                if op == "enq":
                    q.enqueue(arg)
                    model.append(arg)
                else:
                    got = q.try_dequeue()
                    want = model.popleft() if model else None
                    assert got == want
            assert q.unsafe_len() == len(model)

        rt.run(main)


class TestOrderedListProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "contains"]),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=50,
        )
    )
    @settings(deadline=None)
    def test_list_matches_set_model(self, ops):
        from repro.structures import LockFreeOrderedList

        rt = _rt()

        def main():
            lst = LockFreeOrderedList(rt)
            model = set()
            for op, k in ops:
                if op == "insert":
                    assert lst.insert(k) == (k not in model)
                    model.add(k)
                elif op == "remove":
                    assert lst.remove(k) == (k in model)
                    model.discard(k)
                else:
                    assert lst.contains(k) == (k in model)
            assert lst.unsafe_keys() == sorted(model)

        rt.run(main)


class TestHashTableProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "remove", "get"]),
                st.integers(min_value=0, max_value=20),
                st.integers(),
            ),
            max_size=50,
        )
    )
    @settings(deadline=None)
    def test_table_matches_dict_model(self, ops):
        from repro.structures import InterlockedHashTable

        rt = _rt()

        def main():
            t = InterlockedHashTable(rt, buckets=8)
            model = {}
            for op, k, v in ops:
                if op == "put":
                    assert t.put(k, v) == (k not in model)
                    model[k] = v
                elif op == "remove":
                    assert t.remove(k) == (k in model)
                    model.pop(k, None)
                else:
                    assert t.get(k, "missing") == model.get(k, "missing")
            items = table_items(t)
            assert len(items) == len(model)  # no duplicate keys
            assert dict(items) == model

        rt.run(main)
