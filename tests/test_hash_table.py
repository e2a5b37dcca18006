"""Tests for the distributed InterlockedHashTable."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import threading

import pytest

from repro.core import EpochManager
from repro.structures import InterlockedHashTable
from repro.structures.interlocked_hash_table import _stable_hash
from conftest import is_live, table_items


@pytest.fixture
def em(rt):
    return EpochManager(rt)


@pytest.fixture
def table(rt, em):
    return InterlockedHashTable(rt, buckets=16, reclaimer=em)


class TestMapSemantics:
    def test_put_get(self, rt, table):
        def main():
            assert table.put("a", 1)  # new key
            assert not table.put("a", 2)  # update
            assert table.get("a") == 2

        rt.run(main)

    def test_get_missing_returns_default(self, rt, table):
        def main():
            assert table.get("nope") is None
            assert table.get("nope", 42) == 42

        rt.run(main)

    def test_remove(self, rt, table):
        def main():
            table.put("k", 1)
            assert table.remove("k")
            assert not table.remove("k")
            assert table.get("k", "gone") == "gone"

        rt.run(main)

    def test_idempotent_put_publishes_nothing(self, rt, table):
        """put(k, same_value) short-circuits without a CAS."""

        def main():
            table.put("k", 7)
            before = sum(loc.heap.live_count for loc in rt.locales)
            table.put("k", 7)
            after = sum(loc.heap.live_count for loc in rt.locales)
            assert after == before

        rt.run(main)

    def test_update_read_modify_write(self, rt, table):
        def main():
            assert table.update("n", lambda v: v + 1, default=0) == 1
            assert table.update("n", lambda v: v + 1, default=0) == 2
            assert table.get("n") == 2

        rt.run(main)

    def test_many_keys(self, rt, table):
        def main():
            for i in range(100):
                table.put(f"k{i}", i)
            assert [table.get(f"k{i}") for i in range(100)] == list(range(100))
            assert sorted(table_items(table)) == sorted((f"k{i}", i) for i in range(100))

        rt.run(main)

    def test_heterogeneous_key_types(self, rt, table):
        def main():
            table.put(1, "int")
            table.put("1", "str")
            table.put((1, 2), "tuple")
            assert table.get(1) == "int"
            assert table.get("1") == "str"
            assert table.get((1, 2)) == "tuple"

        rt.run(main)

    def test_bucket_count_rounds_to_power_of_two(self, rt, em):
        t = InterlockedHashTable(rt, buckets=20, reclaimer=em)
        assert len(t._headers) == 32

    @pytest.mark.parametrize("buckets", [0, -4])
    def test_bucket_count_below_one_rejected(self, rt, em, buckets):
        with pytest.raises(ValueError, match="buckets must be >= 1"):
            InterlockedHashTable(rt, buckets=buckets, reclaimer=em)

    def test_buckets_distributed_cyclically(self, rt, em):
        t = InterlockedHashTable(rt, buckets=16, reclaimer=em)
        homes = {h.home for h in t._headers}
        assert homes == set(range(rt.num_locales))

    def test_owner_locale_is_stable(self, rt, table):
        assert table.owner_locale("key") == table.owner_locale("key")


class TestDestroy:
    def test_destroy_frees_snapshots(self, rt):
        def main():
            t = InterlockedHashTable(rt, buckets=8)
            tok = t.reclaimer.register()
            tok.pin()
            for i in range(20):
                # With a token, replaced snapshots retire via the manager;
                # destroy() then drains both the headers and the manager.
                t.put(i, i, guard=tok)
            tok.unpin()
            tok.unregister()
            before = sum(loc.heap.live_count for loc in rt.locales)
            assert before > 0
            t.destroy()
            after = sum(loc.heap.live_count for loc in rt.locales)
            assert after == 0

        rt.run(main)

    def test_destroy_leaves_a_caller_supplied_manager_alive(self, rt, em):
        def main():
            t = InterlockedHashTable(rt, buckets=4, reclaimer=em)
            tok = em.register()
            holder = em.register()  # another user of the shared manager
            holder.pin()
            addr = rt.new_obj("x")
            tok.pin()
            tok.defer_delete(addr)
            tok.unpin()
            t.destroy()  # must NOT tear down or clear the caller's manager
            assert is_live(rt, addr)
            for _ in range(4):
                em.try_reclaim()
            assert is_live(rt, addr)  # the holder's pin still guards it
            em.register()  # the shared manager is still fully usable
            holder.unpin()
            em.destroy()
            assert not is_live(rt, addr)

        rt.run(main)


class TestReclamation:
    def test_old_snapshots_retired_through_token(self, rt, em, table):
        def main():
            tok = em.register()
            tok.pin()
            table.put("k", 1, guard=tok)
            table.put("k", 2, guard=tok)  # retires the first snapshot
            tok.unpin()
            assert em.pending_count() >= 1
            em.clear()
            assert table.get("k") == 2

        rt.run(main)

    def test_without_token_old_snapshots_leak_safely(self, rt, table):
        def main():
            table.put("k", 1)
            table.put("k", 2)
            assert table.get("k") == 2  # correct, just leaky

        rt.run(main)


class TestConcurrent:
    def test_concurrent_disjoint_puts(self, rt, em, table):
        def main():
            def body(i, tok):
                tok.pin()
                table.put(i, i, guard=tok)
                tok.unpin()

            rt.forall(range(300), body, task_init=em.register)
            assert len(table_items(table)) == 300
            for i in range(300):
                assert table.get(i) == i
            em.clear()

        rt.run(main)

    def test_concurrent_counter_updates_are_linearizable(self, rt, em, table):
        """The RCU update loop must not lose increments."""

        def main():
            def body(i, tok):
                tok.pin()
                table.update("counter", lambda v: v + 1, default=0, guard=tok)
                tok.unpin()

            rt.forall(range(256), body, task_init=em.register)
            em.clear()
            return table.get("counter")

        assert rt.run(main) == 256

    def test_concurrent_puts_and_removes(self, rt, em, table):
        def main():
            for i in range(100):
                table.put(i, "seed")

            def body(i, tok):
                tok.pin()
                if i % 2 == 0:
                    table.remove(i % 100, guard=tok)
                else:
                    table.put(1000 + i, i, guard=tok)
                tok.unpin()

            rt.forall(range(200), body, task_init=em.register)
            for k in range(0, 100, 2):
                assert table.get(k) is None
            for k in range(1, 100, 2):
                assert table.get(k) == "seed"
            em.clear()

        rt.run(main)

    def test_plain_cas_mode_with_ebr_is_correct(self, rt, em):
        """aba_protection=False + pinned tokens: the RDMA fast path."""

        def main():
            t = InterlockedHashTable(
                rt, buckets=8, reclaimer=em, aba_protection=False
            )

            def body(i, tok):
                tok.pin()
                t.update("hot", lambda v: v + 1, default=0, guard=tok)
                tok.unpin()
                if i % 64 == 0:
                    tok.try_reclaim()

            rt.forall(range(256), body, task_init=em.register)
            em.clear()
            return t.get("hot")

        assert rt.run(main) == 256

    def test_wait_free_reads_under_write_storm(self, rt, em, table):
        """Readers always see a consistent snapshot while writers churn."""

        def main():
            table.put("k", 0)
            seen_bad = []
            lock = threading.Lock()

            def body(i, tok):
                tok.pin()
                if i % 4 == 0:
                    table.put("k", i, guard=tok)
                else:
                    v = table.get("k")
                    if not (isinstance(v, int) and 0 <= v < 400):
                        with lock:
                            seen_bad.append(v)
                tok.unpin()

            rt.forall(range(400), body, task_init=em.register)
            assert not seen_bad
            em.clear()

        rt.run(main)


_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Prints the bucket owner of every word of the word-count vocabulary,
#: then runs the word-count example (its virtual times and owners).
_PLACEMENT_PROBE = """
import runpy
from repro import Runtime
from repro.core import EpochManager
from repro.structures import InterlockedHashTable

rt = Runtime(num_locales=4)
table = InterlockedHashTable(rt, buckets=64, reclaimer=EpochManager(rt))
words = "pgas locale epoch atomic pointer rdma nic chapel limbo token".split()
print([table.owner_locale(w) for w in words + [w.encode() for w in words]])
runpy.run_path({example!r}, run_name="__main__")
"""

#: Prints the bucket owner of tuple and frozenset keys with ``str`` and
#: ``bytes`` inside, whose builtin hashes are salted per process.
_COMPOSITE_PROBE = """
from repro import Runtime
from repro.core import EpochManager
from repro.structures import InterlockedHashTable

rt = Runtime(num_locales=4)
table = InterlockedHashTable(rt, buckets=64, reclaimer=EpochManager(rt))
words = "pgas locale epoch atomic pointer rdma nic chapel limbo token".split()
keys = [(w, 1) for w in words]
keys += [(1, (w.encode(), 2.5)) for w in words]
keys += [frozenset({w, w.upper(), 3}) for w in words]
print([table.owner_locale(k) for k in keys])
"""


def _run_probe(script, seed):
    """Run ``script`` in a fresh interpreter under ``PYTHONHASHSEED=seed``."""
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestStableHash:
    def test_int_keys_keep_the_builtin_hash(self):
        for key in (0, 1, -1, 7, 2**40 + 3, 2**64 + 5, (1, 2), None):
            assert _stable_hash(key) == hash(key) & ((1 << 63) - 1)

    def test_str_and_bytes_keys_hash_their_bytes(self):
        assert _stable_hash("pgas") == _stable_hash(b"pgas")
        assert _stable_hash("pgas") != _stable_hash("pgat")
        assert 0 <= _stable_hash("\udc80") < 1 << 63

    def test_placement_and_virtual_time_do_not_depend_on_the_hash_seed(self):
        """Python salts ``hash`` of ``str``/``bytes`` per process; bucket
        owners, and so the word-count job's virtual time, must not move."""
        script = _PLACEMENT_PROBE.format(
            example=str(_ROOT / "examples" / "distributed_word_count.py")
        )
        outputs = [_run_probe(script, seed) for seed in ("1", "2")]
        assert "ms virtual" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_composite_keys_with_text_hash_canonically(self):
        """Equal tuples and frozensets hash equal, a frozenset's hash does
        not depend on its iteration order, and a composite without text
        keeps the builtin hash."""
        assert _stable_hash(("a", 1)) == _stable_hash(("a", 1.0))
        assert _stable_hash(("a", 1)) != _stable_hash(("a", 2))
        assert _stable_hash(("a", "b")) != _stable_hash(("b", "a"))
        assert _stable_hash(frozenset("abc")) == _stable_hash(frozenset("cba"))
        assert _stable_hash(("a",)) != _stable_hash(frozenset("a"))
        assert 0 <= _stable_hash((1, (b"x", frozenset({"y"})))) < 1 << 63
        for key in ((1, (2, 3)), frozenset({1, 2}), (), frozenset()):
            assert _stable_hash(key) == hash(key) & ((1 << 63) - 1)

    def test_composite_key_placement_does_not_depend_on_the_hash_seed(self):
        outputs = [_run_probe(_COMPOSITE_PROBE, seed) for seed in ("1", "2", "3")]
        assert outputs[0].startswith("[")
        assert outputs[0] == outputs[1] == outputs[2]
