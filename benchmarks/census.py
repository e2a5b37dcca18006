"""Reachability census: which ``src/`` functions no user path calls.

    python benchmarks/census.py            # exits 1 on any finding
    python benchmarks/census.py --verbose  # also print each user path as it runs

Every function, method and nested function defined under ``src/repro``
must be called by at least one user path, or carry a one-line reason in
:data:`ALLOWLIST`.  The user paths run in this process under
``sys.setprofile``:

* every registered scenario under the ``interpreted`` and
  ``compiled-strict`` engines with ``--update-baselines`` into a
  temporary copy of the shipped baselines (the run checks every verdict
  against them before it writes);
* every scenario under ``--trace spans`` and ``--trace full`` (with
  ``--trace-out``), under each ``--reclaimer`` override, and under the
  ``--cost-profile``, ``--cost-scale``, ``--topology``, ``--aggregation``
  and ``--policy`` overrides (the overrides at a reduced ``--ops-scale``);
* ``scenarios --list`` (with and without ``--filter``) and ``--spec``
  with a TOML file;
* ``trace NAME --out`` to Chrome JSON and to JSONL;
* ``--figure all --ops 16 --max-locales 4 --json``;
* the six programs under ``examples/``.

The census prints every unreached function outside the allowlist and
exits 1 if there is any.  It also exits 1 if an allowlisted name no
longer exists or is now reached, so the allowlist cannot rot.  Special
methods (``__repr__`` and the like) count as reached: Python calls them,
not a user path.  Stdlib only; about a minute on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import runpy
import shutil
import sys
import tempfile
import time
import types
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: ``module:qualname`` -> why the function stays although no user path
#: calls it.  An entry naming a class (``module:Class``) covers every
#: function defined in it.
_HOSTTRACE = "benchmarks/e2e/hosttrace.py looks it up by name"
_REFERENCE = "the tests' reference model for the fused charge paths"
_ERROR = "error path: reached only when a caller breaks a rule"
_PEEK = "cost-free inspection for tests and debugging (a peek)"
_GUARD = "guard protocol (docs/RECLAMATION.md): every scheme answers it alike"
_INTERFACE = "interface default that every built-in subclass overrides"
_OBSERVER = "quiescent or cost-free observer the structure's tests read"
_TEARDOWN = "quiescent teardown; the tests check what it frees"
ALLOWLIST: Dict[str, str] = {
    "repro.engine.executor:run_alloc_phase": _HOSTTRACE,
    "repro.runtime.tasking:WorkerPool.wait": _HOSTTRACE,
    "repro.structures.harris_list:LockFreeOrderedList": _HOSTTRACE,
    "repro.structures.harris_list:_pack": "LockFreeOrderedList's marked-pointer word",
    "repro.structures.harris_list:_unpack": "LockFreeOrderedList's marked-pointer word",
    "repro.comm.network:NetworkModel._compile_legacy_atomic_table": _REFERENCE,
    "repro.comm.network:NetworkModel.charge_atomic": _REFERENCE,
    "repro.comm.network:NetworkModel.atomic_op": _REFERENCE,
    "repro.comm.routes:atomic_route_index": "the reference model's route-table layout",
    "repro.comm.counters:CommDiagnostics.per_locale":
        "per-locale counters the charge-equivalence tests compare",
    "repro.memory.heap:Heap._exhausted": _ERROR,
    "repro.memory.heap:Heap._issued": _ERROR,
    "repro.memory.heap:Heap._not_live": _ERROR,
    "repro.comm.topology:topology_names": _ERROR,
    "repro.runtime.config:NetworkType.names": _ERROR,
    "repro.structures.interlocked_hash_table:_has_text":
        "hash-determinism rule for tuple/frozenset keys holding str/bytes",
    "repro.atomics.integer:AtomicBool.peek": _PEEK,
    "repro.atomics.integer:AtomicInt64.peek": _PEEK,
    "repro.core.atomic_object:AtomicObject.peek": _PEEK,
    "repro.structures.treiber_stack:LockFreeStack.peek": "reads the top without a pop (a peek)",
    "repro.core.limbo_list:LimboList.is_empty_snapshot": _PEEK,
    "repro.core.limbo_list:NodePool.drain_count": _PEEK,
    "repro.core.epoch_manager:EpochManager.current_epoch": _PEEK,
    "repro.reclaim.ibr:IntervalReclaimer.current_era": _PEEK,
    "repro.memory.compression:decompress":
        "the inverse of compress: pointer compression's public round trip",
    "repro.bench.scenarios:ScenarioSpec.as_dict": "from_dict's round trip, the spec's dict form",
    "repro.bench.scenarios:MeasureSpec.as_dict": "from_dict's round trip, the spec's dict form",
    "repro.engine.cache:CompilationCache.stats": "the column cache's hit/miss observer",
    "repro.engine.cache:CompilationCache.clear": "empties the column cache for a cold run",
    "repro.comm.topology:Topology.distance": _INTERFACE,
    "repro.comm.topology:Topology.uplink_group": _INTERFACE,
    "repro.comm.topology:FlatTopology.distance":
        "the per-pair definition its closed-form row is tested against",
    "repro.policy.base:PolicyBase.spec": _INTERFACE,
    "repro.policy.base:EpochPolicyBase._should_advance": _INTERFACE,
    "repro.policy.base:WindowPolicyBase.observe": _INTERFACE,
    "repro.policy.base:WindowPolicyBase.tick": _INTERFACE,
    "repro.policy.epoch:FixedEpochPolicy._should_advance":
        "keeps decide() total for the fixed policy, which managers skip",
    "repro.policy.window:StaticWindowPolicy.spec": "the window policy's spec round trip",
    "repro.policy.window:AdaptiveWindowPolicy.spec": "the window policy's spec round trip",
    "repro.policy.base:EpochFacts.oldest_age":
        "documented fact for custom policies (docs/POLICY.md)",
    "repro.core.token:Token.is_pinned": _GUARD,
    "repro.core.token:Token.is_registered": _GUARD,
    "repro.core.token:Token.protect": _GUARD,
    "repro.reclaim.protocol:GuardBase.close": _GUARD,
    "repro.reclaim.protocol:GuardBase.is_pinned": _GUARD,
    "repro.reclaim.protocol:GuardBase.is_registered": _GUARD,
    "repro.reclaim.protocol:GuardBase.protect": _GUARD,
    "repro.reclaim.protocol:GuardBase.try_reclaim": _GUARD,
    "repro.reclaim.hp:_HPGuard.clear_protection": _GUARD,
    "repro.reclaim.hp:_HPGuard.try_reclaim": _GUARD,
    "repro.reclaim.qsbr:_QSBRGuard.quiesce": _GUARD,
    "repro.reclaim.protocol:ReclaimerBase._make_guard": _INTERFACE,
    "repro.reclaim.protocol:ReclaimerBase.destroy": _TEARDOWN,
    "repro.reclaim.protocol:ReclaimerBase.try_reclaim": _GUARD,
    "repro.reclaim.protocol:default_reclaimer":
        "a structure's reclaimer when the caller passes none",
    "repro.structures.interlocked_hash_table:InterlockedHashTable.destroy": _TEARDOWN,
    "repro.structures.rcu_array:RCUArray.destroy": _TEARDOWN,
    "repro.structures.rcu_array:RCUArray.resize":
        "no user path yet (ROADMAP item 11); its tests cover _publish's shrink half",
    "repro.structures.msqueue:LockFreeQueue.drain": _OBSERVER,
    "repro.structures.msqueue:LockFreeQueue.is_empty": _OBSERVER,
    "repro.structures.msqueue:LockFreeQueue.unsafe_len": _OBSERVER,
    "repro.structures.treiber_stack:LockFreeStack.drain": _OBSERVER,
    "repro.structures.treiber_stack:LockFreeStack.is_empty": _OBSERVER,
    "repro.structures.treiber_stack:LockFreeStack.unsafe_iter": _OBSERVER,
}


def missing_entries(names: List[str]) -> List[str]:
    """The allowlist entries that name no defined function: neither a
    function's own ``module:qualname`` nor the class it is defined in."""
    return sorted(
        entry for entry in ALLOWLIST
        if not any(name == entry or name.startswith(entry + ".") for name in names)
    )


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__") and len(name) > 4


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def defined_functions() -> Dict[Tuple[str, int, str], Tuple[str, int]]:
    """(file, first line, name) -> (``module:qualname``, line count) for
    every function, method and nested function in ``src/repro``."""
    found: Dict[Tuple[str, int, str], Tuple[str, int]] = {}

    def walk(code: types.CodeType, module: str, prefix: str, filename: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            is_function = bool(const.co_flags & 0x1)  # CO_OPTIMIZED: not a class body
            qualname = prefix + const.co_name
            if is_function:
                lines = [ln for _, _, ln in const.co_lines() if ln is not None]
                span = max(lines) - const.co_firstlineno + 1 if lines else 1
                key = (filename, const.co_firstlineno, const.co_name)
                found[key] = (f"{module}:{qualname}", span)
                walk(const, module, qualname + ".<locals>.", filename)
            else:
                walk(const, module, qualname + ".", filename)

    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        code = compile(path.read_text(), filename, "exec")
        walk(code, _module_name(path), "", filename)
    return found


# -- the user paths ---------------------------------------------------------

SPEC_TOML = """\
[scenario]
name = "census-spec"
description = "a --spec run for the reachability census"

[topology]
locales = 4
network = "ugni"
topology = "hier:2x2"
cost_overrides = { am_latency = 8e-6 }
reclaimer = "ebr"

[workload]
kind = "epoch_mixed"
ops_per_task = 64

[measure]
repeats = 2
"""


def user_paths(tmp: Path) -> Iterator[Tuple[str, Callable[[], object]]]:
    """(label, thunk) for every user path the census runs."""
    from repro.bench.__main__ import DEFAULT_BASELINES, main
    from repro.runtime.config import RECLAIMER_SCHEMES

    def cli(*argv: str) -> Tuple[str, Callable[[], object]]:
        def run() -> None:
            status = main(list(argv))
            if status not in (0, 1):  # 1: verdicts differ under an override
                raise SystemExit(f"census: `{' '.join(argv)}` exited {status}")

        return " ".join(argv), run

    out = str(tmp / "report.json")
    baselines = tmp / "baselines.json"
    shutil.copyfile(DEFAULT_BASELINES, baselines)
    spec = tmp / "census_spec.toml"
    spec.write_text(SPEC_TOML)
    small = ("--ops-scale", "0.25")

    # --update-baselines verifies against the (copied) baselines first.
    for engine in ("interpreted", "compiled-strict"):
        yield cli("scenarios", "--all", "--engine", engine, "--out", out,
                  "--baselines", str(baselines), "--update-baselines")
    yield cli("scenarios", "--all", "--trace", "spans", "--out", out, *small)
    yield cli("scenarios", "--all", "--trace", "full", "--out", out, "--ops-scale", "0.1",
              "--trace-out", str(tmp / "trace.jsonl"))
    for scheme in RECLAIMER_SCHEMES:
        yield cli("scenarios", "--all", "--reclaimer", scheme, "--out", out, *small)
    for override in (("--cost-profile", "wan"), ("--cost-scale", "2.0"),
                     ("--topology", "dragonfly:2"), ("--aggregation", "8"),
                     ("--policy", "threshold:32+adaptive:2..64")):
        yield cli("scenarios", "--all", *override, "--out", out, *small)
    yield cli("scenarios", "--list")
    yield cli("scenarios", "--list", "--filter", "hier")
    yield cli("scenarios", "--spec", str(spec), "--out", out)
    yield cli("trace", "stack-churn", "--ops-scale", "0.25", "--out", str(tmp / "t.json"))
    yield cli("trace", "topo-dragonfly-agg-ebr-w16", "--detail", "spans", "--repeats", "2",
              "--out", str(tmp / "t.jsonl"))
    yield cli("--figure", "all", "--ops", "16", "--max-locales", "4",
              "--json", str(tmp / "figures.json"))
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield f"examples/{example.name}", (
            lambda path=str(example): runpy.run_path(path, run_name="__main__"))


def census(verbose: bool) -> Set[Tuple[str, int, str]]:
    """Run every user path; the (file, first line, name) of each code
    object that was called."""
    called: Set[Tuple[str, int, str]] = set()
    seen: Set[types.CodeType] = set()
    prefix = str(PACKAGE)

    def profile(frame: types.FrameType, event: str, arg: object) -> None:
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                if code.co_filename.startswith(prefix):
                    called.add((code.co_filename, code.co_firstlineno, code.co_name))

    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # examples and reports write relative paths
        # Profile from before the first import of ``repro``: import-time
        # calls (the scenario registry's own registrations) count too.
        sys.setprofile(profile)
        try:
            for label, run in user_paths(Path(tmp)):
                started = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    run()
                if verbose:
                    print(f"census: {label} ({time.perf_counter() - started:.1f} s)",
                          file=sys.stderr)
        finally:
            sys.setprofile(None)
            os.chdir(cwd)
    return called


def main(argv: "List[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--verbose", action="store_true", help="print each user path as it runs")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    defined = defined_functions()
    called = census(args.verbose)

    unreached = sorted(
        (name, span) for key, (name, span) in defined.items()
        if key not in called and not _is_dunder(name.rpartition(".")[2].rpartition(":")[2])
    )
    # Which allowlist entry covers each function: its own name, or the
    # class it is defined in.
    covered: Dict[str, List[Tuple[str, int]]] = {entry: [] for entry in ALLOWLIST}
    findings = []
    for name, span in unreached:
        module, _, qualname = name.partition(":")
        entry = name if name in ALLOWLIST else f"{module}:{qualname.split('.')[0]}"
        if entry in ALLOWLIST:
            covered[entry].append((name, span))
        else:
            findings.append((name, span))
    missing = missing_entries([name for name, _ in defined.values()])
    stale = sorted(entry for entry in ALLOWLIST if entry not in missing and not covered[entry])

    print(f"{len(defined)} functions in src/repro; {len(unreached)} unreached by any user path")
    print(f"allowlisted ({sum(map(len, covered.values()))}):")
    for entry in sorted(ALLOWLIST):
        for name, span in covered[entry]:
            print(f"  {name} ({span} lines): {ALLOWLIST[entry]}")
    status = 0
    if findings:
        status = 1
        print(f"UNREACHED, not allowlisted ({len(findings)},"
              f" {sum(span for _, span in findings)} lines):")
        for name, span in findings:
            print(f"  {name} ({span} lines)")
    if missing:
        status = 1
        print(f"allowlisted but not defined ({len(missing)}):")
        for name in missing:
            print(f"  {name}")
    if stale:
        status = 1
        print(f"allowlisted but reached ({len(stale)}):")
        for name in stale:
            print(f"  {name}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
