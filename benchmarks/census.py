"""Reachability and parameter census: which ``src/`` functions no user
path calls, and which settings no user path sets.

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
* ``scenarios --list`` (with and without ``--filter``), ``--spec``
  with a TOML file, and ``--spec`` with an ``epoch`` workload that
  reclaims from its guards under each list-based ``--reclaimer``;
* ``trace NAME --out`` to Chrome JSON and to JSONL;
* ``--figure all --ops 16 --max-locales 4 --json``, and figures 3b, 6
  and 7 with ``--tasks-per-locale 2``;
* the job lists of the repository benchmark (``benchmarks/e2e/jobs.py``)
  at its second pinned seed, built but not run;
* the six programs under ``examples/``.

The census prints every unreached function outside the allowlist and
exits 1 if there is any.  A class-body alias (``tryReclaim =
try_reclaim``) is the same function object as its target, so a call
through either name reaches both; the census therefore flags every
``name = method`` binding in a class body whose right-hand side is a
method of that class, unless :data:`ALLOWLIST` names it: one operation
gets one name.  It also exits 1 if an allowlisted name no
longer exists or is now reached, so the allowlist cannot rot.  Special
methods (``__repr__`` and the like) count as reached: Python calls them,
not a user path.

The same pass is a parameter census.  Every defaulted parameter of a
called ``src/repro`` function, and every defaulted field of a
constructed ``repro`` dataclass, must receive a value other than its
default from some user path, or carry a one-line reason in
:data:`PARAM_ALLOWLIST`: a knob that nothing sets is a constant.  A
dataclass's ``__init__`` is generated and has no file under ``src/``,
so its calls are recognised by the class they initialise.  The census
exits 1 on a never-varied parameter outside the allowlist, on an
allowlisted parameter that no longer exists, and on one that is now
varied (or whose function no path calls).  The parameters of an
unreached function are left to the function census.

Stdlib only; about a minute and a half on one core.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import enum
import gc
import io
import os
import runpy
import shutil
import sys
import tempfile
import time
import types
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

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
    "repro.core.token:Token.is_pinned": _GUARD,
    "repro.core.token:Token.is_registered": _GUARD,
    "repro.reclaim.protocol:GuardBase.close": _GUARD,
    "repro.reclaim.protocol:GuardBase.is_pinned": _GUARD,
    "repro.reclaim.protocol:GuardBase.is_registered": _GUARD,
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


#: Census name of a defaulted parameter (``module:qualname(param)``) or
#: dataclass field (``module:Class.field``) -> why it stays although no
#: user path sets it to anything but its default.
_GRAMMAR = ("spelled out, at its default, by {}: a canonical spec that"
            " benchmarks/scenario_baselines.json records")
_TABLE = "fed by a [workload] or [topology] table field a scenario spec may set"
_CLAIMS = "the paper-claim checks (benchmarks/bench_*.py) pass it"
_DERIVED = "derived from the workload and the machine, not a setting"
_API = "a structure's API value (name, initial, default or guard)"
_PLACE = "places a root task on a locale; the tests place it remote"
PARAM_ALLOWLIST: Dict[str, str] = {
    "repro.comm.topology:HierarchicalTopology.__init__(sockets_per_node)":
        _GRAMMAR.format("topology 'hier:2x2'"),
    "repro.policy.spec:PolicySpec.window_hi": _GRAMMAR.format("policy 'adaptive:2..64'"),
    "repro.policy.spec:PolicySpec.window_lo": _GRAMMAR.format("policy 'adaptive:2..64'"),
    "repro.bench.workloads:run_multi_structure(hash_buckets)": _TABLE,
    "repro.bench.workloads:run_multi_structure(reclaim_between_rounds)": _TABLE,
    "repro.bench.workloads:run_multi_structure(tasks_per_locale)": _TABLE,
    "repro.bench.workloads:run_producer_consumer(rounds)": _TABLE,
    "repro.bench.figures:figure3_shared(tasks)": _CLAIMS,
    "repro.bench.ablations:ablation_compression(locales)": _CLAIMS,
    "repro.bench.ablations:ablation_election(locales)": _CLAIMS,
    "repro.bench.ablations:ablation_epoch_cycle(locales)": _CLAIMS,
    "repro.bench.ablations:ablation_privatization(locales)": _CLAIMS,
    "repro.bench.ablations:ablation_reclaimers(locales)": _CLAIMS,
    "repro.bench.ablations:ablation_scatter(locales)": _CLAIMS,
    "repro.engine.coverage:compiled_plan(reclaim_every)": _DERIVED,
    "repro.engine.coverage:compiled_plan(trace)": _DERIVED,
    "repro.engine.executor:run_uniform_atomic_phase(route_row)":
        "derived: the wide row for the [workload] cell atomic_object_aba",
    "repro.atomics.integer:AtomicBool.__init__(initial)": _API,
    "repro.atomics.ref:AtomicRef.__init__(initial)": _API,
    "repro.baselines.locked_structures:LockedMap.__init__(name)": _API,
    "repro.baselines.locked_structures:LockedMap.get(default)": _API,
    "repro.baselines.locked_structures:LockedQueue.__init__(name)": _API,
    "repro.runtime.runtime:Runtime.atomic_int(initial)": _API,
    "repro.runtime.runtime:Runtime.atomic_int(name)": _API,
    "repro.structures.interlocked_hash_table:InterlockedHashTable.get(default)": _API,
    "repro.structures.interlocked_hash_table:InterlockedHashTable.get(guard)": _API,
    "repro.structures.msqueue:LockFreeQueue.__init__(name)": _API,
    "repro.structures.rcu_array:RCUArray.__init__(length)": _API,
    "repro.structures.rcu_array:RCUArray.read(guard)": _API,
    "repro.structures.treiber_stack:LockFreeStack.__init__(name)": _API,
    "repro.runtime.runtime:Runtime.run(locale)": _PLACE,
    "repro.reclaim.hp:HazardPointerReclaimer.__init__(scan_threshold)":
        "the tests force a scan cheaply with it",
    "repro.reclaim.hp:HazardPointerReclaimer.__init__(slots_per_guard)":
        "the hazard slots per guard; the tests check its validation",
    "repro.bench.scenarios:register_scenario(replace_existing)":
        "the registry API (docs/SCENARIOS.md): replacing a name is explicit; tests do it",
    "repro.core.privatization:UnprivatizedProxy.get_privatized_instance(locale_id)":
        "the signature of PrivatizedObject.get_privatized_instance, which it stands in for",
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


#: How both censuses key a function: (file, first line, name), as its
#: code object reads them (``co_filename``, ``co_firstlineno``,
#: ``co_name``).  A decorated function's code starts at its first decorator.
Key = Tuple[str, int, str]
#: Key -> (``module:qualname``, line count) of every function.
FunctionTable = Dict[Key, Tuple[str, int]]
#: Key of a function -> its defaulted parameters as (parameter, census
#: name) pairs.
ParamTable = Dict[Key, List[Tuple[str, str]]]
#: (module, class qualname) of a dataclass -> its defaulted fields as
#: (field, census name) pairs.
FieldTable = Dict[Tuple[str, str], List[Tuple[str, str]]]
#: (census name ``module:Class.alias``, the method it names) of every
#: class-body alias.
AliasTable = List[Tuple[str, str]]


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass")


def _field_default(value: ast.expr) -> bool:
    """Whether a dataclass field's right-hand side gives ``__init__`` a
    default: a plain value, or ``field(...)`` with a default (or factory)
    that ``__init__`` takes."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return True
    keywords = {kw.arg: kw.value for kw in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in keywords or "default_factory" in keywords


def definitions() -> Tuple[FunctionTable, ParamTable, FieldTable, AliasTable]:
    """One walk over the source of ``src/repro``: every function, method
    and nested function (census name ``module:qualname``), its defaulted
    parameters (``module:qualname(param)``), every dataclass field with a
    default (``module:Class.field``), and every class-body alias
    (``module:Class.alias`` for ``alias = method``, where ``method`` is
    defined in the same class body).  Lambdas and comprehensions are no
    functions here."""
    functions: FunctionTable = {}
    params: ParamTable = {}
    fields: FieldTable = {}
    aliases: AliasTable = []

    def walk(node: ast.AST, module: str, prefix: str, filename: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = (filename, first, child.name)
                functions[key] = (f"{module}:{qualname}", (child.end_lineno or first) - first + 1)
                args = child.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]
                if named:
                    params[key] = [(arg.arg, f"{module}:{qualname}({arg.arg})") for arg in named]
                walk(child, module, qualname + ".<locals>.", filename)
            elif isinstance(child, ast.ClassDef):
                qualname = prefix + child.name
                if any(map(_is_dataclass_decorator, child.decorator_list)):
                    found = [
                        (stmt.target.id, f"{module}:{qualname}.{stmt.target.id}")
                        for stmt in child.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and stmt.value is not None and _field_default(stmt.value)
                        and "ClassVar" not in ast.unparse(stmt.annotation)]
                    if found:
                        fields[(module, qualname)] = found
                methods = {stmt.name for stmt in child.body
                           if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}
                aliases.extend(
                    (f"{module}:{qualname}.{target.id}", stmt.value.id)
                    for stmt in child.body
                    if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name)
                    and stmt.value.id in methods
                    for target in stmt.targets if isinstance(target, ast.Name))
                walk(child, module, qualname + ".", filename)
            else:
                walk(child, module, prefix, filename)

    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        walk(ast.parse(path.read_text(), filename), _module_name(path), "", filename)
    return functions, params, fields, aliases


def unlisted_aliases(aliases: AliasTable) -> List[str]:
    """The class-body aliases :data:`ALLOWLIST` does not name, as
    ``module:Class.alias = method``."""
    return sorted(f"{name} = {target}" for name, target in aliases if name not in ALLOWLIST)


def parameter_names(params: ParamTable, fields: FieldTable) -> List[str]:
    """The census name of every defaulted parameter and field."""
    return [name for table in (params, fields) for pairs in table.values()
            for _, name in pairs]


def missing_param_entries(names: List[str]) -> List[str]:
    """The :data:`PARAM_ALLOWLIST` entries that name no defaulted
    parameter or field."""
    return sorted(set(PARAM_ALLOWLIST) - set(names))


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

#: An ``epoch`` workload whose tasks reclaim through their own guards
#: (``reclaim_every``): run under each list-based ``--reclaimer``, it is
#: the user path of guard-level ``try_reclaim``.
GUARD_RECLAIM_TOML = """\
[scenario]
name = "census-guard-reclaim"
description = "guard-level try_reclaim for the reachability census"

[topology]
locales = 4

[workload]
kind = "epoch"
ops_per_task = 64
reclaim_every = 8
"""


def _benchmark_jobs() -> None:
    """Build the job list of every workload of the repository benchmark
    (``benchmarks/e2e/jobs.py``) as ``run.py --seed 1`` does, running no
    job: each job's spec is validated through its ``RuntimeConfig``."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    try:
        import jobs
        from worker import SECOND_SEED

        for workload in jobs.WORKLOADS.values():
            workload.jobs(SECOND_SEED)
    finally:
        sys.path.remove(str(ROOT / "benchmarks" / "e2e"))


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
    guard_spec = tmp / "census_guard_reclaim.toml"
    guard_spec.write_text(GUARD_RECLAIM_TOML)
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
    for scheme in RECLAIMER_SCHEMES:
        if scheme != "ebr":
            yield cli("scenarios", "--spec", str(guard_spec), "--reclaimer", scheme,
                      "--out", out)
    yield cli("trace", "stack-churn", "--ops-scale", "0.25", "--out", str(tmp / "t.json"))
    yield cli("trace", "topo-dragonfly-agg-ebr-w16", "--detail", "spans", "--repeats", "2",
              "--out", str(tmp / "t.jsonl"))
    yield cli("--figure", "all", "--ops", "16", "--max-locales", "4",
              "--json", str(tmp / "figures.json"))
    for figure in ("3b", "6", "7"):
        yield cli("--figure", figure, "--ops", "16", "--max-locales", "2",
                  "--tasks-per-locale", "2")
    yield "benchmarks/e2e job lists at the second seed", _benchmark_jobs
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield f"examples/{example.name}", (
            lambda path=str(example): runpy.run_path(path, run_name="__main__"))


def _function_of(code: types.CodeType) -> Optional[types.FunctionType]:
    """The function object that runs ``code`` (its defaults live there)."""
    for obj in gc.get_referrers(code):
        if isinstance(obj, types.FunctionType) and obj.__code__ is code:
            return obj
    return None


def _is_default(value: Any, default: Any) -> bool:
    """Whether an argument is its parameter's default: the same object or
    an equal value, however a spec read back from text spells it (``1.0``
    for ``1``, a list for a tuple, ``"ugni"`` for ``NetworkType.UGNI``).
    Only a ``bool`` must match in type: ``True`` does not stand for ``1``."""
    if value is default or value is getattr(dataclasses, "_HAS_DEFAULT_FACTORY", default):
        return True
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default) and value == default
    if isinstance(default, enum.Enum) and isinstance(value, str):
        default = default.value
    elif isinstance(value, (list, tuple)) and isinstance(default, (list, tuple)):
        value, default = tuple(value), tuple(default)
    try:
        return bool(value == default)
    except Exception:
        return False


class ParamWatch:
    """The parameter half of the census: which defaulted parameters (and
    dataclass fields) of the called functions (and constructed
    dataclasses) some call sets to a value other than their default.

    A function's defaults are read off its function object at its first
    call.  A dataclass's ``__init__`` is generated and so has no file
    under ``src/``: its call is recognised by the class of the instance
    it initialises, and its arguments are the fields, compared with
    :func:`dataclasses.fields`' defaults."""

    def __init__(self, params: ParamTable, fields: FieldTable) -> None:
        self.params, self.fields = params, fields
        #: Census names of the parameters of every called function.
        self.censused: Set[str] = set()
        #: Census names some call set to a non-default value.
        self.varied: Set[str] = set()
        #: code -> (argument, default, census name) still never varied.
        self.watched: Dict[types.CodeType, List[Tuple[str, Any, str]]] = {}

    def first_call(self, code: types.CodeType, frame: types.FrameType, src: bool) -> None:
        """Start watching ``code`` if it has defaulted parameters (a
        ``src/`` function) or fields (a ``repro`` dataclass's
        ``__init__``)."""
        if src:
            pairs = self.params.get((code.co_filename, code.co_firstlineno, code.co_name))
            function = _function_of(code) if pairs else None
            if function is None:
                return
            names = code.co_varnames[: code.co_argcount]
            positional = function.__defaults__ or ()
            defaults = dict(zip(names[len(names) - len(positional):], positional))
            defaults.update(function.__kwdefaults__ or {})
            self._watch(code, [(arg, defaults[arg], name) for arg, name in pairs])
        elif code.co_name == "__init__" and code.co_argcount:
            owner = self._dataclass_of(code, frame.f_locals.get(code.co_varnames[0]))
            pairs = owner and self.fields.get((owner.__module__, owner.__qualname__))
            if pairs:
                named = dict(pairs)
                defaults = {
                    f.name: f.default if f.default is not dataclasses.MISSING
                    else f.default_factory()  # type: ignore[misc]
                    for f in dataclasses.fields(owner) if f.name in named}
                self._watch(code, [(arg, defaults[arg], name) for arg, name in pairs])

    @staticmethod
    def _dataclass_of(code: types.CodeType, instance: object) -> Optional[type]:
        """The ``repro`` dataclass whose generated ``__init__`` is ``code``."""
        for cls in type(instance).__mro__:
            init = cls.__dict__.get("__init__")
            if getattr(init, "__code__", None) is code:
                if cls.__module__.startswith("repro.") and dataclasses.is_dataclass(cls):
                    return cls
                return None
        return None

    def _watch(self, code: types.CodeType, entries: List[Tuple[str, Any, str]]) -> None:
        self.censused.update(name for _, _, name in entries)
        self.watched[code] = entries

    def check(self, code: types.CodeType, entries: List[Tuple[str, Any, str]],
              values: Dict[str, Any]) -> None:
        """Record the arguments of one call; stop watching a parameter
        once it varied."""
        keep: List[Tuple[str, Any, str]] = []
        for entry in entries:
            if _is_default(values[entry[0]], entry[1]):
                keep.append(entry)
            else:
                self.varied.add(entry[2])
        if not keep:
            del self.watched[code]
        elif len(keep) < len(entries):
            self.watched[code] = keep


def profiler(called: Set[Key], params: ParamWatch) -> Callable[..., None]:
    """The ``sys.setprofile`` hook of both censuses: it adds the key of
    each called ``src/`` code object to ``called`` and feeds every call
    to ``params``."""
    seen: Set[types.CodeType] = set()
    prefix = str(PACKAGE)
    watched = params.watched

    def profile(frame: types.FrameType, event: str, arg: object) -> None:
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                src = code.co_filename.startswith(prefix)
                if src:
                    called.add((code.co_filename, code.co_firstlineno, code.co_name))
                params.first_call(code, frame, src)
            entries = watched.get(code)
            if entries is not None:
                params.check(code, entries, frame.f_locals)

    return profile


def census(verbose: bool, watch: ParamWatch) -> Set[Key]:
    """Run every user path; the key of each code object that was called.
    ``watch`` takes the parameter census of the same calls."""
    called: Set[Key] = set()
    params = watch
    profile = profiler(called, params)
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


def _failures(title: str, lines: List[str]) -> int:
    """Print one failing section of the report; 1 if it has any line."""
    if not lines:
        return 0
    print(f"{title}:")
    for line in lines:
        print(f"  {line}")
    return 1


def main(argv: "List[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--verbose", action="store_true", help="print each user path as it runs")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    defined, param_table, fields, aliases = definitions()
    params = ParamWatch(param_table, fields)
    started = time.perf_counter()
    called = census(args.verbose, params)

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
    alias_names = {name for name, _ in aliases}
    missing = missing_entries([name for name, _ in defined.values()] + sorted(alias_names))
    stale = sorted(entry for entry in ALLOWLIST
                   if entry not in missing and entry not in alias_names and not covered[entry])

    print(f"{len(defined)} functions in src/repro; {len(unreached)} unreached by any user path")
    print(f"allowlisted ({sum(map(len, covered.values()))}):")
    for entry in sorted(ALLOWLIST):
        for name, span in covered[entry]:
            print(f"  {name} ({span} lines): {ALLOWLIST[entry]}")
    status = _failures(
        f"UNREACHED, not allowlisted ({len(findings)},"
        f" {sum(span for _, span in findings)} lines)",
        [f"{name} ({span} lines)" for name, span in findings])
    listed_aliases = unlisted_aliases(aliases)
    status |= _failures(
        f"CLASS-BODY ALIAS, a second name for one method ({len(listed_aliases)})",
        listed_aliases)
    status |= _failures(f"allowlisted but not defined ({len(missing)})", missing)
    status |= _failures(f"allowlisted but reached ({len(stale)})", stale)

    names = parameter_names(param_table, fields)
    never_varied = sorted(params.censused - params.varied)
    param_findings = [name for name in never_varied if name not in PARAM_ALLOWLIST]
    param_missing = missing_param_entries(names)
    param_stale = sorted(
        entry for entry in PARAM_ALLOWLIST
        if entry not in param_missing and entry not in never_varied)
    print(f"{len(names)} defaulted parameters and fields in src/repro;"
          f" {len(params.censused)} of called functions, {len(never_varied)} never varied"
          f" by any user path")
    print(f"allowlisted ({len(never_varied) - len(param_findings)}):")
    for name in never_varied:
        if name in PARAM_ALLOWLIST:
            print(f"  {name}: {PARAM_ALLOWLIST[name]}")
    status |= _failures(
        f"NEVER VARIED, not allowlisted ({len(param_findings)})", param_findings)
    status |= _failures(
        f"allowlisted but not a defaulted parameter ({len(param_missing)})", param_missing)
    status |= _failures(
        f"allowlisted but varied, or its function never called ({len(param_stale)})",
        param_stale)
    print(f"census wall time {time.perf_counter() - started:.0f} s")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
