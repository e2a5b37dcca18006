"""The benchmark's four workloads: their job lists and correctness checks.

A *job* is one ``run_scenario`` call on a fresh ``Runtime``; a workload is
a fixed list of jobs.  Every job list is built from the simulator's public
API only (registered scenarios derived with ``with_topology`` /
``with_workload`` / ``with_measure``, and the figure drivers' own grids),
so the benchmark times exactly what users run, at the sizes below.

Sizes are the benchmark's choice, not the simulator's defaults: each
workload runs at a fixed fraction of the op counts users run, so that one
pass takes a second or two and a run holds several passes.  ``div``
divides those op counts again (``--smoke`` uses 16).  The shapes —
scenarios, locale axes, networks, engines — never change with ``div``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.bench import figures
from repro.bench.scenarios import ScenarioSpec, get_scenario, scenario_names

#: Pool size never changes deterministic results.  One pool thread keeps
#: the interpreted workloads' real task hand-offs; a larger pool only adds
#: run-to-run swing to host time.
POOL_SIZE = 1
#: Locale axis of the ``scale`` workload.
SCALE_LOCALES = (16, 32, 64, 128, 256)

Job = Tuple[str, ScenarioSpec]


def job_id(spec: ScenarioSpec) -> str:
    """A stable, human-readable identity for one job of a workload."""
    topo = spec.topology
    params = ",".join(f"{k}={v}" for k, v in sorted(spec.workload.params))
    return (
        f"{spec.name}/{topo.network}/{topo.locales}x{topo.tasks_per_locale}"
        f"/s{spec.measure.ops_scale:g}/{params}"
    )


def figure_specs(driver: Callable[..., Any], **kwargs: Any) -> List[ScenarioSpec]:
    """The specs a figure driver would run, in its own order, unexecuted.

    The drivers in :mod:`repro.bench.figures` derive every grid point from
    a registered base scenario and hand it to ``run_scenario``; recording
    those calls gives the figure's job list without restating its grid.
    """
    specs: List[ScenarioSpec] = []

    def record(spec: ScenarioSpec) -> SimpleNamespace:
        specs.append(spec)
        return SimpleNamespace(result=SimpleNamespace(elapsed=0.0))

    original = figures.run_scenario
    figures.run_scenario = record
    try:
        driver(**kwargs)
    finally:
        figures.run_scenario = original
    return specs


def _ops(base: int, div: int) -> int:
    return max(1, base // div)


def _registry(div: int) -> List[ScenarioSpec]:
    # CI's `scenarios --all --engine compiled-strict`, at a quarter of the
    # registered op counts.
    return [
        get_scenario(name)
        .with_topology(engine="compiled-strict")
        .with_measure(ops_scale=0.25 / div)
        for name in scenario_names()
    ]


def _scale(div: int) -> List[ScenarioSpec]:
    # Four lowered shapes along the locale axis.  Compiled, because the
    # interpreted Zipf hotspot at >= 64 locales does not repeat its
    # virtual time (probe_determinism.py reproduces that).
    readonly = {
        spec.topology.locales: spec
        for spec in figure_specs(
            figures.figure7, locales=SCALE_LOCALES, ops_per_task=_ops(512, div)
        )
        if spec.topology.network == "ugni"
    }
    specs = []
    for locales in SCALE_LOCALES:
        for name in ("hotspot-zipf", "paper-atomic-mix", "topo-hier-agg-hp-w16"):
            specs.append(
                get_scenario(name)
                .with_topology(locales=locales)
                .with_measure(ops_scale=0.25 / div)
            )
        specs.append(readonly[locales])
    return [spec.with_topology(engine="compiled-strict") for spec in specs]


def _figures(div: int) -> List[ScenarioSpec]:
    # The deterministic paper panels, interpreted as the figure CLI runs
    # them, at 1/16 of the CLI's default op counts.
    return (
        figure_specs(figures.figure3_distributed, ops_per_task=_ops(128, div))
        + figure_specs(figures.figure6, ops_per_task=_ops(64, div))
        + figure_specs(figures.figure7, ops_per_task=_ops(128, div))
    )


def _elections(div: int) -> List[ScenarioSpec]:
    # The schedule-dependent panels: mid-phase tryReclaim elections.  Fig 4
    # keeps its one election per task at the end of the task's items by
    # scaling reclaim_every with the op count.
    fig4_ops = _ops(128, div)
    return figure_specs(
        figures.figure5, locales=(2, 4, 8, 16), ops_per_task=_ops(16, div)
    ) + figure_specs(
        figures.figure4,
        remote_percents=(50,),
        ops_per_task=fig4_ops,
        reclaim_every=fig4_ops,
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build its jobs and how to check them."""

    name: str
    build: Callable[[int], List[ScenarioSpec]]
    #: Virtual results are deterministic: pinned in references.json and
    #: bit-identical across passes.  Otherwise only invariants are checked.
    pinned: bool
    #: Host-trace layers (hosttrace.LAYERS) this workload must never
    #: call, and layers it must call: a traced run that breaks either
    #: has a missed patch or a workload that no longer does its job.
    idle: Tuple[str, ...]
    busy: Tuple[str, ...]

    def jobs(self, seed: int, div: int = 1) -> List[Job]:
        """The workload's jobs for ``seed``, validated and in run order."""
        out = []
        for spec in self.build(div):
            spec = spec.with_topology(seed=seed, worker_pool_size=POOL_SIZE)
            out.append((job_id(spec), spec))
        ids = [jid for jid, _ in out]
        if len(set(ids)) != len(ids):
            raise ValueError(f"workload {self.name!r} has duplicate job ids")
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "registry", _registry, pinned=True,
            idle=(),
            busy=("structures", "engine.executor", "memory.heap", "atomics",
                  "core.token", "reclaim", "runtime.tasking"),
        ),
        Workload(
            "scale", _scale, pinned=True,
            idle=("structures", "core.token"),
            busy=("engine.executor", "engine.opstream", "memory.heap",
                  "comm.aggregation"),
        ),
        Workload(
            "figures", _figures, pinned=True,
            idle=("engine.executor", "engine.opstream", "structures"),
            busy=("atomics", "comm.network", "runtime.clock",
                  "runtime.tasking", "core.token", "core.epoch_manager"),
        ),
        Workload(
            "elections", _elections, pinned=False,
            idle=("engine.executor", "engine.opstream", "structures"),
            busy=("core.epoch_manager", "core.token", "atomics",
                  "runtime.tasking"),
        ),
    )
}


def layer_problems(workload: Workload, layers: Dict[str, float]) -> List[str]:
    """Violations of a workload's expected idle and busy layers."""
    problems = []
    for name in workload.idle:
        if layers[f"{name}.calls"] != 0:
            problems.append(f"layer {name} expected idle, made {layers[f'{name}.calls']} calls")
    for name in workload.busy:
        if layers[f"{name}.calls"] == 0:
            problems.append(f"layer {name} expected busy, made no calls")
    return problems


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def facts(run: Any) -> List[Any]:
    """The virtual results a speed change must leave bit-identical."""
    result = run.result
    return [repr(result.elapsed), result.operations, dict(result.comm)]


def digest(per_job: Sequence[Tuple[str, Any]]) -> str:
    """One short hash over every job's facts, in job order."""
    blob = json.dumps([list(item) for item in per_job], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def election_facts(spec: ScenarioSpec, run: Any) -> Tuple[List[Any], List[str]]:
    """Deterministic facts and invariant violations of one elections job.

    Election outcomes depend on the real schedule, so virtual time may
    vary; what may not vary is the operation count, and every retired
    object must be freed by the end of the job.
    """
    topo = spec.topology
    params = spec.workload.resolved_params(spec.measure.ops_scale)
    expected_ops = topo.locales * topo.tasks_per_locale * params["ops_per_task"]
    result = run.result
    em = result.extra.get("em", {})
    problems = []
    if result.operations != expected_ops:
        problems.append(f"operations {result.operations} != {expected_ops}")
    if em.get("retired") != em.get("freed"):
        problems.append(f"retired {em.get('retired')} != freed {em.get('freed')}")
    if result.extra.get("pending_after") != 0:
        problems.append(f"pending_after {result.extra.get('pending_after')} != 0")
    return [result.operations, em.get("retired"), em.get("freed")], problems


def reference_key(workload: str, div: int, seed: int) -> str:
    return f"{workload}/div{div}/seed{seed}"


def load_references(path: str) -> Dict[str, Any]:
    """``{"jobs": {key: {job id: facts}}}``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"jobs": {}}


def write_references(path: str, per_job: Dict[str, Dict[str, Any]]) -> None:
    """Write references one job per line, so a re-pin diffs per job."""
    lines = [
        "{",
        ' "note": "Virtual results of the pinned workloads per job:'
        " [repr(elapsed), operations, comm]. Written by"
        ' run.py --record-references.",',
        ' "jobs": {',
    ]
    keys = sorted(per_job)
    for k, key in enumerate(keys):
        lines.append(f"  {json.dumps(key)}: {{")
        jobs = sorted(per_job[key])
        for j, jid in enumerate(jobs):
            comma = "," if j < len(jobs) - 1 else ""
            fact = json.dumps(per_job[key][jid], sort_keys=True)
            lines.append(f"   {json.dumps(jid)}: {fact}{comma}")
        lines.append("  }" + ("," if k < len(keys) - 1 else ""))
    lines += [" }", "}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def compare_to_reference(
    per_job: Sequence[Tuple[str, Any]], refs: Dict[str, Any], key: str
) -> Tuple[str, List[str]]:
    """Compare one pass's facts with the pinned ones.

    Returns ``(status, problems)``: status is ``"absent"`` when nothing is
    pinned for ``key``, else ``"match"`` or ``"mismatch"``, and problems
    name each differing job.
    """
    pinned = refs["jobs"].get(key)
    if pinned is None:
        return "absent", []
    got = {jid: json.loads(json.dumps(f)) for jid, f in per_job}
    problems = []
    if set(got) != set(pinned):
        problems.append("job list differs from the pinned references")
    for jid in sorted(set(got) & set(pinned)):
        if got[jid] != pinned[jid]:
            problems.append(f"{jid}: {got[jid]} != pinned {pinned[jid]}")
    return ("mismatch" if problems else "match"), problems
