"""One measurement process of the end-to-end benchmark (run by run.py).

Subcommands, each printing one JSON object as its last stdout line:

* ``passes WORKLOAD`` — one untimed warm-up pass, then timed passes until
  ``--seconds`` have elapsed (at least three), every job's outputs
  checked; ``--spans-pass`` adds one pass with ``trace=spans``.
* ``setup WORKLOAD`` — time ``import repro``, building and validating the
  job specs, and constructing and closing one Runtime per distinct
  machine.  Meant to run in a fresh interpreter.
* ``traced WORKLOAD`` — wrap every layer's entry points (hosttrace.py),
  run a warm-up pass and one traced pass, and report per-layer counters.
* ``record`` — re-pin references.json; refuses unless the full-size
  registry still matches benchmarks/scenario_baselines.json.

A pass runs every job of the workload once, sequentially, on this thread,
after clearing the compiled-column cache (every CLI invocation starts
cold).  Run it through run.py, which sets up the import path.

Host time is reported twice: as wall seconds, and as *reference seconds*
(see :func:`calibration_sample`), which is what the metrics use.  On a
shared host the CPU's speed changes by half or more over seconds as
neighbours come and go; timing a fixed kernel right after every job and
dividing it out removes most of that, while a change to the simulator
still moves the result in full.  That only holds when the kernel runs on
the CPU the job ran on, so every process pins itself to one CPU.
Unpinned, the interpreted jobs work on the pool thread while the kernel
runs on the root thread, often on the other CPU, and a speed gap between
the two CPUs passes straight into the result.  The price: the cost of
GIL hand-offs between CPUs, which unpinned users pay, is not measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

#: setup_s counts from here: repro (and jobs.py) are imported lazily.
_T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
REFERENCES = os.path.join(HERE, "references.json")
#: The simulator's default seed, and a second one; both are pinned.
DEFAULT_SEED = 0xC0FFEE
SECOND_SEED = 1
#: Op-count divisor of run.py --smoke, whose results are pinned too.
SMOKE_DIV = 16
MIN_TIMED_PASSES = 3
#: One reference second is the time the calibration kernel takes to run
#: 10,000 times.  Part of the benchmark's definition: changing the kernel
#: or this constant rescales every reported time.
KERNEL_REFERENCE_S = 1e-4


def _emit(doc: Dict[str, Any]) -> None:
    print(json.dumps(doc))


def pin_to_one_cpu() -> None:
    """Run this process (all its threads) on its lowest allowed CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class _Cell:
    __slots__ = ("value", "count")

    def __init__(self) -> None:
        self.value = 0.0
        self.count = 0


def _kernel() -> None:
    """Fixed interpreter work: object, attribute and arithmetic traffic."""
    cells = [_Cell() for _ in range(16)]
    for i in range(1000):
        cell = cells[i & 15]
        cell.value += 1.5
        cell.count += 1


def calibration_sample() -> float:
    """Seconds per reference second on this CPU, right now.

    The median of three timed kernel runs, scaled by
    :data:`KERNEL_REFERENCE_S`: dividing a wall time by it gives
    reference seconds.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1] / KERNEL_REFERENCE_S


class PassLog:
    """Facts and failures of every pass of one workload."""

    def __init__(self, workload: Any, jobs: List[Tuple[str, Any]]) -> None:
        self.workload = workload
        self.jobs = jobs
        self.first: Optional[List[Tuple[str, Any]]] = None
        self.ops = 0
        self.problems: List[str] = []
        self.failed = 0
        #: Failed jobs whose compiled-strict phase would have fallen back.
        self.fallbacks = 0
        self.elapsed: Dict[str, List[float]] = {}
        self.em = {"advances": 0, "reclaim_attempts": 0}

    def run_pass(self, *, trace: str = "off") -> Tuple[float, float]:
        """Run every job once; return the pass's (wall, reference) seconds.

        Both sum the jobs' own durations; the calibration kernel run after
        each job is not part of either.
        """
        from repro.bench.scenarios import run_scenario
        from repro.engine import COLUMN_CACHE
        from repro.errors import CompiledFallbackError

        import jobs as jobs_mod

        COLUMN_CACHE.clear()
        gc.collect()
        runs: List[Tuple[str, Any, Any]] = []
        wall = ref = 0.0
        for jid, spec in self.jobs:
            if trace != "off":
                spec = spec.with_topology(trace=trace)
            t0 = time.perf_counter()
            try:
                runs.append((jid, spec, run_scenario(spec)))
            except Exception as exc:  # a failed job is counted; the pass goes on
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                self.fallbacks += isinstance(exc, CompiledFallbackError)
                self.problems.append(f"{jid}: raised (traceback on stderr)")
            took = time.perf_counter() - t0
            wall += took
            ref += took / calibration_sample()

        self.ops = sum(run.result.operations for _, _, run in runs)
        per_job = []
        for jid, spec, run in runs:
            em =run.result.extra.get("em", {})
            for key in self.em:
                self.em[key] += em.get(key, 0)
            if self.workload.pinned:
                per_job.append((jid, jobs_mod.facts(run)))
            else:
                fact, problems = jobs_mod.election_facts(spec, run)
                per_job.append((jid, fact))
                self.problems.extend(f"{jid}: {p}" for p in problems)
                self.elapsed.setdefault(jid, []).append(run.result.elapsed)
        if self.first is None:
            self.first = per_job
        elif per_job != self.first:
            self.problems.append("virtual results differ between passes")
        return wall, ref

    def verdict(self, seed: int, div: int) -> Dict[str, Any]:
        """Checks that need every pass: references and virtual-time spread."""
        import jobs as jobs_mod

        first = self.first or []
        out: Dict[str, Any] = {"virtual_digest": jobs_mod.digest(first)}
        if self.workload.pinned:
            key = jobs_mod.reference_key(self.workload.name, div, seed)
            refs = jobs_mod.load_references(REFERENCES)
            out["reference"], problems = jobs_mod.compare_to_reference(first, refs, key)
            self.problems.extend(problems)
        else:
            spreads = {
                jid: (max(v) - min(v)) / min(v)
                for jid, v in self.elapsed.items()
                if min(v) > 0
            }
            out["virtual_spread"] = {
                "jobs_varying": sum(1 for s in spreads.values() if s > 0),
                "max_rel": max(spreads.values(), default=0.0),
            }
        out["problems"] = self.problems[:20]
        out["failed"] = self.failed
        return out


def _workload(name: str, seed: int, div: int) -> Tuple[Any, List[Tuple[str, Any]]]:
    import jobs as jobs_mod

    workload = jobs_mod.WORKLOADS[name]
    return workload, workload.jobs(seed, div)


def cmd_passes(args: argparse.Namespace) -> None:
    workload, jobs = _workload(args.workload, args.seed, args.div)
    log = PassLog(workload, jobs)
    passes: List[Tuple[float, float]] = []
    if args.div == 1:
        log.run_pass()  # warm-up: lazy imports, first-touch allocations
        failed_warmup = log.failed
        start = time.perf_counter()
        while len(passes) < MIN_TIMED_PASSES or time.perf_counter() - start < args.seconds:
            passes.append(log.run_pass())
    else:  # smoke: one pass at reduced size, every check still applies
        failed_warmup = 0
        passes.append(log.run_pass())
    failed_timed = log.failed - failed_warmup
    spans = log.run_pass(trace="spans") if args.spans_pass else (None, None)
    doc = log.verdict(args.seed, args.div)
    doc.update(
        walls=[wall for wall, _ in passes],
        ref_walls=[ref for _, ref in passes],
        jobs=len(jobs),
        ops_per_pass=log.ops,
        attempted=len(jobs) * len(passes),
        failed=failed_timed,
        spans_ref_wall=spans[1],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    _emit(doc)


def cmd_setup(args: argparse.Namespace) -> None:
    from repro.runtime.runtime import Runtime

    _, jobs = _workload(args.workload, args.seed, 1)
    for topo in {spec.topology for _, spec in jobs}:
        with Runtime(config=topo.runtime_config()):
            pass
    took = time.perf_counter() - _T0
    speed = sorted(calibration_sample() for _ in range(9))[4]
    _emit({"setup_s": took, "setup_ref_s": took / speed})


def cmd_traced(args: argparse.Namespace) -> None:
    import hosttrace

    tracer = hosttrace.HostTracer()
    hosttrace.install(tracer)
    from repro.engine import COLUMN_CACHE

    import jobs as jobs_mod

    workload, jobs = _workload(args.workload, args.seed, args.div)
    log = PassLog(workload, jobs)
    log.run_pass()  # warm-up, also traced: its counts are dropped
    tracer.reset()
    log.em = dict.fromkeys(log.em, 0)
    log.fallbacks = 0
    wall, ref_wall = log.run_pass()
    hits, misses, _ = COLUMN_CACHE.stats()
    layers = tracer.totals()
    log.problems.extend(jobs_mod.layer_problems(workload, layers))
    doc = log.verdict(args.seed, args.div)
    os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
    spans = tracer.write_chrome_trace(
        args.trace_out,
        {"workload": args.workload, "seed": args.seed, "pass_wall_s": wall},
    )
    doc.update(
        ref_wall=ref_wall,
        layers=layers,
        cache_hits=hits,
        cache_misses=misses,
        em=log.em,
        fallbacks=log.fallbacks,
        trace_file=os.path.relpath(args.trace_out, ROOT),
        trace_spans=spans,
    )
    _emit(doc)


def cmd_record(args: argparse.Namespace) -> None:
    from repro.bench.scenarios import (
        build_report,
        get_scenario,
        load_baselines,
        run_scenario,
        scenario_names,
    )

    import jobs as jobs_mod

    baselines = load_baselines(os.path.join(ROOT, "benchmarks", "scenario_baselines.json"))
    runs = [
        run_scenario(
            get_scenario(name).with_topology(
                engine="compiled-strict", worker_pool_size=jobs_mod.POOL_SIZE
            )
        )
        for name in scenario_names()
    ]
    report = build_report(runs, baselines=baselines)
    drift = sorted(
        name
        for name, entry in report["scenarios"].items()
        if entry["regression"]["status"] != "match"
    )
    if drift or len(runs) != len(baselines):
        print(
            f"refusing to record: registry differs from scenario_baselines.json: {drift}",
            file=sys.stderr,
        )
        sys.exit(1)

    per_job: Dict[str, Dict[str, Any]] = {}
    digests: Dict[str, str] = {}
    for workload in jobs_mod.WORKLOADS.values():
        if not workload.pinned:
            continue
        for div in (1, SMOKE_DIV):
            for seed in (DEFAULT_SEED, SECOND_SEED):
                log = PassLog(workload, workload.jobs(seed, div))
                log.run_pass()
                log.run_pass()  # pin only what repeats
                if log.problems:
                    print(f"refusing to record: {log.problems}", file=sys.stderr)
                    sys.exit(1)
                key = jobs_mod.reference_key(workload.name, div, seed)
                per_job[key] = dict(log.first or [])
                digests[key] = jobs_mod.digest(log.first or [])
    jobs_mod.write_references(REFERENCES, per_job)
    _emit({"recorded": digests})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("passes", "setup", "traced"):
        p = sub.add_parser(name)
        p.add_argument("workload")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--div", type=int, default=1)
        if name == "passes":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--spans-pass", action="store_true")
        if name == "traced":
            p.add_argument("--trace-out", required=True)
    sub.add_parser("record")
    args = parser.parse_args()
    pin_to_one_cpu()
    {"passes": cmd_passes, "setup": cmd_setup, "traced": cmd_traced, "record": cmd_record}[
        args.cmd
    ](args)


if __name__ == "__main__":
    main()
