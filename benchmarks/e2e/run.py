"""End-to-end benchmark of the simulator's host time.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1 | --layers] [--smoke] [--out PATH]
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --record-references

Prints every end-to-end metric of each workload by name and unit, checks
that the simulator's outputs are correct, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero if a
job failed or an output was wrong.  ``--trace 1`` (alias ``--layers``)
reports the per-layer metrics of an extra traced pass instead.

Metric names, units, bounds and the workload list come from the root
``BENCHMARK.json``; workloads and checks are in jobs.py, the measuring
processes in worker.py, and README.md explains the protocol.  This file
only orchestrates: each workload's passes run in a fresh subprocess,
``setup_s`` is timed in seven more, and the traced pass in its own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

from worker import DEFAULT_SEED, HERE, ROOT, SMOKE_DIV

WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 7


class ChildFailed(RuntimeError):
    """A measuring subprocess exited non-zero or timed out."""


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child(args: Sequence[str], timeout: float) -> Dict[str, Any]:
    """Run worker.py in a fresh interpreter; return its last JSON line."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker {' '.join(args)} timed out after {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a sample."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_e2e(name: str, seed: int, seconds: float, div: int) -> Dict[str, Any]:
    passes = child(
        ["passes", name, "--seed", str(seed), "--seconds", str(seconds), "--div", str(div)],
        timeout=3 * seconds + 90,
    )
    # After the passes child, so every probe imports from warm bytecode.
    probes = 1 if div != 1 else SETUP_PROBES
    setup = [child(["setup", name, "--seed", str(seed)], timeout=60) for _ in range(probes)]
    ops = passes["ops_per_pass"]
    metrics = {
        "sim_ops_per_s": throughput(ops, passes["ref_walls"]),
        "setup_s": summary([probe["setup_ref_s"] for probe in setup]),
        "peak_rss_mb": summary([passes["peak_rss_mb"]]),
    }
    wall_clock = {
        "sim_ops_per_s": throughput(ops, passes["walls"]),
        "setup_s": summary([probe["setup_s"] for probe in setup]),
    }
    return {"passes": passes, "metrics": metrics, "wall_clock": wall_clock}


def throughput(ops: int, pass_seconds: Sequence[float]) -> Dict[str, float]:
    """Ops per second over the median pass, with quartiles and n."""
    s = summary(pass_seconds)
    # The slow-pass quartile is the low-throughput one.
    return {"value": ops / s["value"], "q1": ops / s["q3"], "q3": ops / s["q1"], "n": s["n"]}


def measure_layers(name: str, seed: int, seconds: float, div: int) -> Dict[str, Any]:
    passes = child(
        ["passes", name, "--seed", str(seed), "--seconds", str(seconds),
         "--div", str(div), "--spans-pass"],
        timeout=3 * seconds + 90,
    )
    trace_out = os.path.join(TRACE_DIR, f"host-trace-{name}-seed{seed}.json")
    traced = child(
        ["traced", name, "--seed", str(seed), "--div", str(div), "--trace-out", trace_out],
        timeout=150,
    )
    untraced = statistics.median(passes["ref_walls"])
    layers = traced["layers"]
    values = {k: v for k, v in layers.items() if not k.startswith("cas_")}
    values.update({
        "engine.cache.hit_ratio": _ratio(
            traced["cache_hits"], traced["cache_hits"] + traced["cache_misses"]
        ),
        "atomics.cas_success_ratio": _ratio(layers["cas_successes"], layers["cas_attempts"]),
        "core.epoch_manager.advance_ratio": _ratio(
            traced["em"]["advances"], traced["em"]["reclaim_attempts"]
        ),
        "engine.fallbacks": traced["fallbacks"],
        "obs.spans_overhead_ratio": passes["spans_ref_wall"] / untraced,
        "tracer.overhead_ratio": traced["ref_wall"] / untraced,
    })
    metrics = {k: {"value": v, "q1": v, "q3": v, "n": 1} for k, v in values.items()}
    return {"passes": passes, "traced": traced, "metrics": metrics}


def run_workload(name: str, args: argparse.Namespace, bench: Dict[str, Any]) -> Dict[str, Any]:
    div = SMOKE_DIV if args.smoke else 1
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    measure = measure_layers if args.trace else measure_e2e
    try:
        result = measure(name, args.seed, args.seconds, div)
    except ChildFailed as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    passes = result["passes"]
    problems = list(passes["problems"])
    if "traced" in result:
        problems += result["traced"]["problems"]
    missing = {m["name"] for m in declared} ^ set(result["metrics"])
    if missing:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    units = {m["name"]: m["unit"] for m in declared}
    for key, stat in result["metrics"].items():
        stat["unit"] = units.get(key, "?")
    entry = {
        "correct": not problems and passes["failed"] == 0,
        "attempted": passes["attempted"],
        "failed": passes["failed"],
        "jobs": passes["jobs"],
        "timed_passes": len(passes["walls"]),
        "pass_walls_s": passes["walls"],
        "pass_ref_s": passes["ref_walls"],
        "virtual_digest": passes["virtual_digest"],
        "reference": passes.get("reference"),
        "virtual_spread": passes.get("virtual_spread"),
        "metrics": result["metrics"],
        "wall_clock": result.get("wall_clock", {}),
        "problems": problems,
    }
    if "traced" in result:
        entry["host_trace"] = result["traced"]["trace_file"]
    report(name, entry, args.seed)
    return entry


def _line(key: str, stat: Dict[str, Any], unit: str) -> str:
    spread = ""
    if stat["n"] > 1:
        spread = f"  (q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n={stat['n']})"
    return f"  {key:36s} {stat['value']:14.6g} {unit}{spread}"


def report(name: str, entry: Dict[str, Any], seed: int) -> None:
    print(f"== {name}: {entry['jobs']} jobs, {entry['timed_passes']} timed pass(es), seed {seed}")
    for key, stat in entry["metrics"].items():
        print(_line(key, stat, stat["unit"]))
    for key, stat in entry["wall_clock"].items():
        unit = entry["metrics"][key]["unit"]
        print(_line(f"{key} (wall clock, context only)", stat, unit))
    rate = _ratio(entry["failed"], entry["attempted"])
    print(f"  {'fail_rate':36s} {rate:14.6g} fraction ({entry['failed']}/{entry['attempted']} jobs)")
    pinned = {
        "match": "matches references.json",
        "mismatch": "DIFFERS from references.json",
        "absent": "no pinned reference for this seed",
    }
    note = pinned.get(entry["reference"] or "", "invariants checked")
    print(f"  {'virtual_digest':36s} {entry['virtual_digest']:>14s} ({note})")
    if entry["virtual_spread"]:
        vs = entry["virtual_spread"]
        print(f"  virtual_s spread: {vs['jobs_varying']} job(s) varied, max {vs['max_rel']:.3%}")
    if "host_trace" in entry:
        print(f"  host trace: {entry['host_trace']}")
    for problem in entry["problems"]:
        print(f"  PROBLEM: {problem}")


def compare(path_a: str, path_b: str, bench: Dict[str, Any]) -> int:
    """Print A vs B per workload and end-to-end metric; 1 if any is worse."""
    with open(path_a) as fa, open(path_b) as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    worse = 0
    header = f"{'workload':10s} {'metric':14s} {'median A':>12s} {'IQR A':>10s} {'median B':>12s} {'IQR B':>10s} {'change':>8s}  verdict"
    print(header)
    for name in sorted(set(doc_a["workloads"]) & set(doc_b["workloads"])):
        for metric in bench["end_to_end"]:
            a = doc_a["workloads"][name]["metrics"].get(metric["name"])
            b = doc_b["workloads"][name]["metrics"].get(metric["name"])
            if a is None or b is None:
                continue
            change = _ratio(b["value"] - a["value"], a["value"])
            loss = -change if metric["better"] == "higher" else change
            ok = loss <= metric["bound"]
            worse += not ok
            print(
                f"{name:10s} {metric['name']:14s} {a['value']:12.6g} {a['q3'] - a['q1']:10.4g}"
                f" {b['value']:12.6g} {b['q3'] - b['q1']:10.4g} {change:+8.2%}  "
                + ("within bound" if ok else f"WORSE than bound {metric['bound']:.0%}")
            )
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="extend", nargs="+", choices=names,
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="timed-pass budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from an extra traced pass")
    parser.add_argument("--layers", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help=f"one pass per workload at 1/{SMOKE_DIV} of the op counts")
    parser.add_argument("--out", help="write the full results document here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out documents and exit")
    parser.add_argument("--record-references", action="store_true",
                        help="re-pin references.json (refuses if the registry drifted)")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, bench)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no simulator source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.record_references:
        try:
            print(json.dumps(child(["record"], timeout=1800)))
        except ChildFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        return 0

    entries = {name: run_workload(name, args, bench) for name in (args.workload or names)}
    if args.out:
        doc = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "smoke": args.smoke, "workloads": entries}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    single = len(entries) == 1
    metrics = {
        (key if single else f"{name}.{key}"): {"value": stat["value"], "unit": stat["unit"]}
        for name, entry in entries.items()
        for key, stat in entry["metrics"].items()
    }
    result = {
        "correct": all(e["correct"] for e in entries.values()),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
