#!/usr/bin/env python
"""Wall-clock benchmark of the execution engine (not the modelled system).

The paper's figures measure *virtual* seconds; this benchmark measures how
much *real* time the simulator burns producing them — the quantity the
engine overhaul (persistent worker pools, precompiled cost routes, striped
diagnostics, and now batch-compiled op streams) optimizes.  Five
workloads, all at 8 locales:

* ``fig3_atomics``   — the Figure 3 ``atomic int`` 25/25/25/25 mix (ugni).
* ``fig3_hotspot``   — the Zipf-skewed hotspot variant of the mix.
* ``fig7_readonly``  — the Figure 7 pin/unpin read-only epoch workload.
* ``reclaim_sparse`` — Figure 4's shape: sparse deferDelete traffic (25%
  of ops retire) with phased reclamation between rounds.
* ``reclaim_dense``  — Figure 5's shape: every op retires, the heaviest
  reclamation traffic the epoch rounds generate.

Every workload runs under **both execution engines** (``interpreted`` and
``compiled`` — see docs/ENGINE.md); the engines must agree bit-identically
on virtual time and comm totals (enforced here), and the report records
each engine's wall time plus the compiled-vs-interpreted speedup.  The
headline ``wall_s`` per workload is the *compiled* engine's — the engine a
throughput-bound sweep would use.

Labeling is honest about what actually ran: each entry's ``engine`` block
is the runtime's effective-engine record (configured engine, *effective*
engine, per-tier phase counts, and any per-phase fallbacks), plus a
``fallback_count`` — a workload whose every phase fell back to the
interpreter is reported as such, not as "compiled".

The script then compares against ``benchmarks/baseline_seed.json`` (the
thread-per-task seed engine measured on the same machine):

* **speedup** = baseline wall / current wall (the optimization target);
* **virtual_s and comm totals must match the baseline exactly** — the
  engine contract is that throughput work never changes simulated results.

Workloads without a seed entry (the hotspot and reclaim shapes postdate
the seed) report only the cross-engine speedup.

Output goes to ``BENCH_wallclock.json`` next to the repo root (or
``--out``).  Exit status is non-zero if virtual time or comm totals
diverge from the baseline or between engines; the speedup itself is
reported, not enforced (machines differ — see the baseline file for the
reference machine).

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py           # full (7 reps)
    PYTHONPATH=src python benchmarks/bench_wallclock.py --quick   # smoke (3 reps)
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from repro.engine import engine_summary
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import Runtime
from repro.bench.workloads import (
    run_atomic_mix,
    run_epoch_mixed,
    run_epoch_workload,
)

BASELINE_PATH = Path(__file__).resolve().parent / "baseline_seed.json"
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_wallclock.json"

NUM_LOCALES = 8
OPS_PER_TASK = 1 << 12

#: The two-engine comparison matrix.  ``compiled-strict`` is the same
#: engine as ``compiled`` with fallbacks turned into errors — CI runs it
#: over the scenario registry; timing it here would measure nothing new.
BENCH_ENGINES = ("interpreted", "compiled")


def calibration() -> float:
    """Wall seconds for a fixed pure-Python loop (lock cycles + float math).

    Engine-independent; comparing against the ``calibration_s`` recorded
    with the baseline estimates how loaded/slow the machine is *right
    now* relative to when the baseline was taken, so speedups can be
    reported load-adjusted as well as raw.  Do not change this loop
    without re-recording every baseline.
    """
    lk = threading.Lock()
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(300000):
        with lk:
            acc += i * 0.5
    return time.perf_counter() - t0


def _runtime(engine: str) -> Runtime:
    return Runtime(
        config=RuntimeConfig(
            num_locales=NUM_LOCALES,
            network="ugni",
            tasks_per_locale=1,
            engine=engine,
        )
    )


def fig3_atomics(engine: str):
    """Figure 3 atomic-int mix at 8 locales under ugni."""
    rt = _runtime(engine)
    try:
        res = run_atomic_mix(
            rt, cell="atomic_int", ops_per_task=OPS_PER_TASK, tasks_per_locale=1
        )
        return res, engine_summary(rt)
    finally:
        rt.close()


def fig3_hotspot(engine: str):
    """Zipf-skewed hotspot mix at 8 locales under ugni."""
    rt = _runtime(engine)
    try:
        res = run_atomic_mix(
            rt,
            cell="atomic_int",
            ops_per_task=OPS_PER_TASK,
            tasks_per_locale=1,
            num_cells=64,
            zipf_exponent=1.2,
        )
        return res, engine_summary(rt)
    finally:
        rt.close()


def fig7_readonly(engine: str):
    """Figure 7 read-only pin/unpin workload at 8 locales under ugni.

    Lowers to the columnar replay (``run_epoch_workload_phase``): the
    token registration runs for real on a synthetic task context and the
    pin/unpin charge stream replays from the reclaimer's charge profile.
    """
    rt = _runtime(engine)
    try:
        res = run_epoch_workload(
            rt,
            ops_per_task=OPS_PER_TASK,
            tasks_per_locale=1,
            delete=False,
            reclaim_every=None,
            cleanup_at_end=False,
        )
        return res, engine_summary(rt)
    finally:
        rt.close()


def reclaim_sparse(engine: str):
    """Figure 4's shape: sparse reclaim traffic over phased epoch rounds.

    25% of ops retire; between rounds the root quiesces the epoch and
    reclaims — the deterministic analog of Figure 4's periodic
    ``tryReclaim`` cadence.  The rounds lower to the columnar replay.
    """
    rt = _runtime(engine)
    try:
        res = run_epoch_mixed(
            rt,
            ops_per_task=OPS_PER_TASK // 4,
            tasks_per_locale=1,
            write_percent=25,
            remote_percent=50,
            rounds=4,
        )
        return res, engine_summary(rt)
    finally:
        rt.close()


def reclaim_dense(engine: str):
    """Figure 5's shape: every op retires (the densest reclaim traffic)."""
    rt = _runtime(engine)
    try:
        res = run_epoch_mixed(
            rt,
            ops_per_task=OPS_PER_TASK // 4,
            tasks_per_locale=1,
            write_percent=100,
            remote_percent=50,
            rounds=4,
        )
        return res, engine_summary(rt)
    finally:
        rt.close()


WORKLOADS = {
    "fig3_atomics": fig3_atomics,
    "fig3_hotspot": fig3_hotspot,
    "fig7_readonly": fig7_readonly,
    "reclaim_sparse": reclaim_sparse,
    "reclaim_dense": reclaim_dense,
}


def measure(fn, reps: int):
    """Min wall seconds over ``reps`` runs (after one warm-up), plus the
    last run's result and effective-engine summary."""
    fn()  # warm up: route tables, pool threads, bytecode + column caches
    best = float("inf")
    result = summary = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result, summary = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best, result, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="3 reps instead of 7")
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT, help="output JSON path")
    ap.add_argument(
        "--record-baseline",
        action="store_true",
        help="write measurements to benchmarks/baseline_seed.json instead of"
        " comparing (run this on a checkout of the seed engine)",
    )
    args = ap.parse_args(argv)
    reps = 3 if args.quick else 7

    baseline = None
    base_cal = None
    if BASELINE_PATH.exists() and not args.record_baseline:
        base_doc = json.loads(BASELINE_PATH.read_text())
        baseline = base_doc["workloads"]
        base_cal = base_doc.get("calibration_s")

    cal_now = min(calibration() for _ in range(3 if args.quick else 5))
    load_factor = (cal_now / base_cal) if base_cal else 1.0

    report = {
        "config": {
            "num_locales": NUM_LOCALES,
            "ops_per_task": OPS_PER_TASK,
            "reps": reps,
            "mode": "quick" if args.quick else "full",
            "engines": list(BENCH_ENGINES),
        },
        "calibration_s": cal_now,
        "load_factor_vs_baseline": load_factor,
        "workloads": {},
    }
    failures = []
    for name, fn in WORKLOADS.items():
        per_engine = {}
        results = {}
        summaries = {}
        for engine in BENCH_ENGINES:
            wall, res, summary = measure(lambda e=engine: fn(e), reps)
            per_engine[engine] = {
                "wall_s": wall,
                "effective_engine": summary["effective"],
            }
            results[engine] = res
            summaries[engine] = summary
        interp = results["interpreted"]
        comp = results["compiled"]
        if interp.elapsed != comp.elapsed or interp.comm != comp.comm:
            failures.append(
                f"{name}: compiled engine diverges from interpreted"
                f" (virtual {comp.elapsed!r} vs {interp.elapsed!r})"
            )
        # Headline numbers: the compiled engine (what a sweep would run);
        # virtual results are engine-independent by the check above.
        wall = per_engine["compiled"]["wall_s"]
        res = comp
        comp_summary = summaries["compiled"]
        entry = {
            # What the compiled run *actually* did, not what was asked
            # for: configured + effective engine, per-tier phase counts,
            # and each fallen-back phase with its reason.
            "engine": comp_summary,
            "fallback_count": len(comp_summary.get("fallbacks", [])),
            "wall_s": wall,
            "virtual_s": res.elapsed,
            "operations": res.operations,
            "comm": res.comm,
            "engines": per_engine,
            "compiled_vs_interpreted_speedup": (
                per_engine["interpreted"]["wall_s"] / wall
                if wall > 0
                else float("inf")
            ),
        }
        base = baseline.get(name) if baseline is not None else None
        if base is not None:
            entry["baseline_wall_s"] = base["wall_s"]
            entry["speedup"] = base["wall_s"] / wall if wall > 0 else float("inf")
            # Load-adjusted: what the baseline would measure on the machine
            # in its *current* state (per the calibration loop).
            entry["speedup_load_adjusted"] = (
                base["wall_s"] * load_factor / wall if wall > 0 else float("inf")
            )
            entry["virtual_matches_seed"] = res.elapsed == base["virtual_s"]
            entry["comm_matches_seed"] = res.comm == base["comm"]
            if not entry["virtual_matches_seed"]:
                failures.append(
                    f"{name}: virtual {res.elapsed!r} != seed {base['virtual_s']!r}"
                )
            if not entry["comm_matches_seed"]:
                failures.append(f"{name}: comm totals diverge from seed")
        report["workloads"][name] = entry
        line = (
            f"{name}: wall {wall*1e3:8.2f} ms  virtual {res.elapsed:.9f} s"
            f"  engine {entry['compiled_vs_interpreted_speedup']:.2f}x"
            f" [{comp_summary['effective']}"
        )
        if entry["fallback_count"]:
            line += f", {entry['fallback_count']} fallback(s)"
        line += "]"
        if base is not None:
            line += (
                f"  vs-seed {entry['speedup']:.2f}x"
                f" (load-adjusted {entry['speedup_load_adjusted']:.2f}x)"
            )
        print(line)

    if args.record_baseline:
        payload = {
            "comment": "Seed-engine reference recorded by --record-baseline.",
            "calibration_s": cal_now,
            "workloads": {
                name: {
                    "wall_s": e["wall_s"],
                    "virtual_s": e["virtual_s"],
                    "comm": e["comm"],
                }
                for name, e in report["workloads"].items()
            },
        }
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline recorded to {BASELINE_PATH}")
        return 0

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {args.out}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
