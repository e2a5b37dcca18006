"""CLI: the paper's figures, the ablations, and the scenario engine.

Figure mode (the default)::

    python -m repro.bench --figure 3a          # Figure 3 shared-memory panel
    python -m repro.bench --figure 4           # Figure 4 (all three panels)
    python -m repro.bench --figure all         # everything (minutes)
    python -m repro.bench --figure ablations   # the design ablations
    python -m repro.bench --figure 5 --ops 256 --max-locales 16   # quick pass

``--ops`` scales per-task operation counts (virtual seconds scale linearly;
shapes are invariant).  ``--max-locales`` truncates the locale axis for
quick runs.

Scenario mode (see :mod:`repro.bench.scenarios` and docs/SCENARIOS.md)::

    python -m repro.bench scenarios --list
    python -m repro.bench scenarios --list --filter topo-hier
    python -m repro.bench scenarios --run hotspot-zipf queue-churn
    python -m repro.bench scenarios --run queue-churn --reclaimer hp
    python -m repro.bench scenarios --run queue-churn --topology hier:2x2
    python -m repro.bench scenarios --run topo-hier-reclaim-ebr --aggregation 8
    python -m repro.bench scenarios --run topo-hier-reclaim-ebr --policy threshold:32
    python -m repro.bench scenarios --run hotspot-zipf --cost-profile wan
    python -m repro.bench scenarios --all --out report.json
    python -m repro.bench scenarios --all --engine compiled
    python -m repro.bench scenarios --all --update-baselines
    python -m repro.bench scenarios --spec my_scenario.toml
    python -m repro.bench scenarios --run hotspot-zipf --trace full --trace-out t.json

``--list --filter <substring>`` narrows the listing to scenarios whose
name, policy spec, or compiled-coverage tier contains the substring (the
registry has grown past one screen).  The listing's ``compiled`` column
is computed from :func:`repro.bench.scenarios.compiled_coverage` — e.g.
``--filter columnar`` shows every scenario the compiled engine replays
from lowered columns, ``--filter interpreted`` every one that still
falls back.

``--reclaimer {ebr,hp,qsbr,ibr}`` overrides the memory-reclamation scheme
of every selected scenario (see docs/RECLAMATION.md); the JSON report's
``extra.em`` block carries each run's per-scheme retired / freed /
peak-pending counts — plus ``scan_batches`` / ``uplink_crossings`` when
message aggregation batched any scan traffic.  ``--topology`` (``flat``,
``hier:SxL``, ``dragonfly:G`` — see docs/TOPOLOGY.md), ``--aggregation``
(the uplink batching window, docs/AGGREGATION.md), ``--cost-profile``
(``default``/``degraded``/``wan``), ``--cost-scale`` and ``--policy``
(the virtual-time policy pair — e.g. ``threshold:32`` or
``threshold:32+adaptive:2..64``; see docs/POLICY.md) override the
simulated machine the same way; these six fields
(:data:`~repro.bench.scenarios.BASELINE_IDENTITY`) are recorded in
reports and baselines, and a run whose value differs from the recorded
baseline reports ``incomparable`` instead of pretending to compare.  None of them
can be combined with ``--update-baselines`` (a scenario's baseline pins
the machine it was registered with).

``--engine {interpreted,compiled,compiled-strict}`` selects the workload
execution engine (docs/ENGINE.md).  It is *not* a machine axis: compiled
execution is bit-identical to interpreted by contract, so baselines
verify unchanged under either engine and the flag composes with
``--update-baselines`` — running ``--all --engine compiled`` is the
cheap way to re-verify every baseline.  ``compiled-strict`` additionally
turns any silent fallback to the interpreter into an error (CI runs it
over the lowered set); each report entry's ``engine`` block records the
configured engine, the *effective* engine, and any per-phase fallbacks.

``--trace {off,spans,full}`` turns on the virtual-time flight recorder
(docs/OBSERVABILITY.md).  Like ``--engine`` it is *not* a machine axis:
tracing never changes any virtual-time result, so it composes with
``--update-baselines`` too.  Traced runs attach the metrics registry
under ``extra.obs`` in the report; ``--trace-out PATH`` additionally
writes the merged event stream (Chrome trace-event JSON, Perfetto-
loadable — or flat JSONL when PATH ends in ``.jsonl``).

Trace mode — run one scenario under the flight recorder and summarize::

    python -m repro.bench trace hotspot-zipf
    python -m repro.bench trace topo-hier-agg-ebr-w4 --out trace.json
    python -m repro.bench trace queue-churn --detail spans --engine compiled

``--run`` executes named scenarios in order, writes a JSON report with
virtual-time results and per-scenario regression verdicts against
``benchmarks/scenario_baselines.json``, and exits
1 on any ``drift`` — virtual time is deterministic, so drift means
behaviour changed.  A scenario that cannot be loaded or validated (an
unknown name, an invalid or missing ``--spec`` file, a bad override)
prints one ``error:`` line and exits 2 instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

from ..comm.costs import COST_PROFILES
from ..obs import (
    TRACE_DETAILS,
    MetricsRegistry,
    progress_suffix,
    write_trace,
)
from ..runtime.config import ENGINES, RECLAIMER_SCHEMES
from . import ablations, figures, scenarios
from .report import Panel, render_figure

#: Figure ids accepted by --figure.
FIGURES = ("3a", "3b", "4", "5", "6", "7", "ablations", "all")

#: Default location of the scenario regression baselines.
DEFAULT_BASELINES = Path(__file__).resolve().parents[3] / "benchmarks" / "scenario_baselines.json"


#: The locale axis each figure sweeps (``--max-locales`` truncates it).
FIGURE_LOCALES: Dict[str, Sequence[int]] = {
    "3b": figures.DEFAULT_LOCALES,
    **dict.fromkeys(("4", "5", "6", "7"), figures.DEFAULT_EPOCH_LOCALES),
}


def scenario_main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point for ``python -m repro.bench scenarios ...``."""
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench scenarios",
        description="List and run declarative benchmark scenarios.",
    )
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true", help="list registered scenarios")
    mode.add_argument(
        "--run", nargs="+", metavar="NAME", help="run the named scenario(s)"
    )
    mode.add_argument("--all", action="store_true", help="run every registered scenario")
    mode.add_argument(
        "--spec",
        metavar="PATH",
        help="run one scenario from a TOML spec file (not the registry)",
    )
    ap.add_argument(
        "--filter",
        metavar="SUBSTRING",
        default=None,
        help="with --list: only show scenarios whose name, policy spec, or"
        " compiled-coverage tier contains SUBSTRING (case-insensitive)",
    )
    ap.add_argument(
        "--reclaimer",
        choices=RECLAIMER_SCHEMES,
        default=None,
        help="override the memory-reclamation scheme of every selected"
        " scenario (cross-scheme comparisons; baseline verdicts become"
        " 'incomparable' when the scheme differs from the recorded one)",
    )
    ap.add_argument(
        "--topology",
        metavar="SPEC",
        default=None,
        help="override the interconnect topology of every selected scenario"
        " ('flat', 'hier:SxL', 'dragonfly:G'; see docs/TOPOLOGY.md —"
        " baseline verdicts become 'incomparable' when the shape differs"
        " from the recorded one)",
    )
    ap.add_argument(
        "--aggregation",
        metavar="WINDOW",
        default=None,
        help="override the uplink message-aggregation window of every"
        " selected scenario (an integer; 1 disables — see"
        " docs/AGGREGATION.md; baseline verdicts become 'incomparable'"
        " when it differs from the recorded one)",
    )
    ap.add_argument(
        "--policy",
        metavar="SPEC",
        default=None,
        help="override the virtual-time policy pair of every selected"
        " scenario (epoch cadence + aggregation window — e.g. 'fixed',"
        " 'threshold:32', 'grace:1e-4', 'threshold:32+adaptive:2..64';"
        " see docs/POLICY.md; baseline verdicts become 'incomparable'"
        " when it differs from the recorded one)",
    )
    ap.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="override the workload execution engine of every selected"
        " scenario ('interpreted' or 'compiled'; see docs/ENGINE.md)."
        " Unlike the machine axes above this never changes virtual"
        " results — baselines verify bit-identically under either"
        " engine, so it composes with --update-baselines",
    )
    ap.add_argument(
        "--trace",
        choices=TRACE_DETAILS,
        default=None,
        help="enable the virtual-time flight recorder for every selected"
        " scenario ('spans' or 'full'; see docs/OBSERVABILITY.md)."
        " Not a machine axis: tracing never changes virtual results,"
        " so it composes with --update-baselines; traced runs attach"
        " the metrics registry under extra.obs in the report",
    )
    ap.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="with --trace: also write the merged event stream to PATH"
        " (Chrome trace-event JSON for Perfetto, or flat JSONL when"
        " PATH ends in .jsonl; multiple scenarios get the scenario name"
        " inserted before the extension)",
    )
    ap.add_argument(
        "--cost-profile",
        choices=sorted(COST_PROFILES),
        default=None,
        help="override the cost-model profile of every selected scenario"
        " (baseline verdicts become 'incomparable' when it differs from"
        " the recorded one)",
    )
    ap.add_argument(
        "--cost-scale",
        type=float,
        default=None,
        help="uniformly scale every cost constant of every selected"
        " scenario (sensitivity sweeps; baseline verdicts become"
        " 'incomparable')",
    )
    ap.add_argument(
        "--ops-scale",
        type=float,
        default=None,
        help="scale every per-task operation count (quick passes; baseline"
        " comparisons report 'incomparable')",
    )
    ap.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="run each scenario N times and verify bit-identical virtual results",
    )
    ap.add_argument(
        "--out",
        metavar="PATH",
        default="scenario_report.json",
        help="where to write the JSON report (default: scenario_report.json)",
    )
    ap.add_argument(
        "--baselines",
        metavar="PATH",
        default=str(DEFAULT_BASELINES),
        help="regression-baselines JSON (default: benchmarks/scenario_baselines.json)",
    )
    ap.add_argument(
        "--update-baselines",
        action="store_true",
        help="write the run's virtual results back as the new baselines",
    )
    args = ap.parse_args(argv)

    if args.update_baselines and args.ops_scale is not None and args.ops_scale != 1.0:
        ap.error("--update-baselines cannot be combined with --ops-scale")
    if args.update_baselines:
        for key, _ in scenarios.BASELINE_IDENTITY:
            if getattr(args, key) is not None:
                ap.error(
                    f"--update-baselines cannot be combined with"
                    f" --{key.replace('_', '-')} (a scenario's baseline"
                    " pins the machine it was registered with)"
                )
    if args.filter is not None and not args.list:
        ap.error("--filter only applies to --list")
    if args.trace_out is not None and args.trace in (None, "off"):
        ap.error("--trace-out requires --trace spans or --trace full")

    if args.list:
        specs = list(scenarios.iter_scenarios())
        coverage = {s.name: scenarios.compiled_coverage(s) for s in specs}
        if args.filter is not None:
            needle = args.filter.lower()
            specs = [
                s
                for s in specs
                if needle in s.name.lower()
                or needle in s.topology.policy.lower()
                or needle in coverage[s.name]
            ]
            print(
                f"{len(specs)} of {len(scenarios.scenario_names())}"
                f" registered scenarios matching {args.filter!r}:\n"
            )
            if not specs:
                return 0
        else:
            print(f"{len(specs)} registered scenarios:\n")
        header = (
            f"  {'name':24s} {'workload':16s} {'machine':7s} {'net':5s}"
            f" {'topology':12s} {'costs':8s} {'policy':12s} {'compiled':11s}"
        )
        print(header)
        print("  " + "-" * (len(header) - 2))
        for spec in specs:
            topo = spec.topology
            machine = f"{topo.locales}x{topo.tasks_per_locale}"
            costs = topo.cost_profile
            if topo.cost_scale != 1.0:
                costs += f"*{topo.cost_scale:g}"
            line = (
                f"  {spec.name:24s} {spec.workload.kind:16s}"
                f" {machine:7s} {topo.network:5s} {topo.topology:12s}"
                f" {costs:8s} {topo.policy:12s} {coverage[spec.name]:11s}"
            )
            if topo.reclaimer != "ebr":
                line += f" rec={topo.reclaimer}"
            if topo.aggregation != 1:
                line += f" agg=w{topo.aggregation}"
            print(line)
            if spec.description:
                print(f"      {spec.description}")
        return 0

    # The machine overrides: every baseline-identity field, plus the two
    # run options that never change virtual results.
    topo_overrides = {
        key: getattr(args, key)
        for key in [k for k, _ in scenarios.BASELINE_IDENTITY] + ["engine", "trace"]
        if getattr(args, key) is not None
    }
    try:
        if args.spec:
            specs = [scenarios.ScenarioSpec.from_toml(args.spec)]
        elif args.all:
            specs = list(scenarios.iter_scenarios())
        else:
            specs = [scenarios.get_scenario(name) for name in args.run]
        if topo_overrides:
            specs = [s.with_topology(**topo_overrides) for s in specs]
        if args.ops_scale is not None:
            specs = [s.with_measure(ops_scale=args.ops_scale) for s in specs]
        if args.repeats is not None:
            specs = [s.with_measure(repeats=args.repeats) for s in specs]
    except scenarios.ScenarioError as exc:
        print(f"error: {exc}")
        return 2

    t0 = time.time()

    def progress(run: scenarios.ScenarioRun) -> None:
        line = (
            f"  {run.spec.name:24s} elapsed={run.result.elapsed:.6g}s"
            f" ops={run.result.operations}"
        )
        # One registry-owned renderer for the reclaimer/agg/policy blocks
        # (docs/OBSERVABILITY.md) instead of per-scheme string building.
        line += progress_suffix(
            run.result.extra,
            reclaimer=run.spec.topology.reclaimer,
            policy=run.spec.topology.policy,
        )
        if run.trace_events is not None:
            line += f" [trace: events={len(run.trace_events)}]"
        line += f" (wall {run.wall_seconds:.2f}s)"
        print(line)
        sys.stdout.flush()

    print(f"running {len(specs)} scenario(s)...")
    runs = scenarios.run_scenario_grid(specs, progress=progress)

    scaled = any(r.spec.measure.ops_scale != 1.0 for r in runs)
    baselines = scenarios.load_baselines(args.baselines)
    if not baselines and not args.update_baselines:
        print(
            f"note: no baselines found at {args.baselines} — every scenario"
            " will report 'new' and drift cannot be detected"
        )
    report = scenarios.build_report(runs, baselines=baselines)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"(report written to {args.out}; total wall {time.time() - t0:.1f}s)")

    if args.trace_out is not None:
        traced = [r for r in runs if r.trace_events is not None]
        for run in traced:
            path = Path(args.trace_out)
            if len(traced) > 1:
                path = path.with_name(
                    f"{path.stem}.{run.spec.name}{path.suffix}"
                )
            fmt = write_trace(
                str(path), run.trace_events, label=run.spec.name
            )
            print(
                f"(trace for {run.spec.name}:"
                f" {len(run.trace_events)} event(s) as {fmt} -> {path})"
            )

    if args.update_baselines:
        if scaled:
            print("refusing to --update-baselines from an --ops-scale run")
            return 2
        # Merge into the existing entries: a partial run (--run NAME,
        # --spec) must not discard the baselines of scenarios that did
        # not execute this time.
        merged = dict(baselines)
        merged.update({r.spec.name: scenarios.baseline_entry(r) for r in runs})
        doc = {
            "schema": 1,
            "note": "virtual-time regression baselines; regenerate with"
            " `python -m repro.bench scenarios --all --update-baselines`",
            "scenarios": merged,
        }
        with open(args.baselines, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(
            f"(baselines for {len(runs)} scenario(s) merged into"
            f" {args.baselines})"
        )
        return 0

    drifted = [
        name
        for name, entry in report["scenarios"].items()
        if entry.get("regression", {}).get("status") == "drift"
    ]
    if drifted:
        print(f"REGRESSION: virtual results drifted for {drifted}")
        return 1
    return 0


def trace_main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point for ``python -m repro.bench trace ...``."""
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench trace",
        description="Run one scenario under the virtual-time flight"
        " recorder and summarize its event stream (docs/OBSERVABILITY.md).",
    )
    ap.add_argument("name", help="registered scenario to trace")
    ap.add_argument(
        "--detail",
        choices=[d for d in TRACE_DETAILS if d != "off"],
        default="full",
        help="trace detail (default: full)",
    )
    ap.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="workload execution engine override (docs/ENGINE.md; 'full'"
        " detail always replays through the interpreter)",
    )
    ap.add_argument(
        "--ops-scale",
        type=float,
        default=None,
        help="scale every per-task operation count (quick passes)",
    )
    ap.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="run N times and verify the event stream is bit-identical",
    )
    ap.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the event stream to PATH (Chrome trace-event JSON"
        " for Perfetto, or flat JSONL when PATH ends in .jsonl)",
    )
    args = ap.parse_args(argv)

    try:
        spec = scenarios.get_scenario(args.name)
        overrides = {"trace": args.detail}
        if args.engine is not None:
            overrides["engine"] = args.engine
        spec = spec.with_topology(**overrides)
    except scenarios.ScenarioError as exc:
        print(f"error: {exc}")
        return 2
    if args.ops_scale is not None:
        spec = spec.with_measure(ops_scale=args.ops_scale)
    if args.repeats is not None:
        spec = spec.with_measure(repeats=args.repeats)

    run = scenarios.run_scenario(spec)
    assert run.trace_events is not None
    print(
        f"{spec.name}: elapsed={run.result.elapsed:.6g}s"
        f" ops={run.result.operations} (wall {run.wall_seconds:.2f}s)"
    )
    registry = MetricsRegistry.from_events(run.trace_events, args.detail)
    for line in registry.summary_lines():
        print(line)
    if args.out is not None:
        fmt = write_trace(args.out, run.trace_events, label=spec.name)
        print(
            f"({len(run.trace_events)} event(s) written as {fmt} to"
            f" {args.out})"
        )
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point for ``python -m repro.bench``."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "scenarios":
        return scenario_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures on the simulated PGAS runtime.",
    )
    ap.add_argument("--figure", choices=FIGURES, default="all", help="which figure to run")
    ap.add_argument("--ops", type=int, default=None, help="per-task operation count override")
    ap.add_argument(
        "--max-locales", type=int, default=64, help="truncate the locale axis (quick runs)"
    )
    ap.add_argument(
        "--tasks-per-locale", type=int, default=1, help="worker tasks per locale"
    )
    ap.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also dump every panel's series to PATH as JSON",
    )
    args = ap.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        ap.error(f"--ops must be at least 1, got {args.ops}")
    if args.tasks_per_locale < 1:
        ap.error(f"--tasks-per-locale must be at least 1, got {args.tasks_per_locale}")

    todo = [args.figure] if args.figure != "all" else ["3a", "3b", "4", "5", "6", "7", "ablations"]
    locales = {
        fig: [x for x in FIGURE_LOCALES[fig] if x <= args.max_locales]
        for fig in todo
        if fig in FIGURE_LOCALES
    }
    for fig, axis in locales.items():
        if not axis:
            ap.error(
                f"--max-locales {args.max_locales} leaves figure {fig} no locale"
                f" count (its axis starts at {FIGURE_LOCALES[fig][0]})"
            )
    t0 = time.time()
    json_doc: Dict[str, list] = {}

    for fig in todo:
        panels: List[Panel] = []
        title = ""
        if fig == "3a":
            title = "Figure 3 — AtomicObject vs atomic int (shared memory)"
            kw = {}
            if args.ops:
                kw["total_ops"] = args.ops * 32
            panels = [figures.figure3_shared(**kw)]
        elif fig == "3b":
            title = "Figure 3 — AtomicObject vs atomic int (distributed memory)"
            kw = dict(
                locales=locales[fig],
                tasks_per_locale=args.tasks_per_locale,
            )
            if args.ops:
                kw["ops_per_task"] = args.ops
            panels = [figures.figure3_distributed(**kw)]
        elif fig in ("4", "5", "6"):
            titles = {
                "4": "Figure 4 — Deletion with tryReclaim once per 1024 iterations",
                "5": "Figure 5 — Deletion with tryReclaim every iteration",
                "6": "Figure 6 — Deletion with reclamation only performed at end",
            }
            title = titles[fig]
            fn = {"4": figures.figure4, "5": figures.figure5, "6": figures.figure6}[fig]
            kw = dict(
                locales=locales[fig],
                tasks_per_locale=args.tasks_per_locale,
            )
            if args.ops:
                kw["ops_per_task"] = args.ops
            panels = fn(**kw)
        elif fig == "7":
            title = "Figure 7 — Read-only workload without deletion"
            kw = dict(
                locales=locales[fig],
                tasks_per_locale=args.tasks_per_locale,
            )
            if args.ops:
                kw["ops_per_task"] = args.ops
            panels = [figures.figure7(**kw)]
        elif fig == "ablations":
            title = "Ablations — the paper's design choices, one at a time"
            ab_kw = {}
            if args.ops:
                ab_kw["ops_per_task"] = args.ops
            panels = [
                ablations.ablation_compression(**ab_kw),
                ablations.ablation_privatization(**ab_kw),
                ablations.ablation_scatter(**ab_kw),
                ablations.ablation_election(**ab_kw),
                ablations.ablation_reclaimers(**ab_kw),
                ablations.ablation_epoch_cycle(**ab_kw),
            ]
        print(render_figure(title, panels))
        sys.stdout.flush()
        json_doc[fig] = [p.as_dict() for p in panels]

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(json_doc, fh, indent=2)
        print(f"(series written to {args.json})")

    print(f"(total wall time: {time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
