#!/usr/bin/env bash
# Smoke gate: tier-1 suite, engine-equivalence check, benchmark smoke run.
#
# Run from the repo root:
#
#     bash benchmarks/run_smoke.sh
#
# bench_wallclock.py writes BENCH_wallclock.json at the repo root; it
# runs both execution engines (interpreted and compiled —
# docs/ENGINE.md) and fails if they diverge on virtual results.  The
# repository benchmark's smoke run (benchmarks/e2e/run.py --smoke
# --layers) then checks the virtual results of every pinned job — the
# scenario registry, the locale-scale shapes, the Fig 3/6/7 driver grids
# and the election workloads — against benchmarks/e2e/references.json,
# and exits 1 on any mismatch.  Its traced pass also fails on a renamed
# layer entry point or a busy/idle layer violation.  The scenario check last re-verifies every
# registered baseline under ``compiled-strict``, twice, and writes
# scenario_report_compiled.json at the repo root — the registry is fully
# lowered, so any interpreter fallback is a regression and fails the
# gate outright, as does a repeat that differs from the first.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== engine wall-clock benchmark (quick, both engines) =="
python benchmarks/bench_wallclock.py --quick

echo
echo "== benchmark report sanity (engine labeling + reclaim coverage) =="
python - <<'EOF'
import json

report = json.load(open("BENCH_wallclock.json"))
workloads = report["workloads"]
# The reclaim shapes must be in the two-engine matrix with a recorded
# compiled-vs-interpreted speedup — the quantity the compiled lowering
# of the epoch rounds is accountable to.
for name in ("reclaim_sparse", "reclaim_dense", "fig7_readonly"):
    entry = workloads[name]
    speedup = entry["compiled_vs_interpreted_speedup"]
    assert speedup > 0, f"{name}: bogus speedup {speedup!r}"
    assert entry["engine"]["effective"] == "compiled", (
        f"{name}: effective engine {entry['engine']['effective']!r}"
    )
    assert entry["fallback_count"] == 0, (
        f"{name}: {entry['fallback_count']} fallback(s): "
        f"{entry['engine'].get('fallbacks')}"
    )
    print(f"{name}: compiled-vs-interpreted {speedup:.2f}x, no fallbacks")
EOF

echo
echo "== repository benchmark smoke run (pinned virtual results + layers) =="
python3 benchmarks/e2e/run.py --smoke --layers

echo
echo "== scenario baselines under compiled-strict (zero fallbacks) =="
python -m repro.bench scenarios --all --repeats 2 --engine compiled-strict \
  --out scenario_report_compiled.json

echo
echo "smoke gate OK — see BENCH_wallclock.json"
