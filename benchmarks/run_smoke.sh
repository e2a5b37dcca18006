#!/usr/bin/env bash
# Smoke gate: tier-1 suite, benchmark smoke run, scenario checks under
# both engines, reachability census.
#
# Run from the repo root:
#
#     bash benchmarks/run_smoke.sh
#
# The tier-1 suite includes the engine-equivalence check
# (tests/test_engine_compiled.py, TestSeedShapes among it).  The
# repository benchmark's smoke run (benchmarks/e2e/run.py --smoke
# --layers) then checks the virtual results of every pinned job — the
# scenario registry, the locale-scale shapes, the Fig 3/6/7 driver grids
# and the election workloads — against benchmarks/e2e/references.json,
# exits 1 on any mismatch, and writes e2e_smoke.json at the repo root.
# Its traced pass also fails on a renamed layer entry point or a
# busy/idle layer violation.  The scenario checks last re-verify every
# registered baseline twice under each engine.  The ``interpreted`` run
# drives every simulated atomic through the cells' own charge path and
# writes scenario_report.json; the ``compiled-strict`` run writes
# scenario_report_compiled.json — the registry is fully lowered, so any
# interpreter fallback is a regression and fails the gate outright, as
# does a repeat that differs from the first.  The reachability and
# parameter census (benchmarks/census.py) last fails on any src/
# function that no user path calls, or any setting that no user path
# sets, that its allowlists do not name; its report goes to census.txt.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== repository benchmark smoke run (pinned virtual results + layers) =="
python3 benchmarks/e2e/run.py --smoke --layers --out e2e_smoke.json

echo
echo "== scenario baselines under the interpreted engine =="
python -m repro.bench scenarios --all --repeats 2 --engine interpreted \
  --out scenario_report.json

echo
echo "== scenario baselines under compiled-strict (zero fallbacks) =="
python -m repro.bench scenarios --all --repeats 2 --engine compiled-strict \
  --out scenario_report_compiled.json

echo
echo "== census (every src/ function and setting has a user path or a reason) =="
python3 benchmarks/census.py | tee census.txt

echo
echo "smoke gate OK — see e2e_smoke.json, scenario_report.json,"
echo "scenario_report_compiled.json and census.txt"
