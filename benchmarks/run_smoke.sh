#!/usr/bin/env bash
# Smoke gate: tier-1 suite, benchmark smoke run, strict scenario check.
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
# busy/idle layer violation.  The scenario check last re-verifies every
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
echo "== repository benchmark smoke run (pinned virtual results + layers) =="
python3 benchmarks/e2e/run.py --smoke --layers --out e2e_smoke.json

echo
echo "== scenario baselines under compiled-strict (zero fallbacks) =="
python -m repro.bench scenarios --all --repeats 2 --engine compiled-strict \
  --out scenario_report_compiled.json

echo
echo "smoke gate OK — see e2e_smoke.json and scenario_report_compiled.json"
