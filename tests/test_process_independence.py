"""A result depends on the program and its seed, not on the process.

One small registered scenario per workload kind runs in three fresh
interpreters: under ``PYTHONHASHSEED=1``, under ``PYTHONHASHSEED=2``, and
under ``PYTHONHASHSEED=1`` with the cyclic GC disabled.  Each prints the
scenarios' virtual results and a SHA-256 of their ``spans`` event
streams; the three outputs must be equal byte for byte.  Salted
``str``/``bytes`` hashes, iteration over sets of objects, or anything
that keys on ``id()`` and a collector's timing would show up here.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from repro.bench.scenarios import WORKLOAD_KINDS, get_scenario

_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: One registered scenario per workload kind.
SCENARIOS = {
    "atomic_mix": "paper-atomic-mix",
    "atomic_hotspot": "hotspot-zipf",
    "epoch": "paper-reclaim-endonly",
    "epoch_mixed": "reclaim-hotspot-ebr",
    "churn": "reclaim-churn-ebr",
    "multi_structure": "multi-structure",
}

_PROBE = """
import gc, hashlib, json, sys
if sys.argv[1] == "nogc":
    gc.disable()
from repro.bench.scenarios import get_scenario, run_scenario

out = {}
for name in sys.argv[2:]:
    spec = get_scenario(name).with_topology(trace="spans").with_measure(ops_scale=0.125)
    run = run_scenario(spec)
    entry = run.report_entry()
    spans = json.dumps(run.trace_events, sort_keys=True).encode()
    out[name] = {
        "virtual": [entry[k] for k in ("elapsed_virtual_s", "operations", "comm", "extra")],
        "spans_sha256": hashlib.sha256(spans).hexdigest(),
        "events": len(run.trace_events),
    }
print(json.dumps(out, sort_keys=True))
"""


def _probes():
    """Start the three interpreters at once; return their outputs."""
    procs = []
    for seed, gc_mode in (("1", "gc"), ("2", "gc"), ("1", "nogc")):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")])
        )
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _PROBE, gc_mode, *SCENARIOS.values()],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        ))
    outputs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=180)
        assert proc.returncode == 0, stderr
        outputs.append(stdout)
    return outputs


def test_one_scenario_per_workload_kind():
    assert sorted(SCENARIOS) == sorted(WORKLOAD_KINDS)
    for kind, name in SCENARIOS.items():
        assert get_scenario(name).workload.kind == kind


def test_results_and_spans_do_not_depend_on_hash_seed_or_gc():
    seed1, seed2, seed1_nogc = _probes()
    runs = json.loads(seed1)
    assert sorted(runs) == sorted(SCENARIOS.values())
    assert all(run["events"] > 0 for run in runs.values())
    assert seed1 == seed2
    assert seed1 == seed1_nogc
