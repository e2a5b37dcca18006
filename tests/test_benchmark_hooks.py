"""The repository benchmark's layer trace still finds every entry point.

``benchmarks/e2e/hosttrace.py`` wraps named functions and methods of the
simulator and raises ``LookupError`` from ``install`` when one is
missing.  Installing it here makes a rename of a wrapped entry point fail
the tier-1 suite, not only the benchmark's traced smoke run.  It runs in
a subprocess because ``install`` patches the classes for the rest of the
process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import hosttrace
from repro import Runtime

tracer = hosttrace.HostTracer()
hosttrace.install(tracer)
rt = Runtime(num_locales=2, network="none")
rt.run(lambda: rt.coforall_locales(lambda lid: None))
totals = tracer.totals()
print(int(totals["runtime.tasking.calls"]), int(totals["bench.workloads.calls"]))
"""


def test_hosttrace_installs_and_counts_a_coforall():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # coforall_locales + 2 spawns + 1 join; the root body + 2 task bodies.
    assert proc.stdout.split() == ["4", "3"]
