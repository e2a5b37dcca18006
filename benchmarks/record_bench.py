"""Commit-keyed ledger of the repository benchmark's full runs.

    python benchmarks/record_bench.py add RUN.json --label "PR 22"
    python benchmarks/record_bench.py compare "PR 21" "PR 22"

``add`` appends one entry per full ``benchmarks/e2e/run.py --out``
document to ``BENCH_e2e.json`` at the repo root: the label, the commit
of this checkout and whether ``src/`` had uncommitted changes, the UTC
date, the Python version, the run's seed, pass budget and trace flag,
and per workload its job counts, virtual digest and every metric's
median, quartiles, sample count and unit.  It refuses smoke runs, runs
with a failed job or a wrong output, and a label already recorded with
the same trace flag, and then leaves the ledger unchanged.  Entries are
append-only and keep their order.

``compare`` writes the two labels' untraced entries back out in the
``--out`` shape and runs ``run.py --compare`` on them, so the bounds and
the table are the benchmark's own; its exit status is the comparison's.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_e2e.json"
RUN_PY = ROOT / "benchmarks" / "e2e" / "run.py"

#: Per-workload fields an entry keeps from the ``--out`` document.
WORKLOAD_FIELDS = ("correct", "attempted", "failed", "virtual_digest")
METRIC_FIELDS = ("value", "q1", "q3", "n", "unit")


class LedgerError(ValueError):
    """A document or label the ledger refuses."""


def load(ledger: Path) -> List[Dict[str, Any]]:
    """The ledger's entries in append order (none if it does not exist)."""
    if not ledger.exists():
        return []
    return json.loads(ledger.read_text())["entries"]


def checkout() -> Tuple[str, bool]:
    """This checkout's commit, and whether ``src/`` differs from it."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--", "src"))
    except (OSError, subprocess.CalledProcessError) as exc:
        raise LedgerError(f"cannot read the commit of {ROOT}: {exc}") from None


def _check(doc: Dict[str, Any]) -> None:
    if doc.get("smoke"):
        raise LedgerError("refusing a --smoke run: record full runs only")
    if not doc.get("workloads"):
        raise LedgerError("the document holds no workloads")
    for name, wl in doc["workloads"].items():
        if wl["failed"]:
            raise LedgerError(f"refusing a run with failed jobs: {name} failed {wl['failed']}")
        if not wl["correct"]:
            raise LedgerError(f"refusing a run with a wrong output: {name} is not correct")


def add(ledger: Path, doc: Dict[str, Any], label: str) -> Dict[str, Any]:
    """Append ``doc`` (a full ``run.py --out`` document) under ``label``."""
    _check(doc)
    entries = load(ledger)
    trace = doc["trace"]
    if any(e["label"] == label and e["trace"] == trace for e in entries):
        raise LedgerError(f"{label!r} with trace {trace} is already recorded")
    commit, dirty = checkout()
    entry = {
        "label": label,
        "commit": commit,
        "dirty": dirty,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "seed": doc["seed"],
        "seconds": doc["seconds"],
        "trace": trace,
        "workloads": {
            name: {
                **{key: wl[key] for key in WORKLOAD_FIELDS},
                "metrics": {
                    metric: {key: stat[key] for key in METRIC_FIELDS}
                    for metric, stat in wl["metrics"].items()
                },
            }
            for name, wl in doc["workloads"].items()
        },
    }
    entries.append(entry)
    ledger.write_text(json.dumps({"entries": entries}, indent=1) + "\n")
    return entry


def _untraced(entries: List[Dict[str, Any]], label: str) -> Dict[str, Any]:
    for entry in entries:
        if entry["label"] == label and not entry["trace"]:
            return entry
    raise LedgerError(f"no untraced entry labelled {label!r}")


def compare(ledger: Path, label_a: str, label_b: str) -> int:
    """``run.py --compare`` on two labels' untraced entries; its exit status."""
    entries = load(ledger)
    a, b = _untraced(entries, label_a), _untraced(entries, label_b)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for tag, entry in (("a", a), ("b", b)):
            path = Path(tmp) / f"{tag}.json"
            doc = {"schema": 1, "seed": entry["seed"], "seconds": entry["seconds"],
                   "trace": entry["trace"], "smoke": False, "workloads": entry["workloads"]}
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        print(f"A = {label_a} ({a['commit'][:7]}), B = {label_b} ({b['commit'][:7]})", flush=True)
        return subprocess.run([sys.executable, str(RUN_PY), "--compare", *paths]).returncode


def main(argv: "List[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p_add = sub.add_parser("add", help="append a full run.py --out document")
    p_add.add_argument("run", metavar="RUN.json", type=Path)
    p_add.add_argument("--label", required=True)
    p_cmp = sub.add_parser("compare", help="run.py --compare on two labels")
    p_cmp.add_argument("label_a", metavar="A")
    p_cmp.add_argument("label_b", metavar="B")
    args = ap.parse_args(argv)
    try:
        if args.command == "compare":
            return compare(LEDGER, args.label_a, args.label_b)
        entry = add(LEDGER, json.loads(args.run.read_text()), args.label)
    except LedgerError as exc:
        print(f"record_bench: {exc}", file=sys.stderr)
        return 2
    print(f"recorded {entry['label']!r} (trace {entry['trace']}) at {entry['commit'][:7]}"
          f"{' + uncommitted src/' if entry['dirty'] else ''} in {LEDGER.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
