"""The BENCH ledger (benchmarks/record_bench.py): entries, refusals, compare.

Every test writes its own ledger under ``tmp_path`` from hand-built
``run.py --out`` documents; no benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "record_bench", ROOT / "benchmarks" / "record_bench.py"
)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

COMMIT = "0123456789abcdef0123456789abcdef01234567"
_real_checkout = record_bench.checkout


@pytest.fixture(autouse=True)
def _fixed_checkout(monkeypatch):
    monkeypatch.setattr(record_bench, "checkout", lambda: (COMMIT, False))


def _stat(value, spread=0.05, n=9, unit="ops/s"):
    return {"value": value, "q1": value * (1 - spread), "q3": value * (1 + spread),
            "n": n, "unit": unit}


def _doc(ops_per_s=100_000.0, trace=0, smoke=False):
    """A full ``run.py --out`` document with two workloads."""
    workloads = {}
    for name, scale in (("registry", 1.0), ("scale", 7.0)):
        workloads[name] = {
            "correct": True,
            "attempted": 42,
            "failed": 0,
            "jobs": 42,
            "timed_passes": 9,
            "pass_walls_s": [0.1] * 9,
            "virtual_digest": f"{name}-digest",
            "reference": "match",
            "problems": [],
            "metrics": {
                "sim_ops_per_s": _stat(ops_per_s * scale),
                "setup_s": _stat(0.2, unit="s", n=7),
                "peak_rss_mb": _stat(30.0, spread=0.0, n=1, unit="MB"),
            },
            "wall_clock": {"sim_ops_per_s": _stat(ops_per_s)},
        }
    return {"schema": 1, "seed": 12648430, "seconds": 15, "trace": trace,
            "smoke": smoke, "workloads": workloads}


def test_entry_round_trips_every_field(tmp_path):
    ledger = tmp_path / "BENCH.json"
    doc = _doc()
    entry = record_bench.add(ledger, doc, "PR 1")
    (stored,) = record_bench.load(ledger)
    assert stored == entry
    assert set(stored) == {"label", "commit", "dirty", "date", "python", "seed",
                           "seconds", "trace", "workloads"}
    assert (stored["label"], stored["commit"], stored["dirty"]) == ("PR 1", COMMIT, False)
    assert (stored["seed"], stored["seconds"], stored["trace"]) == (12648430, 15, 0)
    assert stored["date"].endswith("+00:00")
    assert stored["python"].count(".") == 2
    for name, wl in doc["workloads"].items():
        assert stored["workloads"][name] == {
            "correct": True,
            "attempted": 42,
            "failed": 0,
            "virtual_digest": wl["virtual_digest"],
            "metrics": wl["metrics"],
        }


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda d: d.update(smoke=True), "--smoke"),
        (lambda d: d["workloads"]["scale"].update(failed=1), "failed jobs"),
        (lambda d: d["workloads"]["registry"].update(correct=False), "wrong output"),
    ],
    ids=["smoke", "failed", "incorrect"],
)
def test_refused_documents_leave_the_ledger_unchanged(tmp_path, mutate, needle):
    ledger = tmp_path / "BENCH.json"
    record_bench.add(ledger, _doc(), "PR 1")
    before = ledger.read_bytes()
    doc = _doc()
    mutate(doc)
    with pytest.raises(record_bench.LedgerError, match=needle):
        record_bench.add(ledger, doc, "PR 2")
    assert ledger.read_bytes() == before


def test_repeated_label_and_trace_is_refused(tmp_path):
    ledger = tmp_path / "BENCH.json"
    record_bench.add(ledger, _doc(), "PR 1")
    record_bench.add(ledger, _doc(trace=1), "PR 1")  # a --layers run of the same PR
    before = ledger.read_bytes()
    for trace in (0, 1):
        with pytest.raises(record_bench.LedgerError, match="already recorded"):
            record_bench.add(ledger, _doc(trace=trace), "PR 1")
    assert ledger.read_bytes() == before


def test_entries_keep_append_order(tmp_path):
    ledger = tmp_path / "BENCH.json"
    labels = ["PR 3", "PR 1", "PR 2"]
    for label in labels:
        record_bench.add(ledger, _doc(), label)
    assert [e["label"] for e in record_bench.load(ledger)] == labels


@pytest.mark.parametrize("ops_b, rc", [(90_000.0, 0), (79_000.0, 1)])
def test_compare_runs_the_benchmarks_own_comparison(tmp_path, capfd, ops_b, rc):
    ledger = tmp_path / "BENCH.json"
    record_bench.add(ledger, _doc(100_000.0), "A")
    record_bench.add(ledger, _doc(ops_b), "B")
    record_bench.add(ledger, _doc(1.0, trace=1), "B")  # traced entries are skipped
    assert record_bench.compare(ledger, "A", "B") == rc
    out = capfd.readouterr().out
    assert "median A" in out  # run.py --compare's table header
    rows = [line for line in out.splitlines() if "sim_ops_per_s" in line]
    assert len(rows) == 2
    assert all(("WORSE" in row) == bool(rc) for row in rows)


def test_compare_names_a_missing_label(tmp_path):
    ledger = tmp_path / "BENCH.json"
    record_bench.add(ledger, _doc(trace=1), "A")
    with pytest.raises(record_bench.LedgerError, match="no untraced entry labelled 'A'"):
        record_bench.compare(ledger, "A", "A")


def test_only_the_cli_fixes_the_ledger_path(tmp_path, monkeypatch, capsys):
    assert record_bench.LEDGER == ROOT / "BENCH_e2e.json"
    ledger = tmp_path / "BENCH_e2e.json"
    monkeypatch.setattr(record_bench, "LEDGER", ledger)
    run = tmp_path / "run.json"
    run.write_text(json.dumps(_doc()))
    assert record_bench.main(["add", str(run), "--label", "PR 9"]) == 0
    assert "recorded 'PR 9'" in capsys.readouterr().out
    assert [e["label"] for e in record_bench.load(ledger)] == ["PR 9"]
    run.write_text(json.dumps(_doc(smoke=True)))
    assert record_bench.main(["add", str(run), "--label", "PR 10"]) == 2
    assert "record_bench: refusing a --smoke run" in capsys.readouterr().err


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="not a git checkout")
def test_checkout_reads_this_repository():
    commit, dirty = _real_checkout()
    assert len(commit) == 40 and int(commit, 16) >= 0
    assert isinstance(dirty, bool)
