"""Tests for the generic sweep driver."""

from __future__ import annotations

import csv

import pytest

from repro.bench.sweep import Sweep, SweepRow
from repro.bench.workloads import WorkloadResult, run_epoch_workload
from repro.runtime import Runtime


def _fake_run(params):
    return WorkloadResult(
        elapsed=params["x"] * 0.5,
        operations=params["x"] * 10,
        comm={"get": params["x"]},
    )


class TestSweep:
    def test_points_are_cartesian_product(self):
        s = Sweep("t", {"a": [1, 2], "b": ["x", "y"]}, _fake_run)
        pts = list(s.points())
        assert len(pts) == s.size == 4
        assert {"a": 1, "b": "y"} in pts

    def test_execute_collects_rows_in_order(self):
        s = Sweep("t", {"x": [1, 2, 3]}, _fake_run)
        rows = s.execute()
        assert [r.params["x"] for r in rows] == [1, 2, 3]
        assert rows[1].elapsed == 1.0
        assert rows[1].operations == 20
        assert rows[1].throughput == 20.0
        assert rows[1].comm == {"get": 2}

    def test_progress_callback(self):
        seen = []
        s = Sweep("t", {"x": [1, 2]}, _fake_run, progress=seen.append)
        s.execute()
        assert len(seen) == 2
        assert all(isinstance(r, SweepRow) for r in seen)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            Sweep("t", {}, _fake_run)
        with pytest.raises(ValueError):
            Sweep("t", {"a": []}, _fake_run)

    def test_flat_rows_include_params_and_comm(self):
        s = Sweep("t", {"x": [2]}, _fake_run)
        flat = s.execute()[0].flat()
        assert flat["x"] == 2
        assert flat["comm_get"] == 2
        assert "elapsed_s" in flat and "throughput_ops_s" in flat

    def test_write_csv(self, tmp_path):
        s = Sweep("t", {"x": [1, 2]}, _fake_run)
        rows = s.execute()
        path = tmp_path / "out.csv"
        Sweep.write_csv(str(path), rows)
        with open(path) as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == 2
        assert got[0]["x"] == "1"
        assert got[1]["comm_get"] == "2"

    def test_write_csv_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            Sweep.write_csv(str(tmp_path / "x.csv"), [])

    def test_end_to_end_with_real_workload(self):
        """A miniature real sweep: two locale counts, one net."""
        s = Sweep(
            "mini",
            {"locales": [1, 2]},
            lambda p: run_epoch_workload(
                Runtime(num_locales=p["locales"], network="ugni"),
                ops_per_task=16,
            ),
        )
        rows = s.execute()
        assert len(rows) == 2
        assert all(r.elapsed > 0 for r in rows)
        assert all(r.wall_seconds >= 0 for r in rows)
