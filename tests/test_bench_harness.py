"""Tests for the benchmark harness: workloads, figures, reporting, CLI."""

from __future__ import annotations

import pytest

from repro.bench.ablations import ablation_privatization
from repro.bench.figures import (
    figure3_distributed,
    figure3_shared,
    figure4,
    figure5,
    figure6,
    figure7,
)
from repro.bench.report import Panel, render_figure, render_panel
from repro.bench.workloads import WorkloadResult, run_atomic_mix, run_epoch_workload
from repro.runtime import Runtime
from repro.runtime.config import RuntimeConfig
from repro.runtime.tasking import spawn_tree_overhead


class TestWorkloadResult:
    def test_ops_per_second(self):
        r = WorkloadResult(elapsed=2.0, operations=100)
        assert r.ops_per_second == 50.0

    def test_zero_elapsed_is_infinite_throughput(self):
        assert WorkloadResult(elapsed=0.0, operations=1).ops_per_second == float("inf")


class TestAtomicMixWorkload:
    def test_counts_operations(self):
        rt = Runtime(num_locales=2, network="none")
        res = run_atomic_mix(rt, cell="atomic_int", ops_per_task=32)
        assert res.operations == 2 * 32
        assert res.elapsed > 0

    def test_rejects_unknown_kind(self):
        rt = Runtime(num_locales=2, network="none")
        with pytest.raises(ValueError):
            run_atomic_mix(rt, cell="nonsense", ops_per_task=1)

    @pytest.mark.parametrize("num_cells", [0, -1])
    @pytest.mark.parametrize(
        "zipf_exponent", [None, 1.2], ids=["uniform", "zipf"]
    )
    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_rejects_empty_cell_array(self, engine, zipf_exponent, num_cells):
        # An empty draw range would redraw forever; reject it up front.
        rt = Runtime(config=RuntimeConfig(num_locales=2, engine=engine))
        try:
            with pytest.raises(ValueError, match="num_cells"):
                run_atomic_mix(
                    rt,
                    cell="atomic_int",
                    ops_per_task=4,
                    num_cells=num_cells,
                    zipf_exponent=zipf_exponent,
                )
        finally:
            rt.close()

    @pytest.mark.parametrize("zipf_exponent", [0.0, -1.0])
    def test_rejects_non_positive_zipf_exponent(self, zipf_exponent):
        rt = Runtime(num_locales=2, network="none")
        with pytest.raises(ValueError, match="zipf_exponent"):
            run_atomic_mix(
                rt, cell="atomic_int", ops_per_task=4,
                zipf_exponent=zipf_exponent,
            )

    @pytest.mark.parametrize(
        "kind", ["atomic_int", "atomic_object", "atomic_object_aba"]
    )
    def test_all_kinds_run(self, kind):
        rt = Runtime(num_locales=2, network="ugni")
        res = run_atomic_mix(rt, cell=kind, ops_per_task=16)
        assert res.elapsed > 0

    def test_aba_kind_is_slowest(self):
        """The constant DCAS overhead from Figure 3."""
        times = {}
        for kind in ("atomic_object", "atomic_object_aba"):
            rt = Runtime(num_locales=2, network="ugni")
            times[kind] = run_atomic_mix(rt, cell=kind, ops_per_task=64).elapsed
        assert times["atomic_object_aba"] > times["atomic_object"]

    def test_deterministic_given_seed(self):
        def once():
            rt = Runtime(config=RuntimeConfig(num_locales=2, network="ugni", seed=42))
            return run_atomic_mix(rt, cell="atomic_int", ops_per_task=64).elapsed

        assert once() == once()


class TestEpochWorkload:
    def test_all_objects_reclaimed(self):
        rt = Runtime(num_locales=2, network="ugni")
        res = run_epoch_workload(rt, ops_per_task=64, remote_percent=0)
        assert res.extra["em"]["objects_reclaimed"] == res.operations
        live = sum(loc.heap.live_count for loc in rt.locales)
        assert live == 0

    def test_remote_percent_validated(self):
        rt = Runtime(num_locales=2, network="ugni")
        with pytest.raises(ValueError):
            run_epoch_workload(rt, ops_per_task=1, remote_percent=150)

    def test_read_only_mode_allocates_nothing(self):
        rt = Runtime(num_locales=2, network="ugni")
        res = run_epoch_workload(
            rt, ops_per_task=32, delete=False, cleanup_at_end=False
        )
        assert res.extra["em"]["objects_reclaimed"] == 0
        assert sum(loc.heap.stats.allocations for loc in rt.locales) == 0

    def test_reclaim_every_triggers_attempts(self):
        rt = Runtime(num_locales=2, network="ugni")
        res = run_epoch_workload(rt, ops_per_task=64, reclaim_every=8)
        assert res.extra["em"]["reclaim_attempts"] >= 64 * 2 // 8

    def test_remote_objects_cost_more(self):
        def elapsed(rp):
            rt = Runtime(num_locales=4, network="ugni")
            return run_epoch_workload(
                rt, ops_per_task=128, remote_percent=rp
            ).elapsed

        assert elapsed(100) > elapsed(0)


class TestFigureDrivers:
    def test_figure3_shared_panel_shape(self):
        p = figure3_shared(tasks=(1, 2), total_ops=256)
        assert p.xs == [1, 2]
        assert {s.name for s in p.series} == {
            "atomic int",
            "AtomicObject",
            "AtomicObject (ABA)",
        }
        for s in p.series:
            assert len(s.values) == 2

    def test_figure3_distributed_panel_shape(self):
        p = figure3_distributed(locales=(1, 2), ops_per_task=16)
        assert len(p.series) == 5
        assert all(len(s.values) == 2 for s in p.series)

    @pytest.mark.parametrize("fn", [figure4, figure5, figure6])
    def test_epoch_figures_have_three_panels(self, fn):
        panels = fn(locales=(2,), ops_per_task=16)
        assert len(panels) == 3
        for p in panels:
            assert {s.name for s in p.series} == {"none", "ugni"}

    def test_figure7_flat_shape(self):
        p = figure7(locales=(2, 4), ops_per_task=64)
        series = {s.name: s.values for s in p.series}
        for vals in series.values():
            assert max(vals) < 3 * min(vals)


class TestAblations:
    def test_privatized_series_is_only_the_spawn_tree(self):
        """Privatized resolution charges nothing: the series does not
        depend on ``ops_per_task`` and is the forall's spawn tree plus
        its join."""
        locales = (2, 4, 8)
        costs = RuntimeConfig().costs

        def privatized(ops):
            panel = ablation_privatization(locales=locales, ops_per_task=ops)
            return {s.name: s.values for s in panel.series}["privatized"]

        series = privatized(1)
        assert privatized(256) == series
        assert series == pytest.approx([
            spawn_tree_overhead(n, costs.task_spawn_remote) + costs.task_join
            for n in locales
        ])


class TestReport:
    def test_render_panel_contains_all_cells(self):
        p = Panel(title="T", xlabel="locales", xs=[2, 4])
        p.add("a", [0.5, 1.5])
        p.add("b", [0.001, 100.0])
        text = render_panel(p)
        assert "T" in text
        assert "locales" in text
        for token in ("2", "4", "a", "b", "0.5", "1.5", "0.001", "100.0"):
            assert token in text

    def test_render_handles_missing_values(self):
        p = Panel(title="T", xlabel="x", xs=[1, 2])
        p.add("short", [1.0])  # one value missing
        assert "-" in render_panel(p)

    def test_render_figure_joins_panels(self):
        p1 = Panel(title="P1", xlabel="x", xs=[1])
        p2 = Panel(title="P2", xlabel="x", xs=[1])
        out = render_figure("Fig", [p1, p2])
        assert "== Fig ==" in out
        assert "P1" in out and "P2" in out

    def test_panel_as_dict(self):
        p = Panel(title="T", xlabel="x", xs=[1])
        p.add("s", [2.0])
        d = p.as_dict()
        assert d["series"]["s"] == [2.0]
        assert d["xs"] == [1]


class TestCli:
    def test_cli_runs_figure7_quickly(self, capsys):
        from repro.bench.__main__ import main

        rc = main(["--figure", "7", "--ops", "32", "--max-locales", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "locales" in out

    def test_cli_rejects_unknown_figure(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["--figure", "99"])

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--figure", "7", "--ops", "0"], "--ops must be at least 1"),
            (["--figure", "7", "--ops", "-5"], "--ops must be at least 1"),
            (["--max-locales", "0"], "leaves figure 3b no locale count"),
            (["--figure", "7", "--max-locales", "1"], "leaves figure 7 no locale count"),
            (["--figure", "7", "--tasks-per-locale", "0"],
             "--tasks-per-locale must be at least 1"),
        ],
    )
    def test_cli_rejects_nonsense_sizes(self, capsys, argv, needle):
        """A size that runs nothing (or the default) exits 2 before any run."""
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert err[-1].startswith("python -m repro.bench: error: ")
        assert needle in err[-1]

    def test_cli_figure3a(self, capsys):
        from repro.bench.__main__ import main

        rc = main(["--figure", "3a", "--ops", "16"])
        assert rc == 0
        assert "shared memory" in capsys.readouterr().out

    def test_cli_json_export(self, capsys, tmp_path):
        import json

        from repro.bench.__main__ import main

        out = tmp_path / "series.json"
        rc = main(["--figure", "7", "--ops", "16", "--max-locales", "4",
                   "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert "7" in doc
        panel = doc["7"][0]
        assert panel["xs"] == [2, 4]
        assert set(panel["series"]) == {"none", "ugni"}
