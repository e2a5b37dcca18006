"""Ablation benchmarks: the design choices the paper argues for.

Each test runs one ablation panel at reduced scale and asserts the
direction of the effect the paper's design argues for:

* pointer compression beats the DCAS fallback under ``ugni``;
* privatized handles beat by-reference proxies, increasingly with scale;
* the scatter list beats per-object remote frees at 100% remote;
* the FCFS election beats everyone-scans under dense ``tryReclaim``;
* the EpochManager's pin/unpin beats the hot-counter blocking reclaimer
  once more than one locale is involved.
"""

from __future__ import annotations

from repro.bench.ablations import (
    ablation_compression,
    ablation_election,
    ablation_privatization,
    ablation_reclaimers,
    ablation_scatter,
)

from conftest import record_panels


def test_ablation_compression(benchmark):
    """compressed < dcas at every locale count (ugni)."""

    def run():
        return ablation_compression(locales=(2, 4, 8), ops_per_task=1 << 8)

    panel = benchmark.pedantic(run, rounds=1, iterations=1)
    record_panels(benchmark, panel)
    series = {s.name: s.values for s in panel.series}
    for comp, dcas in zip(series["compressed"], series["dcas"]):
        assert comp < dcas
    # The descriptor extension stays on the RDMA path: closer to
    # compressed than to dcas at the largest point.
    gap_desc = series["descriptor"][-1] - series["compressed"][-1]
    gap_dcas = series["dcas"][-1] - series["compressed"][-1]
    assert gap_desc < gap_dcas


def test_ablation_privatization(benchmark):
    """Privatized resolution is free: its series is only the forall's
    spawn tree and join (one 6 us round per locale doubling).
    By-reference pays a GET per resolution."""

    def run():
        return ablation_privatization(locales=(2, 4, 8), ops_per_task=1 << 9)

    panel = benchmark.pedantic(run, rounds=1, iterations=1)
    record_panels(benchmark, panel)
    series = {s.name: s.values for s in panel.series}
    # Privatization must win by a wide margin at every locale count (the
    # by-reference proxy pays a metadata GET per resolution).
    for priv, byref in zip(series["privatized"], series["by-reference"]):
        assert byref > 5.0 * priv, (priv, byref)


def test_ablation_scatter(benchmark):
    """Bulk scatter-frees beat per-object remote frees at 100% remote."""

    def run():
        return ablation_scatter(locales=(2, 4, 8), ops_per_task=1 << 8)

    panel = benchmark.pedantic(run, rounds=1, iterations=1)
    record_panels(benchmark, panel)
    series = {s.name: s.values for s in panel.series}
    for scat, per in zip(series["scatter"], series["per-object free"]):
        assert scat < per


def test_ablation_election(benchmark):
    """The FCFS election slashes redundant communication per object.

    Metric: remote operations (forks + AMs + remote atomics + GETs/PUTs)
    per retired object under dense ``tryReclaim``.  Without the election,
    every caller's scan fans out to all locales, so the per-object remote
    traffic must be a multiple of the elected version's — and the gap must
    widen with the locale count.
    """

    def run():
        return ablation_election(locales=(2, 4, 8), ops_per_task=1 << 7)

    panel = benchmark.pedantic(run, rounds=1, iterations=1)
    record_panels(benchmark, panel)
    series = {s.name: s.values for s in panel.series}
    for el, noel in zip(series["election"], series["no election"]):
        assert el < noel
    ratio_large = series["no election"][-1] / series["election"][-1]
    assert ratio_large > 1.5, f"election saved too little at scale: {series}"


def test_ablation_reclaimers(benchmark):
    """EBR pin/unpin beats the hot-counter reclaimer beyond one locale."""

    def run():
        return ablation_reclaimers(locales=(1, 2, 4, 8), ops_per_task=1 << 9)

    panel = benchmark.pedantic(run, rounds=1, iterations=1)
    record_panels(benchmark, panel)
    series = {s.name: s.values for s in panel.series}
    # From 2 locales up, the global counter's remote atomics lose.
    for em, glr in zip(series["EpochManager"][1:], series["GlobalLockReclaimer"][1:]):
        assert em < glr
    # And the EpochManager curve is flat-ish while the baseline grows.
    em_vals = series["EpochManager"]
    assert max(em_vals) < 3.0 * min(em_vals)


def test_ablation_epoch_cycle(benchmark):
    """The hardened 4-epoch cycle costs ~nothing over the paper's 3.

    The extra limbo list is only touched during reclamation, so the time
    premium must be marginal (< 10%) — safety nearly for free.
    """
    from repro.bench.ablations import ablation_epoch_cycle

    def run():
        return ablation_epoch_cycle(locales=(2, 4, 8), ops_per_task=1 << 8)

    panel = benchmark.pedantic(run, rounds=1, iterations=1)
    record_panels(benchmark, panel)
    series = {s.name: s.values for s in panel.series}
    for three, four in zip(series["3 epochs"], series["4 epochs"]):
        assert four < 1.10 * three, (three, four)
