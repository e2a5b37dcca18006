"""Generic parameter-sweep driver with CSV export.

The figure drivers in :mod:`repro.bench.figures` are purpose-built for the
paper's plots; this module is the general tool behind them for anyone
extending the study: declare a grid of parameters, a ``run`` callable that
builds a fresh runtime per point and returns a
:class:`~repro.bench.workloads.WorkloadResult`, and get back tidy rows
(optionally written as CSV) carrying virtual time, throughput, and the
communication totals for every point.

Example::

    from repro.bench.sweep import Sweep
    from repro.bench.workloads import run_epoch_workload
    from repro.runtime import Runtime

    sweep = Sweep(
        name="reclaim-frequency",
        grid={
            "locales": [2, 8, 32],
            "network": ["none", "ugni"],
            "every": [1, 64, 1024],
        },
        run=lambda p: run_epoch_workload(
            Runtime(num_locales=p["locales"], network=p["network"]),
            ops_per_task=1024,
            reclaim_every=p["every"],
        ),
    )
    rows = sweep.execute()
    sweep.write_csv("reclaim_frequency.csv", rows)
"""

from __future__ import annotations

import csv
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from .workloads import WorkloadResult

__all__ = ["SweepRow", "Sweep"]


@dataclass
class SweepRow:
    """One grid point's parameters and measurements."""

    #: The parameter assignment for this point.
    params: Dict[str, Any]
    #: Virtual seconds of the timed region.
    elapsed: float
    #: Simulated operations performed.
    operations: int
    #: Simulated ops per virtual second.
    throughput: float
    #: Wall-clock seconds the simulation itself took (harness health).
    wall_seconds: float
    #: Communication totals for the point.
    comm: Dict[str, int] = field(default_factory=dict)

    def flat(self) -> Dict[str, Any]:
        """Single-level dict (CSV-friendly)."""
        out: Dict[str, Any] = dict(self.params)
        out["elapsed_s"] = self.elapsed
        out["operations"] = self.operations
        out["throughput_ops_s"] = self.throughput
        out["wall_s"] = self.wall_seconds
        for k, v in self.comm.items():
            out[f"comm_{k}"] = v
        return out


class Sweep:
    """Cartesian-product sweep over a parameter grid.

    Parameters
    ----------
    name:
        Label used in progress output and default filenames.
    grid:
        Mapping of parameter name to the values it sweeps over; points are
        the cartesian product in declaration order.
    run:
        Callable taking one parameter dict and returning a
        :class:`WorkloadResult`.  It must build (and own) any runtime it
        needs — sweeps never share simulator state between points.
    progress:
        Optional callable invoked with each finished :class:`SweepRow`.
    """

    def __init__(
        self,
        name: str,
        grid: Mapping[str, Sequence[Any]],
        run: Callable[[Dict[str, Any]], WorkloadResult],
        progress: Optional[Callable[[SweepRow], None]] = None,
    ) -> None:
        if not grid:
            raise ValueError("sweep grid must have at least one parameter")
        for key, values in grid.items():
            if not list(values):
                raise ValueError(f"sweep parameter {key!r} has no values")
        self.name = name
        self.grid = {k: list(v) for k, v in grid.items()}
        self.run = run
        self.progress = progress

    def points(self) -> Iterator[Dict[str, Any]]:
        """Yield every parameter assignment in the grid."""
        keys = list(self.grid)
        for combo in itertools.product(*(self.grid[k] for k in keys)):
            yield dict(zip(keys, combo))

    @property
    def size(self) -> int:
        """Number of grid points."""
        n = 1
        for values in self.grid.values():
            n *= len(values)
        return n

    def _run_point(self, params: Dict[str, Any]) -> SweepRow:
        t0 = time.time()
        result = self.run(dict(params))
        return SweepRow(
            params=dict(params),
            elapsed=result.elapsed,
            operations=result.operations,
            throughput=result.ops_per_second,
            wall_seconds=time.time() - t0,
            comm=dict(result.comm),
        )

    def execute(self) -> List[SweepRow]:
        """Run every point in grid order; returns the rows in that order."""
        rows: List[SweepRow] = []
        for params in self.points():
            row = self._run_point(params)
            rows.append(row)
            if self.progress is not None:
                self.progress(row)
        return rows

    @staticmethod
    def write_csv(path: str, rows: Sequence[SweepRow]) -> None:
        """Write rows to ``path`` as CSV (union of all columns)."""
        if not rows:
            raise ValueError("no rows to write")
        flats = [r.flat() for r in rows]
        columns: List[str] = []
        for f in flats:
            for k in f:
                if k not in columns:
                    columns.append(k)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            for f in flats:
                writer.writerow(f)
