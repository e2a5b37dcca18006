"""Runtime configuration: locale count, network flavour, cost calibration.

The two network flavours mirror the paper's experimental axis:

* :attr:`NetworkType.UGNI` — ``CHPL_NETWORK_ATOMICS`` present (Cray
  Gemini/Aries): 64-bit atomics are NIC-offloaded RDMA operations, remote
  *and local* (NIC atomics are not coherent with CPU atomics, so local ops
  pay the NIC trip too).
* :attr:`NetworkType.NONE` — no network atomics (also approximates
  InfiniBand under Chapel 1.20, which did not use IB RDMA atomics): local
  atomics are plain CPU atomics; remote atomics and remote execution are
  active messages serviced by the target's progress thread.

``RuntimeConfig`` is deliberately small and immutable — a benchmark sweep
constructs one runtime per point from a config and tears it down.  It is
also the one parser of the simulated machine: ``__post_init__`` validates
every field once, and the scenario layer
(:class:`~repro.bench.scenarios.TopologySpec`) reads the canonical specs
back from the result instead of parsing them again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from ..comm.aggregation import AggregationSpec, parse_aggregation
from ..comm.costs import CostModel, DEFAULT_COSTS
from ..comm.topology import Topology, parse_topology
from ..errors import LocaleError
from ..obs.recorder import parse_trace
from ..policy import PolicySpec, parse_policy

__all__ = [
    "NetworkType",
    "RuntimeConfig",
    "RECLAIMER_SCHEMES",
    "ENGINES",
    "compiled_requested",
]

#: Canonical names of the pluggable memory-reclamation schemes (see
#: :mod:`repro.reclaim`).  Declared here — not in ``repro.reclaim`` — so
#: that config validation does not import the reclaimer implementations
#: (which themselves build on the runtime).
RECLAIMER_SCHEMES = ("ebr", "hp", "qsbr", "ibr")

#: Workload execution engines (see :mod:`repro.engine` and docs/ENGINE.md):
#: ``"interpreted"`` charges every operation as it happens inside the
#: task bodies; ``"compiled"`` lets workloads lower fixed op streams into
#: columnar batches replayed serially; ``"compiled-strict"`` is the same
#: engine with fallback turned into an error (a coverage gate — any phase
#: the generators cannot lower raises ``CompiledFallbackError`` instead of
#: silently running the interpreter).  Bit-identical by contract — the
#: option trades wall-clock only, never virtual results.
ENGINES = ("interpreted", "compiled", "compiled-strict")


def compiled_requested(engine: str) -> bool:
    """True when ``engine`` asks for compiled execution (strict or not)."""
    return engine in ENGINES[1:]


def _parse(name: str, parse: Callable[..., Any], *args: Any) -> Any:
    """Run one field's parser, prefixing its ``ValueError`` with the field."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _choice(name: str, value: Any, choices: "tuple[str, ...]") -> None:
    """Validate an enum-like field: unknown values list the valid names."""
    if value not in choices:
        raise ValueError(
            f"{name}: unknown {name} {value!r}; expected one of {list(choices)}"
        )


class NetworkType(enum.Enum):
    """Which atomic-operation transport the simulated interconnect offers."""

    #: RDMA network atomics available (Cray Gemini/Aries; the paper's `ugni`).
    UGNI = "ugni"
    #: No network atomics; remote atomics become active messages (`none`).
    NONE = "none"

    @classmethod
    def names(cls) -> "list[str]":
        """The accepted string spellings, for validation error messages."""
        return [m.value for m in cls]

    @classmethod
    def parse(cls, value: "NetworkType | str") -> "NetworkType":
        """Accept either an enum member or its string name ("ugni"/"none")."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except (ValueError, AttributeError):
            raise ValueError(
                f"unknown network type {value!r}; expected one of"
                f" {cls.names()}"
            ) from None


@dataclass(frozen=True)
class RuntimeConfig:
    """Immutable description of one simulated machine.

    Construction is the machine's one parse: ``__post_init__`` validates
    every field, normalizes ``network`` and ``trace`` in place, and keeps
    the parsed topology, aggregation window and policy for
    :meth:`resolved_topology` / :meth:`resolved_aggregation` /
    :meth:`resolved_policy`.  A rejected field raises ``ValueError``
    whose message starts with the field's name (``"aggregation: ..."``;
    ``num_locales < 1`` raises :class:`~repro.errors.LocaleError`).
    The heap layout is not a field: every locale's heap starts at
    :data:`~repro.memory.heap.HEAP_BASE` and aligns to
    :data:`~repro.memory.heap.HEAP_ALIGNMENT`.

    Parameters
    ----------
    num_locales:
        Number of simulated compute nodes (Chapel locales). Must be >= 1.
    network:
        Interconnect flavour; see :class:`NetworkType`.
    costs:
        Virtual-time calibration; defaults to
        :data:`repro.comm.costs.DEFAULT_COSTS`.
    tasks_per_locale:
        Default number of worker tasks a ``forall`` spawns per locale.
        (The paper's machine ran 44; the simulator defaults low to keep
        host time small.)
    seed:
        Seed for all task-local RNGs (an int, not a bool); sweeps derive
        per-task seeds from it deterministically.
    reclaimer:
        Which memory-reclamation scheme structures and workloads use by
        default: ``"ebr"`` (the paper's distributed epoch-based scheme),
        ``"hp"`` (per-task hazard pointers), ``"qsbr"`` (quiescent-state
        based) or ``"ibr"`` (interval-based).  See docs/RECLAMATION.md.
    worker_pool_size:
        Accepted and validated (``None`` or an integer >= 1) but has no
        effect: every task runs on the thread that joins it, from the
        runtime's run queue (see :mod:`repro.runtime.tasking`).
    topology:
        Interconnect shape, as a spec string: ``"flat"`` (the default and
        the legacy behaviour), ``"hier:2x2"`` or ``"dragonfly:4"``.
        Determines the distance class — and therefore the cost route and
        contention point — of every (source, home) locale pair.  See
        docs/TOPOLOGY.md.
    aggregation:
        Message-aggregation window (see :mod:`repro.comm.aggregation` and
        docs/AGGREGATION.md): the maximum number of same-uplink-group
        operations one traversal may carry on the reclamation scan paths.
        An integer window or its decimal string (``"8"``, as
        ``--aggregation`` passes it).  ``1`` (the default) disables
        aggregation — every path then runs the legacy one-message-per-op
        shape, bit-identical to the pre-aggregation engine.
    engine:
        Workload execution engine (see :data:`ENGINES` and
        docs/ENGINE.md): ``"interpreted"`` (the default) runs op streams
        in the task bodies charging per operation; ``"compiled"``
        asks workload generators to lower their fixed op streams into
        columnar batches replayed by :mod:`repro.engine`.  Virtual
        results are bit-identical either way — the knob trades wall-clock
        only.  Generators without a compiled lowering silently fall back
        to the interpreter.  Like ``trace``, this is a run option, not
        part of the machine identity baselines record.
    trace:
        Observability detail (see :mod:`repro.obs` and
        docs/OBSERVABILITY.md): ``"off"`` (the default — no recorder
        installed, hot paths pay at most one attribute check),
        ``"spans"`` (root-driven phase/policy/reclaim events), or
        ``"full"`` (adds per-op charges, ServicePoint serves, uplink
        batches, and guard events).  Like ``engine``, this is a run
        option: it never changes the schedule or virtual results and is
        never recorded in baselines.
    policy:
        Virtual-time policy axis (see :mod:`repro.policy` and
        docs/POLICY.md): one spec string naming an epoch-advance policy
        half (``"fixed"`` — the default, today's cadence —
        ``"threshold:N"``, ``"decay:N"``, ``"grace:T"``) and/or an
        aggregation-window policy half (``"static"`` — the default —
        ``"adaptive:lo..hi"``) joined by ``+``.  The default ``"fixed"``
        (fixed epochs, static window) is bit-identical to the pre-policy
        engine.
    """

    num_locales: int = 4
    network: NetworkType = NetworkType.UGNI
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    tasks_per_locale: int = 2
    seed: int = 0xC0FFEE
    worker_pool_size: Optional[int] = None
    reclaimer: str = "ebr"
    topology: str = "flat"
    aggregation: Union[int, str] = 1
    engine: str = "interpreted"
    policy: str = "fixed"
    trace: str = "off"

    def __post_init__(self) -> None:
        if self.num_locales < 1:
            raise LocaleError(f"num_locales must be >= 1, got {self.num_locales}")
        if self.tasks_per_locale < 1:
            raise ValueError(
                f"tasks_per_locale must be >= 1, got {self.tasks_per_locale}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        pool = self.worker_pool_size
        if pool is not None and (
            not isinstance(pool, int) or isinstance(pool, bool) or pool < 1
        ):
            raise ValueError(
                f"worker_pool_size must be an integer >= 1, got {pool!r}"
            )
        # Every machine field is parsed exactly once, here.  network and
        # trace are normalized in place; the parsed topology, aggregation
        # and policy live outside the dataclass fields, so replace()
        # re-parses and frozen semantics are preserved.
        set_ = object.__setattr__
        set_(self, "network", _parse("network", NetworkType.parse, self.network))
        set_(self, "trace", _parse("trace", parse_trace, self.trace))
        _choice("reclaimer", self.reclaimer, RECLAIMER_SCHEMES)
        _choice("engine", self.engine, ENGINES)
        set_(
            self,
            "_topology",
            _parse("topology", parse_topology, self.topology, self.num_locales),
        )
        set_(
            self,
            "_aggregation",
            _parse("aggregation", parse_aggregation, self.aggregation),
        )
        set_(self, "_policy", _parse("policy", parse_policy, self.policy))

    def resolved_topology(self) -> Topology:
        """The :class:`~repro.comm.topology.Topology` instance the
        ``topology`` spec describes."""
        return self._topology

    def resolved_aggregation(self) -> AggregationSpec:
        """The validated :class:`~repro.comm.aggregation.AggregationSpec`
        the ``aggregation`` spec describes."""
        return self._aggregation

    def resolved_policy(self) -> PolicySpec:
        """The validated :class:`~repro.policy.PolicySpec` the ``policy``
        spec describes."""
        return self._policy

    @property
    def uses_network_atomics(self) -> bool:
        """True when 64-bit atomics ride the NIC (the `ugni` behaviour)."""
        return self.network is NetworkType.UGNI
