"""Declarative workload scenarios: specs, a registry, and a grid runner.

The paper evaluates its designs over one fixed grid (five microbenchmarks
x two network flavours x one locale axis).  This module opens that grid
up: a **scenario** is a small declarative description — loadable from a
dict or a TOML file — of

* a *topology*: locale count, network flavour, interconnect shape
  (flat / hierarchical / dragonfly distance classes — see
  :mod:`repro.comm.topology`), cost profile/scale/overrides, tasks per
  locale, seed;
* a *workload shape*: one of the generators in
  :mod:`repro.bench.workloads`, with validated parameters;
* *measurement knobs*: an operation-count scale for quick passes and a
  repeat count that doubles as a determinism self-check.

Named scenarios live in a registry (see :func:`scenario_names`); the
built-ins go well beyond the paper's figures — Zipf-skewed hotspot
atomics, mixed pin/deferDelete ratios, producer-consumer churn over the
queue and stack, combined multi-structure traffic, and degraded-network
profiles.  ``python -m repro.bench scenarios {--list,--run,--all}`` is the
CLI; :func:`run_scenario_grid` executes many scenarios in order (one
runtime per point) and :func:`build_report` aggregates the
results into a JSON document with per-scenario regression baselines.

Determinism contract: every scenario produces virtual-time and
comm-diagnostic results that are **bit-identical across repeated runs**
(the engine invariant of docs/ENGINE.md: one scheduler); the generator
rules documented in :mod:`repro.bench.workloads` also make every
*registered* scenario independent of task order.  The
runner re-checks this whenever ``measure.repeats > 1``.

Example TOML::

    [scenario]
    name = "my-hotspot"
    description = "zipf hotspot on a slow interconnect"

    [topology]
    locales = 16
    network = "none"
    topology = "hier:2x2"
    cost_profile = "degraded"

    [workload]
    kind = "atomic_hotspot"
    ops_per_task = 4096
    zipf_exponent = 1.4

    [measure]
    repeats = 2
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..comm.costs import is_finite_number, resolve_cost_model
from ..engine import compiled_plan, engine_summary
from ..errors import ReproError
from ..obs import MetricsRegistry
from ..runtime.config import RECLAIMER_SCHEMES, RuntimeConfig
from ..runtime.runtime import Runtime
from .workloads import (
    WorkloadResult,
    check_params,
    run_atomic_mix,
    run_epoch_mixed,
    run_epoch_workload,
    run_multi_structure,
    run_producer_consumer,
)

try:  # Python 3.11+; scenario TOML loading degrades gracefully without it.
    import tomllib as _tomllib
except ImportError:  # pragma: no cover - exercised only on 3.10
    _tomllib = None

__all__ = [
    "ScenarioError",
    "TopologySpec",
    "WorkloadSpec",
    "MeasureSpec",
    "ScenarioSpec",
    "ScenarioRun",
    "WORKLOAD_KINDS",
    "BASELINE_IDENTITY",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "run_scenario",
    "run_scenario_grid",
    "build_report",
    "load_baselines",
    "compiled_coverage",
]


class ScenarioError(ReproError):
    """A scenario spec failed validation or execution."""


def _reject_unknown(doc: Mapping[str, Any], allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {unknown} in {where}; allowed keys are"
            f" {sorted(allowed)}"
        )


# ---------------------------------------------------------------------------
# Spec dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologySpec:
    """The simulated machine a scenario runs on.

    ``topology`` names the interconnect *shape* — the distance-class
    structure of the machine (see :mod:`repro.comm.topology` and
    docs/TOPOLOGY.md): ``"flat"`` (default — every remote peer
    equidistant, the legacy model), ``"hier:SxL"`` (S sockets per node,
    L CPU-coherent locales per socket, AM-priced shared uplinks between
    nodes) or ``"dragonfly:G"`` (G-locale groups with degraded,
    shared-uplink inter-group links).

    ``reclaimer`` selects the memory-reclamation scheme the workload's
    structures retire through (see :mod:`repro.reclaim` and
    docs/RECLAMATION.md): ``"ebr"`` (default — the paper's scheme),
    ``"hp"``, ``"qsbr"`` or ``"ibr"``.

    ``aggregation`` is the uplink message-aggregation window (see
    :mod:`repro.comm.aggregation` and docs/AGGREGATION.md): how many
    same-uplink-group reclamation-path operations one traversal may
    carry.  ``1`` (the default) disables aggregation — the legacy
    one-message-per-op behaviour every pre-aggregation baseline pins.

    ``engine`` selects the workload execution engine (see
    :mod:`repro.engine` and docs/ENGINE.md): ``"interpreted"`` (default)
    or ``"compiled"``.  Unlike the axes above it is *not* part of the
    simulated machine — compiled execution is bit-identical by contract —
    so baselines verify unchanged under either engine and the key is
    never part of a baseline's identity.

    ``policy`` selects the virtual-time policy pair (see
    :mod:`repro.policy` and docs/POLICY.md) — an epoch-advance policy
    gating root ``try_reclaim`` calls plus an aggregation-window policy:
    e.g. ``"fixed"`` (default — today's cadence, bit-identical),
    ``"threshold:64"``, ``"decay:64"``, ``"grace:1e-4"``, or
    ``"threshold:32+adaptive:2..64"``.  Policies change the simulated
    machine's decisions, so the axis *is* part of a baseline's identity.

    ``trace`` sets the flight-recorder detail (see :mod:`repro.obs` and
    docs/OBSERVABILITY.md): ``"off"`` (default), ``"spans"`` or
    ``"full"``.  Like ``engine`` it is *not* part of the simulated
    machine — tracing never changes any virtual-time result — so the key
    is never part of a baseline's identity and ``as_dict`` omits it when
    off.

    Each axis takes its spec string (``aggregation`` also an int, or its
    decimal string as ``--aggregation`` passes it).  The cost model is
    named by ``cost_profile`` (see :data:`repro.comm.costs.COST_PROFILES`)
    and adjusted with a uniform ``cost_scale`` and per-field
    ``cost_overrides`` (a mapping or ``(field, value)`` pairs), so a TOML
    file can describe the whole machine.  The :class:`RuntimeConfig` is
    the only parser: construction builds it once (checking only that
    ``locales`` and ``tasks_per_locale`` are positive integers first),
    raises :class:`ScenarioError` (``"topology.<field>: ..."``) for any
    field it rejects, copies the canonical ``network`` / ``topology`` /
    ``aggregation`` / ``policy`` / ``trace`` specs back — so baselines
    compare ``"hier"`` and ``"hier:2x2"``, or ``"8"`` and ``8``, as the
    same machine — and keeps the config for :meth:`runtime_config`.
    """

    locales: int = 8
    network: str = "ugni"
    tasks_per_locale: int = 1
    topology: str = "flat"
    cost_profile: str = "default"
    cost_scale: float = 1.0
    cost_overrides: Tuple[Tuple[str, float], ...] = ()
    seed: int = 0xC0FFEE
    worker_pool_size: Optional[int] = None
    reclaimer: str = "ebr"
    aggregation: Union[int, str] = 1
    engine: str = "interpreted"
    policy: str = "fixed"
    trace: str = "off"

    def __post_init__(self) -> None:
        for name in ("locales", "tasks_per_locale"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ScenarioError(
                    f"topology.{name} must be a positive integer, got"
                    f" {value!r}"
                )
        # Normalize a mapping into a hashable tuple of (field, value) pairs.
        if isinstance(self.cost_overrides, Mapping):
            object.__setattr__(
                self, "cost_overrides", tuple(sorted(self.cost_overrides.items()))
            )
        try:
            config = RuntimeConfig(
                num_locales=self.locales,
                network=self.network,
                costs=resolve_cost_model(
                    self.cost_profile,
                    scale=self.cost_scale,
                    overrides=self.cost_overrides,
                ),
                tasks_per_locale=self.tasks_per_locale,
                seed=self.seed,
                worker_pool_size=self.worker_pool_size,
                reclaimer=self.reclaimer,
                topology=self.topology,
                aggregation=self.aggregation,
                engine=self.engine,
                policy=self.policy,
                trace=self.trace,
            )
        except ValueError as exc:
            raise ScenarioError(f"topology.{exc}") from None
        object.__setattr__(self, "network", config.network.value)
        object.__setattr__(self, "topology", config.resolved_topology().spec())
        object.__setattr__(
            self, "aggregation", config.resolved_aggregation().spec()
        )
        object.__setattr__(self, "policy", config.resolved_policy().spec())
        object.__setattr__(self, "trace", config.trace)
        object.__setattr__(self, "_config", config)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "TopologySpec":
        _reject_unknown(doc, [f.name for f in fields(cls)], "[topology]")
        return cls(**doc)

    def runtime_config(self) -> RuntimeConfig:
        """The :class:`RuntimeConfig` this spec was validated through."""
        return self._config

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "locales": self.locales,
            "network": self.network,
            "tasks_per_locale": self.tasks_per_locale,
            "topology": self.topology,
            "cost_profile": self.cost_profile,
            "cost_scale": self.cost_scale,
            "seed": self.seed,
            "reclaimer": self.reclaimer,
        }
        if self.aggregation != 1:
            out["aggregation"] = self.aggregation
        if self.engine != "interpreted":
            out["engine"] = self.engine
        if self.policy != "fixed":
            out["policy"] = self.policy
        if self.trace != "off":
            out["trace"] = self.trace
        if self.cost_overrides:
            out["cost_overrides"] = dict(self.cost_overrides)
        if self.worker_pool_size is not None:
            out["worker_pool_size"] = self.worker_pool_size
        return out


#: Parameters every workload kind accepts, with defaults, plus which of
#: them scale under ``measure.ops_scale``.  ``runner`` is the generator
#: itself, called as ``runner(rt, tasks_per_locale=tpl, **params)``, so
#: the parameter names are its keyword names.
@dataclass(frozen=True)
class _WorkloadKind:
    runner: Callable[..., WorkloadResult]
    defaults: Tuple[Tuple[str, Any], ...]
    scaled: Tuple[str, ...]
    summary: str


WORKLOAD_KINDS: Dict[str, _WorkloadKind] = {
    "atomic_mix": _WorkloadKind(
        runner=run_atomic_mix,
        defaults=(
            ("cell", "atomic_object"),
            ("ops_per_task", 2048),
            ("num_cells", None),
        ),
        scaled=("ops_per_task",),
        summary="Figure 3's 25/25/25/25 read/write/CAS/exchange mix",
    ),
    "atomic_hotspot": _WorkloadKind(
        runner=run_atomic_mix,
        defaults=(
            ("cell", "atomic_int"),
            ("ops_per_task", 2048),
            ("num_cells", 64),
            ("zipf_exponent", 1.2),
        ),
        scaled=("ops_per_task",),
        summary="Zipf-skewed hotspot variant of the atomic mix",
    ),
    "epoch": _WorkloadKind(
        runner=run_epoch_workload,
        defaults=(
            ("ops_per_task", 1024),
            ("remote_percent", 0),
            ("delete", True),
            ("reclaim_every", None),
            ("cleanup_at_end", True),
        ),
        scaled=("ops_per_task",),
        summary="the paper's Listing 5 pin/deferDelete/tryReclaim loop",
    ),
    "epoch_mixed": _WorkloadKind(
        runner=run_epoch_mixed,
        defaults=(
            ("ops_per_task", 1024),
            ("write_percent", 25),
            ("remote_percent", 0),
            ("rounds", 2),
            ("reclaim_between_rounds", True),
        ),
        scaled=("ops_per_task",),
        summary="mixed pin/deferDelete ratio with phased reclamation",
    ),
    "churn": _WorkloadKind(
        runner=run_producer_consumer,
        defaults=(
            ("structure", "queue"),
            ("items_per_task", 512),
            ("rounds", 2),
            ("reclaim_between_rounds", True),
            ("pairing", "ring"),
        ),
        scaled=("items_per_task",),
        summary="producer-consumer churn over MsQueue/TreiberStack",
    ),
    "multi_structure": _WorkloadKind(
        runner=run_multi_structure,
        defaults=(
            ("ops_per_slot", 256),
            ("rounds", 2),
            ("reclaim_between_rounds", True),
            ("hash_buckets", 16),
        ),
        scaled=("ops_per_slot",),
        summary="combined stack + queue + hash-table traffic, one manager",
    ),
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Which generator to run, and with what parameters."""

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ScenarioError(
                f"workload.kind {self.kind!r} unknown; expected one of"
                f" {sorted(WORKLOAD_KINDS)}"
            )
        params = self.params
        if isinstance(params, Mapping):
            params = tuple(sorted(params.items()))
            object.__setattr__(self, "params", params)
        allowed = {k for k, _ in WORKLOAD_KINDS[self.kind].defaults}
        bad = sorted({k for k, _ in params} - allowed)
        if bad:
            raise ScenarioError(
                f"workload kind {self.kind!r} does not accept parameter(s)"
                f" {bad}; allowed parameters are {sorted(allowed)}"
            )
        for name, value in params:
            try:
                check_params(**{name: value})
            except ValueError as exc:
                raise ScenarioError(f"workload.{name}: {exc}") from None

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "WorkloadSpec":
        if "kind" not in doc:
            raise ScenarioError("[workload] requires a 'kind' key")
        params = {k: v for k, v in doc.items() if k != "kind"}
        return cls(kind=doc["kind"], params=params)

    def resolved_params(self, ops_scale: float = 1.0) -> Dict[str, Any]:
        """Defaults merged with overrides, op counts scaled (min 1)."""
        kind = WORKLOAD_KINDS[self.kind]
        merged = dict(kind.defaults)
        merged.update(dict(self.params))
        if ops_scale != 1.0:
            for key in kind.scaled:
                if merged[key] is not None:
                    merged[key] = max(1, int(round(merged[key] * ops_scale)))
        return merged

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        out.update(dict(self.params))
        return out


@dataclass(frozen=True)
class MeasureSpec:
    """Measurement knobs: quick-pass scaling and repeat verification."""

    ops_scale: float = 1.0
    repeats: int = 1

    def __post_init__(self) -> None:
        if not is_finite_number(self.ops_scale) or self.ops_scale <= 0:
            raise ScenarioError(
                f"measure.ops_scale must be a finite positive number, got"
                f" {self.ops_scale!r}"
            )
        if not isinstance(self.repeats, int) or self.repeats < 1:
            raise ScenarioError(
                f"measure.repeats must be a positive integer, got"
                f" {self.repeats!r}"
            )

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "MeasureSpec":
        _reject_unknown(doc, [f.name for f in fields(cls)], "[measure]")
        return cls(**doc)

    def as_dict(self) -> Dict[str, Any]:
        return {"ops_scale": self.ops_scale, "repeats": self.repeats}


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, fully-described benchmark scenario."""

    name: str
    description: str = ""
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=lambda: WorkloadSpec("atomic_mix"))
    measure: MeasureSpec = field(default_factory=MeasureSpec)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError(f"scenario name must be a non-empty string, got {self.name!r}")

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse the nested dict form (the shape TOML produces)."""
        _reject_unknown(
            doc, ["scenario", "topology", "workload", "measure"], "scenario document"
        )
        head = doc.get("scenario", {})
        _reject_unknown(head, ["name", "description"], "[scenario]")
        if "name" not in head:
            raise ScenarioError("[scenario] requires a 'name' key")
        if "workload" not in doc:
            raise ScenarioError("scenario document requires a [workload] table")
        return cls(
            name=head["name"],
            description=head.get("description", ""),
            topology=TopologySpec.from_dict(doc.get("topology", {})),
            workload=WorkloadSpec.from_dict(doc["workload"]),
            measure=MeasureSpec.from_dict(doc.get("measure", {})),
        )

    @classmethod
    def from_toml(cls, text_or_path: str) -> "ScenarioSpec":
        """Parse a scenario from TOML text or a ``.toml`` file path.

        Requires :mod:`tomllib` (Python 3.11+); on older interpreters a
        :class:`ScenarioError` explains the constraint rather than
        crashing at import time.  An unreadable file or malformed TOML
        is a :class:`ScenarioError` too.
        """
        if _tomllib is None:  # pragma: no cover - 3.10 only
            raise ScenarioError(
                "TOML scenario files require Python 3.11+ (tomllib);"
                " use ScenarioSpec.from_dict instead"
            )
        try:
            if text_or_path.endswith(".toml"):
                with open(text_or_path, "rb") as fh:
                    doc = _tomllib.load(fh)
            else:
                doc = _tomllib.loads(text_or_path)
        except (OSError, _tomllib.TOMLDecodeError) as exc:
            raise ScenarioError(f"cannot load scenario TOML: {exc}") from None
        return cls.from_dict(doc)

    # -- derivation -----------------------------------------------------
    def with_topology(self, **overrides: Any) -> "ScenarioSpec":
        """Copy with topology fields replaced (used by grid drivers)."""
        return replace(self, topology=replace(self.topology, **overrides))

    def with_workload(self, **overrides: Any) -> "ScenarioSpec":
        """Copy with workload parameters (or ``kind=``) replaced."""
        kind = overrides.pop("kind", self.workload.kind)
        params = dict(self.workload.params)
        if kind != self.workload.kind:
            params = {}  # parameters do not carry across generators
        params.update(overrides)
        return replace(self, workload=WorkloadSpec(kind=kind, params=params))

    def with_measure(self, **overrides: Any) -> "ScenarioSpec":
        """Copy with measurement knobs replaced."""
        return replace(self, measure=replace(self.measure, **overrides))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": {"name": self.name, "description": self.description},
            "topology": self.topology.as_dict(),
            "workload": self.workload.as_dict(),
            "measure": self.measure.as_dict(),
        }


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class ScenarioRun:
    """Outcome of executing one scenario once (or ``repeats`` times)."""

    spec: ScenarioSpec
    result: WorkloadResult
    wall_seconds: float
    #: Flight-recorder event stream (``topology.trace != "off"`` only);
    #: feed it to :func:`repro.obs.write_trace` for Perfetto/JSONL export.
    trace_events: Optional[List[Dict[str, Any]]] = None
    #: Effective-engine record (:func:`repro.engine.engine_summary`):
    #: what the configured engine actually did, phase by phase — kept out
    #: of ``result.extra`` because virtual results (the bit-identity
    #: contract) must not vary by engine.
    engine: Optional[Dict[str, Any]] = None

    def report_entry(self) -> Dict[str, Any]:
        """The JSON shape :func:`build_report` aggregates."""
        entry = {
            "description": self.spec.description,
            "topology": self.spec.topology.as_dict(),
            "workload": self.spec.workload.as_dict(),
            "reclaimer": self.spec.topology.reclaimer,
            "ops_scale": self.spec.measure.ops_scale,
            "elapsed_virtual_s": self.result.elapsed,
            "operations": self.result.operations,
            "throughput_ops_s": self.result.ops_per_second,
            "comm": dict(self.result.comm),
            "wall_seconds": self.wall_seconds,
            "extra": _jsonable(self.result.extra),
        }
        if self.engine is not None:
            entry["engine"] = self.engine
        return entry


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of workload extras to JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def compiled_coverage(spec: ScenarioSpec) -> str:
    """The engine tier this scenario's workload gets under ``compiled``.

    Computed from the same :func:`repro.engine.compiled_plan` predicate
    the workload generators consult at run time — never hand-maintained —
    so the ``scenarios --list`` coverage column cannot drift from what
    the engine actually does.  Returns ``"columnar"``, ``"serial"`` or
    ``"interpreted"``.
    """
    topo = spec.topology
    params = spec.workload.resolved_params(spec.measure.ops_scale)
    policy = topo.runtime_config().resolved_policy().make_epoch_policy()
    tier, _reason = compiled_plan(
        spec.workload.kind,
        reclaimer=topo.reclaimer,
        trace=topo.trace,
        tasks_per_locale=topo.tasks_per_locale,
        reclaim_every=params.get("reclaim_every"),
        wants_pin_times=policy.wants_pin_times,
    )
    return tier


def run_scenario(spec: ScenarioSpec) -> ScenarioRun:
    """Execute one scenario on a fresh runtime and return its run record.

    When ``measure.repeats > 1`` every repetition must produce identical
    virtual time, operation count and comm totals — a violation raises
    :class:`ScenarioError`, because it means the scenario's workload broke
    the engine's determinism contract.  With tracing enabled the flight-
    recorder event stream joins that check: repeats must replay the very
    same events (docs/OBSERVABILITY.md), and the merged stream's metrics
    registry lands under ``extra["obs"]`` in the run's report entry.
    """
    params = spec.workload.resolved_params(spec.measure.ops_scale)
    kind = WORKLOAD_KINDS[spec.workload.kind]
    t0 = time.perf_counter()
    reference: Optional[WorkloadResult] = None
    reference_events: Optional[List[Dict[str, Any]]] = None
    engine_info: Optional[Dict[str, Any]] = None
    for rep in range(spec.measure.repeats):
        with Runtime(config=spec.topology.runtime_config()) as rt:
            result = kind.runner(
                rt, tasks_per_locale=spec.topology.tasks_per_locale, **params
            )
        events = rt._tracer.events() if rt._tracer is not None else None
        if reference is None:
            reference = result
            reference_events = events
            engine_info = engine_summary(rt)
        elif (
            result.elapsed != reference.elapsed
            or result.operations != reference.operations
            or result.comm != reference.comm
        ):
            raise ScenarioError(
                f"scenario {spec.name!r} is not deterministic: repeat"
                f" {rep + 1} produced elapsed={result.elapsed!r},"
                f" comm={result.comm!r} vs first run"
                f" elapsed={reference.elapsed!r}, comm={reference.comm!r}"
            )
        elif events != reference_events:
            raise ScenarioError(
                f"scenario {spec.name!r} trace is not deterministic:"
                f" repeat {rep + 1} emitted {len(events or [])} event(s)"
                f" vs {len(reference_events or [])} on the first run,"
                f" or the streams differ event-for-event"
            )
    assert reference is not None
    if reference_events is not None:
        registry = MetricsRegistry.from_events(
            reference_events, spec.topology.trace
        )
        reference.extra["obs"] = registry.as_dict()
    return ScenarioRun(
        spec=spec,
        result=reference,
        wall_seconds=time.perf_counter() - t0,
        trace_events=reference_events,
        engine=engine_info,
    )


def run_scenario_grid(
    specs: Sequence[ScenarioSpec],
    *,
    progress: Optional[Callable[[ScenarioRun], None]] = None,
) -> List[ScenarioRun]:
    """Execute many scenarios in spec order, one runtime per point.

    Each point builds its own runtime —
    scenario runs never share simulator state.  ``progress`` is called
    with each run as it finishes.
    """
    runs = []
    for spec in specs:
        run = run_scenario(spec)
        if progress is not None:
            progress(run)
        runs.append(run)
    return runs


# ---------------------------------------------------------------------------
# Reporting & regression baselines
# ---------------------------------------------------------------------------


def load_baselines(path: str) -> Dict[str, Any]:
    """Load a scenario-baselines JSON file ({} when absent)."""
    import json
    import os

    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    return doc.get("scenarios", {})


#: The topology fields that make up a baseline's machine identity, each
#: with the value a baseline recorded before the field existed.  A run
#: whose value differs from the recorded one is a different experiment,
#: not a regression: its verdict is ``incomparable``.  ``engine`` and
#: ``trace`` are absent because they never change virtual results.
BASELINE_IDENTITY: Tuple[Tuple[str, Any], ...] = (
    ("reclaimer", "ebr"),
    ("topology", "flat"),
    ("aggregation", 1),
    ("policy", "fixed"),
    ("cost_profile", "default"),
    ("cost_scale", 1.0),
)


def baseline_entry(run: ScenarioRun) -> Dict[str, Any]:
    """The per-scenario facts a baseline pins (all virtual quantities)."""
    topo = run.spec.topology
    return {
        "ops_scale": run.spec.measure.ops_scale,
        **{key: getattr(topo, key) for key, _ in BASELINE_IDENTITY},
        "elapsed_virtual_s": run.result.elapsed,
        "operations": run.result.operations,
        "comm": dict(run.result.comm),
    }


def _baseline_status(run: ScenarioRun, baselines: Mapping[str, Any]) -> Dict[str, Any]:
    base = baselines.get(run.spec.name)
    if base is None:
        return {"status": "new"}
    if base.get("ops_scale") != run.spec.measure.ops_scale:
        return {
            "status": "incomparable",
            "reason": (
                f"baseline recorded at ops_scale={base.get('ops_scale')},"
                f" run used {run.spec.measure.ops_scale}"
            ),
        }
    for key, default in BASELINE_IDENTITY:
        recorded = base.get(key, default)
        got = getattr(run.spec.topology, key)
        if recorded != got:
            return {
                "status": "incomparable",
                "reason": (
                    f"baseline recorded with {key}={recorded!r}, run used"
                    f" {got!r}"
                ),
            }
    same = (
        base.get("elapsed_virtual_s") == run.result.elapsed
        and base.get("operations") == run.result.operations
        and base.get("comm") == run.result.comm
    )
    if same:
        return {"status": "match"}
    return {
        "status": "drift",
        "baseline": {
            "elapsed_virtual_s": base.get("elapsed_virtual_s"),
            "operations": base.get("operations"),
            "comm": base.get("comm"),
        },
    }


def build_report(
    runs: Sequence[ScenarioRun],
    *,
    baselines: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Aggregate runs into one JSON-ready report document.

    Each scenario entry carries its spec echo, virtual-time results, wall
    time, and — when a baselines mapping is given — a regression verdict:
    ``match`` (bit-identical to the recorded baseline), ``drift`` (virtual
    results moved: a behaviour change, since virtual time is
    deterministic), ``new`` (no baseline yet), or ``incomparable``
    (baseline was recorded at a different ops_scale).
    """
    doc: Dict[str, Any] = {
        "schema": 1,
        "generator": "repro.bench.scenarios",
        "scenarios": {},
    }
    for run in runs:
        entry = run.report_entry()
        if baselines is not None:
            entry["regression"] = _baseline_status(run, baselines)
        doc["scenarios"][run.spec.name] = entry
    return doc


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, *, replace_existing: bool = False) -> ScenarioSpec:
    """Add a spec to the named-scenario registry (returns it unchanged).

    Registered scenarios promise the determinism contract in the module
    docstring; re-registering a taken name requires ``replace_existing``.
    """
    if spec.name in _REGISTRY and not replace_existing:
        raise ScenarioError(
            f"scenario {spec.name!r} is already registered; pass"
            f" replace_existing=True to overwrite"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name (with a nearest-miss hint)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        import difflib

        hint = difflib.get_close_matches(name, _REGISTRY, n=1)
        extra = f" (did you mean {hint[0]!r}?)" if hint else ""
        raise ScenarioError(
            f"no scenario named {name!r}{extra}; see scenario_names()"
        ) from None


def scenario_names() -> List[str]:
    """Sorted names of every registered scenario."""
    return sorted(_REGISTRY)


def iter_scenarios() -> Iterator[ScenarioSpec]:
    """Registered specs in name order."""
    for name in scenario_names():
        yield _REGISTRY[name]


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------


def _builtin(
    name: str,
    description: str,
    topology: Dict[str, Any],
    workload: Dict[str, Any],
) -> None:
    register_scenario(
        ScenarioSpec(
            name=name,
            description=description,
            topology=TopologySpec.from_dict(topology),
            workload=WorkloadSpec.from_dict(workload),
        )
    )


# The paper's grid, as scenario bases the figure drivers derive from.
_builtin(
    "paper-atomic-mix",
    "Figure 3's atomic-operation mix at one grid point (8 locales, ugni);"
    " the base spec figure3_* drivers sweep.",
    {"locales": 8, "network": "ugni"},
    {"kind": "atomic_mix", "cell": "atomic_object", "ops_per_task": 2048},
)
_builtin(
    "paper-reclaim-endonly",
    "Figure 6's pin/deferDelete loop with reclamation only at the end"
    " (8 locales, ugni, 50% remote objects); base spec for figures 4-7.",
    {"locales": 8, "network": "ugni"},
    {"kind": "epoch", "ops_per_task": 1024, "remote_percent": 50},
)

# Hotspot scenarios: Zipf-skewed traffic no figure in the paper covers.
_builtin(
    "hotspot-zipf",
    "Zipf-1.2 hotspot over 64 cyclic cells: locale 0's NIC pipeline is the"
    " contended resource (ugni, 8 locales, 2 tasks/locale).",
    {"locales": 8, "network": "ugni", "tasks_per_locale": 2},
    {"kind": "atomic_hotspot", "ops_per_task": 2048, "zipf_exponent": 1.2},
)
_builtin(
    "hotspot-zipf-am",
    "The same Zipf hotspot without network atomics: the hot locale's"
    " progress thread serializes active messages and saturates far sooner.",
    {"locales": 8, "network": "none", "tasks_per_locale": 2},
    {"kind": "atomic_hotspot", "ops_per_task": 2048, "zipf_exponent": 1.2},
)

# Mixed read/write epoch traffic.
_builtin(
    "read-mostly-reclaim",
    "90% read / 10% deferDelete pin-unpin traffic, phased root-task"
    " reclamation every half — the web-cache shape (8 locales, ugni).",
    {"locales": 8, "network": "ugni"},
    {
        "kind": "epoch_mixed",
        "ops_per_task": 2048,
        "write_percent": 10,
        "rounds": 2,
    },
)
_builtin(
    "write-heavy-reclaim",
    "75% deferDelete with half the objects remote, four forall rounds at"
    " 2 tasks/locale, end-of-run reclamation — retirement pressure well"
    " past Figure 5's.",
    {"locales": 8, "network": "ugni", "tasks_per_locale": 2},
    {
        "kind": "epoch_mixed",
        "ops_per_task": 1024,
        "write_percent": 75,
        "remote_percent": 50,
        "rounds": 4,
        # End-only reclamation: with >1 worker per locale, a mid-workload
        # root scan visits cache lines whose idle-bank residue is real-
        # schedule-dependent (see the determinism notes in
        # repro.bench.workloads), which would break bit-identical results.
        "reclaim_between_rounds": False,
    },
)

# Producer-consumer churn over the real structures.
_builtin(
    "queue-churn",
    "Producer-consumer churn over per-slot Michael-Scott queues in plain-"
    "CAS mode under EBR; consumers drain their neighbour's (remote) queue.",
    {"locales": 8, "network": "ugni"},
    {"kind": "churn", "structure": "queue", "items_per_task": 512, "rounds": 2},
)
_builtin(
    "stack-churn",
    "The same churn over Treiber stacks (plain CAS + EBR), 2 tasks per"
    " locale — LIFO address reuse makes this the ABA-pressure scenario.",
    {"locales": 8, "network": "ugni", "tasks_per_locale": 2},
    {
        "kind": "churn",
        "structure": "stack",
        "items_per_task": 512,
        "rounds": 2,
        # End-only reclamation, for the same reason as write-heavy-reclaim.
        "reclaim_between_rounds": False,
    },
)

# Cross-scheme reclamation comparisons: the same three workload shapes
# under every scheme in repro.reclaim — the ablation the paper could not
# run (its EBR was the only implementation).  Shapes:
#
# * hotspot   — 100% deferDelete with every object remote: retirement and
#   bulk-free pressure concentrated on remote locales (scatter economics
#   vs HP scan traffic vs interval draining);
# * read-mostly — 90% pin/unpin-only traffic: the read-side cost ladder
#   (QSBR free < EBR two atomics < IBR era publish < HP protect+validate);
# * churn     — producer-consumer stack churn in plain-CAS mode: address
#   reuse under real structure traffic, consumers draining a remote
#   neighbour.
#
# All three use one worker per locale and root-driven phase-boundary
# reclamation, the determinism discipline documented in
# repro.bench.workloads; the registered baselines pin each scheme's
# virtual results bit-exactly.
for _scheme in RECLAIMER_SCHEMES:
    _builtin(
        f"reclaim-hotspot-{_scheme}",
        f"Cross-scheme comparison ({_scheme}): 100% remote deferDelete"
        " traffic, 4 locales, phased root reclamation.",
        {"locales": 4, "network": "ugni", "reclaimer": _scheme},
        {
            "kind": "epoch_mixed",
            "ops_per_task": 512,
            "write_percent": 100,
            "remote_percent": 100,
            "rounds": 2,
        },
    )
    _builtin(
        f"reclaim-read-mostly-{_scheme}",
        f"Cross-scheme comparison ({_scheme}): 90% read pin/unpin traffic"
        " — the read-side cost ladder (4 locales, ugni).",
        {"locales": 4, "network": "ugni", "reclaimer": _scheme},
        {
            "kind": "epoch_mixed",
            "ops_per_task": 1024,
            "write_percent": 10,
            "rounds": 2,
        },
    )
    _builtin(
        f"reclaim-churn-{_scheme}",
        f"Cross-scheme comparison ({_scheme}): producer-consumer stack"
        " churn in plain-CAS mode, remote consumers (4 locales, ugni).",
        {"locales": 4, "network": "ugni", "reclaimer": _scheme},
        {
            "kind": "churn",
            "structure": "stack",
            "items_per_task": 256,
            "rounds": 2,
        },
    )
del _scheme

# Combined traffic and degraded interconnects.
_builtin(
    "multi-structure",
    "Every slot drives a stack, a queue and a hash table retiring into one"
    " shared EpochManager — combined-traffic reclamation (8 locales, ugni).",
    {"locales": 8, "network": "ugni"},
    {"kind": "multi_structure", "ops_per_slot": 256, "rounds": 2},
)
_builtin(
    "degraded-latency",
    "Write-heavy epoch traffic on the 'degraded' cost profile (8x network"
    " latencies, no NIC atomics): does phased reclamation still amortize?",
    {"locales": 8, "network": "none", "cost_profile": "degraded"},
    {
        "kind": "epoch_mixed",
        "ops_per_task": 1024,
        "write_percent": 50,
        "remote_percent": 50,
        "rounds": 2,
    },
)

# Multi-level topologies (see repro.comm.topology and docs/TOPOLOGY.md):
# the same workload shapes under hierarchical (sockets-in-nodes, shared
# per-node uplinks) and dragonfly (degraded shared inter-group links)
# machines.  The flat scenarios above stay bit-identical — these add the
# locality axis the paper's single-machine evaluation could not vary.
_builtin(
    "topo-hier-hotspot",
    "Zipf-1.2 hotspot on hier:2x2 (2 nodes x 2 sockets x 2 locales):"
    " node 0's shared uplink — not just locale 0's NIC — is the contended"
    " resource for cross-node traffic.",
    {"locales": 8, "network": "ugni", "topology": "hier:2x2",
     "tasks_per_locale": 2},
    {"kind": "atomic_hotspot", "ops_per_task": 2048, "zipf_exponent": 1.2},
)
_builtin(
    "topo-hier-rackaffine",
    "Rack-affine producer-consumer churn on hier:2x2: consumers drain"
    " their socket sibling's queue, so the drain phase rides the coherent"
    " fabric instead of the interconnect.",
    {"locales": 8, "network": "ugni", "topology": "hier:2x2"},
    {"kind": "churn", "structure": "queue", "items_per_task": 512,
     "rounds": 2, "pairing": "near"},
)
_builtin(
    "topo-hier-crossnode",
    "The same churn anti-localized: every consumer drains across the"
    " node boundary, funnelling through the shared per-node uplinks —"
    " the worst-case contrast to topo-hier-rackaffine.",
    {"locales": 8, "network": "ugni", "topology": "hier:2x2"},
    {"kind": "churn", "structure": "queue", "items_per_task": 512,
     "rounds": 2, "pairing": "far"},
)
_builtin(
    "topo-dragonfly-churn",
    "Ring churn over a dragonfly:4 machine (2 groups of 4): one consumer"
    " per group crosses the 4x-degraded optical link; the rest stay"
    " intra-group.",
    {"locales": 8, "network": "ugni", "topology": "dragonfly:4"},
    {"kind": "churn", "structure": "queue", "items_per_task": 512,
     "rounds": 2},
)
_builtin(
    "topo-dragonfly-hotspot",
    "Zipf hotspot on dragonfly:4 without network atomics: cross-group"
    " AMs pay degraded latencies and serialize on the hot group's shared"
    " uplink instead of one locale's progress thread.",
    {"locales": 8, "network": "none", "topology": "dragonfly:4",
     "tasks_per_locale": 2},
    {"kind": "atomic_hotspot", "ops_per_task": 2048, "zipf_exponent": 1.2},
)
# EBR vs hazard pointers under hierarchy: HP's remote hazard scans cross
# the uplinks, EBR's limbo lists privatize per locale — the reclamation
# comparison the locality axis makes interesting.
for _scheme in ("ebr", "hp"):
    _builtin(
        f"topo-hier-reclaim-{_scheme}",
        f"Cross-scheme comparison under hierarchy ({_scheme}): 50%"
        " deferDelete with half the objects remote on hier:2x2 — scan"
        " traffic vs scatter economics when remote means 'across the"
        " uplink'.",
        {"locales": 8, "network": "ugni", "topology": "hier:2x2",
         "reclaimer": _scheme},
        {
            "kind": "epoch_mixed",
            "ops_per_task": 1024,
            "write_percent": 50,
            "remote_percent": 50,
            "rounds": 2,
        },
    )

# Uplink-aware reclamation (see repro.comm.aggregation and
# docs/AGGREGATION.md): the exact topo-hier-reclaim-* workloads with the
# message-aggregation window open, sweeping window sizes.  Scan paths
# walk coherence domains first, cross each shared uplink once per
# window-sized batch, and (EBR) share limbo lists per socket — these are
# the successors the PR 4 baselines are measured against, and they must
# post *lower* virtual time than their aggregation-off twins.
for _scheme in ("ebr", "hp"):
    for _window in (4, 16):
        _builtin(
            f"topo-hier-agg-{_scheme}-w{_window}",
            f"topo-hier-reclaim-{_scheme} with the aggregation window at"
            f" {_window}: domain-ordered scans, batched uplink traversals"
            + (", socket-shared limbo lists" if _scheme == "ebr" else "")
            + " — beats the aggregation-off baseline on virtual time.",
            {"locales": 8, "network": "ugni", "topology": "hier:2x2",
             "reclaimer": _scheme, "aggregation": _window},
            {
                "kind": "epoch_mixed",
                "ops_per_task": 1024,
                "write_percent": 50,
                "remote_percent": 50,
                "rounds": 2,
            },
        )
    del _window
del _scheme

# The dragonfly twin of the topo-hier-agg sweep (ROADMAP: degraded
# inter-group uplinks should widen the batching payoff): same mixed
# deferDelete workload on dragonfly:4 groups, whose inter-group links are
# slower *and* shared — so one batched traversal per window replaces the
# costliest per-op crossings in the registry.  Window 16 only: the w4
# point is already pinned by the hier sweep, and the wide window is where
# the degraded-uplink payoff shows.
for _scheme in ("ebr", "hp"):
    _builtin(
        f"topo-dragonfly-agg-{_scheme}-w16",
        f"Mixed deferDelete traffic under {_scheme} on dragonfly:4 groups"
        f" with the aggregation window at 16: domain-ordered scans batch"
        f" the degraded inter-group uplink crossings"
        + (", group-shared limbo lists" if _scheme == "ebr" else "")
        + ".",
        {"locales": 8, "network": "ugni", "topology": "dragonfly:4",
         "reclaimer": _scheme, "aggregation": 16},
        {
            "kind": "epoch_mixed",
            "ops_per_task": 1024,
            "write_percent": 50,
            "remote_percent": 50,
            "rounds": 2,
        },
    )
del _scheme

# Virtual-time policy sweeps (see repro.policy and docs/POLICY.md): the
# same mixed deferDelete workload under each epoch-advance policy on the
# hierarchical machine, and the adaptive-window head-to-head on the
# dragonfly machine.  Four rounds give the epoch policies three mid-run
# decision points; the parameters are tuned so each policy's decision
# sequence actually differs from fixed's (threshold:512 defers all three,
# decay:512 defers twice then advances as its effective threshold decays,
# grace:1e-4 defers whenever the last virtual pin is within the grace
# period).  All registered baselines pin the policy axis.
for _policy, _blurb in (
    ("threshold:512", "defers every mid-run advance (pending never"
     " reaches 512 per locale) — the cheapest cadence"),
    ("decay:512", "defers like threshold:512 until the deferral streak"
     " decays the effective threshold under the pending count"),
    ("grace:1e-4", "holds the epoch open while the last virtual-time pin"
     " is younger than the grace period"),
):
    _kind = _policy.split(":", 1)[0]
    _builtin(
        f"policy-sweep-hier-{_kind}",
        f"topo-hier-reclaim-ebr under policy {_policy} with four rounds:"
        f" {_blurb}.",
        {"locales": 8, "network": "ugni", "topology": "hier:2x2",
         "policy": _policy},
        {
            "kind": "epoch_mixed",
            "ops_per_task": 1024,
            "write_percent": 50,
            "remote_percent": 50,
            "rounds": 4,
        },
    )
del _policy, _blurb, _kind
_builtin(
    "policy-sweep-dragonfly-threshold",
    "Mixed deferDelete traffic under hp on dragonfly:4 with policy"
    " threshold:4096: root hazard scans — and their cross-group slot"
    " reads — are skipped while per-guard retired buffers stay small;"
    " the guard-local threshold scans (HP's bounded-garbage guarantee)"
    " keep running ungated.",
    {"locales": 8, "network": "ugni", "topology": "dragonfly:4",
     "reclaimer": "hp", "aggregation": 16, "policy": "threshold:4096"},
    {
        "kind": "epoch_mixed",
        "ops_per_task": 1024,
        "write_percent": 50,
        "remote_percent": 50,
        "rounds": 4,
    },
)
# The adaptive-window head-to-head: same 16-locale dragonfly:8 machine
# (two groups of 8 — each root hazard scan reads 32 same-group slots, so
# window 16 needs two uplink batches per group), once with the static
# window the aggregation axis pins and once with the adaptive policy,
# which observes full batches and grows the window until one batch per
# group suffices.  The adaptive run must post lower virtual time than
# this static twin — the registered baselines pin the gap.
_builtin(
    "policy-sweep-dragonfly-w16",
    "The static twin of the adaptive head-to-head: mixed deferDelete"
    " under hp on a 16-locale dragonfly:8 with the aggregation window"
    " fixed at 16 — every root scan pays two uplink batches per group.",
    {"locales": 16, "network": "ugni", "topology": "dragonfly:8",
     "reclaimer": "hp", "aggregation": 16},
    {
        "kind": "epoch_mixed",
        "ops_per_task": 1024,
        "write_percent": 50,
        "remote_percent": 50,
        "rounds": 2,
    },
)
_builtin(
    "policy-sweep-dragonfly-adaptive",
    "policy-sweep-dragonfly-w16 with the adaptive window policy"
    " (adaptive:2..64): full 16-item batches grow the window until each"
    " group's hazard slots ride one uplink batch — beats the static twin"
    " on virtual time.",
    {"locales": 16, "network": "ugni", "topology": "dragonfly:8",
     "reclaimer": "hp", "aggregation": 16, "policy": "adaptive:2..64"},
    {
        "kind": "epoch_mixed",
        "ops_per_task": 1024,
        "write_percent": 50,
        "remote_percent": 50,
        "rounds": 2,
    },
)

# Ragged shape: a hierarchy whose locale count does not fill the last
# node (hier:2x3 over 8 locales = one full 6-locale node + one partial
# node of 2, itself a partial socket).  Exercises partial-node uplink
# grouping and partial-socket coherence domains on the aggregated path —
# ROADMAP open item 4 (tests/test_aggregation.py asserts the grouping).
_builtin(
    "topo-hier-ragged",
    "Mixed deferDelete traffic on a ragged hier:2x3 over 8 locales (the"
    " second node has only 2 of 6 locales) with aggregation window 4:"
    " partial-node uplink groups and a partial socket on the"
    " domain-ordered scan path.",
    {"locales": 8, "network": "ugni", "topology": "hier:2x3",
     "aggregation": 4},
    {
        "kind": "epoch_mixed",
        "ops_per_task": 512,
        "write_percent": 50,
        "remote_percent": 50,
        "rounds": 2,
    },
)
