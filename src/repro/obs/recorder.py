"""The virtual-time flight recorder: deterministic structured tracing.

A :class:`TraceRecorder` collects structured events stamped with *virtual*
time into per-locale append buffers; :meth:`TraceRecorder.events` merges
them by ``(virtual_time, locale, seq)`` into one stream that is
bit-identical across repeated runs and execution engines
(docs/OBSERVABILITY.md).  Wall-clock never appears in an event —
the trace describes the simulated machine, not the simulating one.

Detail ladder (the ``trace`` knob of :class:`~repro.runtime.config.
RuntimeConfig` — a machine-style knob that is deliberately NOT an axis,
like ``engine``):

* ``off`` — no recorder is installed anywhere.  Hot paths pay at most one
  ``is None`` attribute check.
* ``spans`` — root-driven events only: ``forall``/``coforall``/``timed``
  spans, policy decisions with the facts they saw, and reclaimer
  scan/advance/drain summaries.  These are all emitted from sequential
  root-task code between joins, so the stream is identical across
  engines (the compiled executor emits the same spans from its phase
  replay).
* ``full`` — adds per-op charge events (with distance class and target),
  ServicePoint serve events (queue delay and idle-bank deltas), uplink
  batch flushes, and reclaimer pin/retire events.  Their order is the
  runtime's one schedule (:mod:`repro.runtime.tasking`), the same with
  tracing on or off, so recording never changes what is recorded.  The
  compiled engine takes its documented interpreter fallback at this
  detail.

Determinism discipline for emitters: an event's ``t`` is a virtual time
computed by the simulation (never wall clock); events carry names and
values, never Python ``id()``s or memory addresses; anything emitted from
a worker task is ``full``-detail only (serial execution makes the append
order reproducible).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["TRACE_DETAILS", "parse_trace", "age_bucket", "TraceRecorder"]

#: The accepted trace-detail levels, in increasing order of detail.
TRACE_DETAILS = ("off", "spans", "full")


def parse_trace(value: str) -> str:
    """Validate and normalize a trace-detail spec, one of
    :data:`TRACE_DETAILS` (the shared axis-error idiom: anything else
    lists the valid names)."""
    text = value.strip().lower() if isinstance(value, str) else value
    if text not in TRACE_DETAILS:
        raise ValueError(
            f"unknown trace detail {value!r}; expected one of"
            f" {list(TRACE_DETAILS)}"
        )
    return text


def age_bucket(age: float) -> int:
    """Power-of-two histogram bucket for a limbo age in virtual seconds.

    Returns ``floor(log2(age))`` (via ``frexp`` so the result is exact for
    every float), with non-positive ages clamped into the lowest bucket.
    Deterministic by construction — no float log in sight.
    """
    if age <= 0.0:
        return -1075  # below the smallest subnormal exponent
    return math.frexp(age)[1] - 1


class TraceRecorder:
    """Per-locale append buffers of structured virtual-time events.

    One recorder lives on a :class:`~repro.runtime.runtime.Runtime` for
    its whole life (``Runtime._tracer``); hot-path emitters cache it (or
    ``None``) in a slot so the *off* cost is one attribute check.

    Each event is filed under the locale of ``runtime``'s running task
    (locale 0 outside one).
    """

    def __init__(self, runtime: "Runtime", detail: str) -> None:
        detail = parse_trace(detail)
        if detail == "off":
            raise ValueError("TraceRecorder requires detail 'spans' or 'full'")
        self.detail = detail
        #: True at the ``full`` detail level (per-op event emission).
        self.wants_full = detail == "full"
        self.num_locales = num_locales = runtime.config.num_locales
        self._rt = runtime
        self._buffers: List[List[Dict[str, Any]]] = [
            [] for _ in range(num_locales)
        ]
        self._seq = [0] * num_locales
        #: Last-seen idle bank per ServicePoint (id-keyed, never emitted),
        #: for per-serve bank deltas.  Points start zeroed at runtime
        #: construction; :meth:`reset_points` re-zeroes on
        #: ``NetworkModel.reset_measurements``.
        self._bank_prev: Dict[int, float] = {}
        #: Stable small integers for traced units (epoch-manager
        #: instances, keyed by their limbo-list list), in
        #: first-emission order — deterministic under the discipline above.
        self._unit_ids: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _locale(self) -> int:
        ctx = self._rt._ctx
        return ctx.locale_id if ctx is not None else 0

    def detach(self) -> None:
        """Let go of the runtime (``Runtime.close``): the recorder keeps
        its events but no longer holds the machine it recorded."""
        self._rt = None

    def _emit(self, locale: int, t: float, kind: str, fields: Dict[str, Any]) -> None:
        seq = self._seq[locale]
        self._seq[locale] = seq + 1
        ev: Dict[str, Any] = {"t": t, "loc": locale, "seq": seq, "kind": kind}
        ev.update(fields)
        self._buffers[locale].append(ev)

    def unit_id(self, obj: Any) -> int:
        """A stable per-run integer naming a traced unit (epoch manager)."""
        key = id(obj)
        uid = self._unit_ids.get(key)
        if uid is None:
            uid = self._unit_ids[key] = len(self._unit_ids)
        return uid

    # ------------------------------------------------------------------
    # spans-level emitters (root-driven, deterministic under any pool)
    # ------------------------------------------------------------------
    def span(self, name: str, t0: float, t1: float, **fields: Any) -> None:
        """A closed phase span: forall/coforall/timed, start to post-join."""
        f: Dict[str, Any] = {"name": name, "t1": t1}
        f.update(fields)
        self._emit(self._locale(), t0, "span", f)

    def policy_decision(
        self, policy: str, decision: str, t: float, facts: Dict[str, Any]
    ) -> None:
        """An epoch-policy gate outcome with the facts it decided from."""
        self._emit(
            self._locale(),
            t,
            "policy",
            {"policy": policy, "decision": decision, "facts": facts},
        )

    def reclaim(self, op: str, scheme: str, t: float, **fields: Any) -> None:
        """A root-driven reclaimer summary: scan / advance / drain / free."""
        f: Dict[str, Any] = {"op": op, "scheme": scheme}
        f.update(fields)
        self._emit(self._locale(), t, "reclaim", f)

    # ------------------------------------------------------------------
    # full-level emitters (serial-schedule only)
    # ------------------------------------------------------------------
    def op(
        self, op: str, t0: float, t1: float, dclass: int, home: int, **fields: Any
    ) -> None:
        """One charged communication operation (full detail)."""
        f: Dict[str, Any] = {"op": op, "t1": t1, "dclass": dclass, "home": home}
        f.update(fields)
        self._emit(self._locale(), t0, "op", f)

    def serve(self, point: Any, arrival: float, service: float, finish: float) -> None:
        """One ServicePoint reservation (full detail; called from
        ``ServicePoint.serve_locked``)."""
        bank = point.idle_bank
        key = id(point)
        prev = self._bank_prev.get(key, 0.0)
        self._bank_prev[key] = bank
        self._emit(
            self._locale(),
            finish,
            "serve",
            {
                "point": point.name,
                "arr": arrival,
                "svc": service,
                "qd": finish - arrival - service,
                "bank": bank,
                "dbank": bank - prev,
            },
        )

    def batch(
        self, t: float, dclass: int, group: Any, count: int, queue_delay: float
    ) -> None:
        """One uplink batch flush: a window of coalesced operations paying
        a single traversal (full detail)."""
        self._emit(
            self._locale(),
            t,
            "batch",
            {
                "dclass": dclass,
                "group": str(group),
                "count": count,
                "qd": queue_delay,
            },
        )

    def guard(self, event: str, scheme: str, t: float, **fields: Any) -> None:
        """A reclaimer guard event: pin / retire (full detail)."""
        f: Dict[str, Any] = {"event": event, "scheme": scheme}
        f.update(fields)
        self._emit(self._locale(), t, "guard", f)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def reset_points(self) -> None:
        """Forget per-point bank state (``reset_measurements`` zeroed them)."""
        self._bank_prev.clear()

    def events(self) -> List[Dict[str, Any]]:
        """The merged event stream, ordered by ``(t, loc, seq)``.

        Per-locale buffers are appended in deterministic order (root-only
        at ``spans``; the one schedule at ``full``), and ``seq`` is unique
        per locale, so the merge — and therefore every export — is
        bit-identical across repeats and engines.
        """
        merged: List[Dict[str, Any]] = []
        for buf in self._buffers:
            merged.extend(buf)
        merged.sort(key=lambda ev: (ev["t"], ev["loc"], ev["seq"]))
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceRecorder(detail={self.detail!r},"
            f" events={sum(len(buf) for buf in self._buffers)})"
        )


#: A recorder-shaped constant meaning "not tracing": emitters cache either
#: a recorder or None, never this module object.
NO_RECORDER: Optional[TraceRecorder] = None
