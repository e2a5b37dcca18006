"""The metrics registry: summaries derived from the trace stream.

Two sources feed the registry:

* **Counter stats** (always available, tracing or not): the per-scheme
  ``extra["em"]`` block every reclamation workload reports.
  :func:`progress_suffix` renders the ``--run`` progress suffixes from it
  — one shared renderer instead of scheme-specific string building in the
  CLI.
* **The trace stream** (when a :class:`~repro.obs.recorder.TraceRecorder`
  is installed): :meth:`MetricsRegistry.from_events` folds the merged
  event stream into per-ServicePoint utilization / queue-delay /
  idle-bank timelines, per-distance-class op and crossing counters, and
  limbo-age / batch-occupancy histograms.  The result is JSON-able and
  lands under ``extra.obs`` in scenario reports.

Everything here is pure post-processing: folding the same deterministic
event stream always yields the same registry, so ``extra.obs`` inherits
the trace's bit-identity across repeats and engines.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from .recorder import age_bucket

__all__ = ["MetricsRegistry", "progress_suffix"]


def progress_suffix(extra: Dict[str, Any], *, reclaimer: str, policy: str) -> str:
    """The ``--run`` progress-line suffix for one scenario result.

    Renders the reclaimer / aggregation / policy blocks from the
    counter-stats source (``extra["em"]``), keeping the exact strings the
    CLI always printed — but from one registry-owned renderer instead of
    ad-hoc string building per scheme.
    """
    rec = extra.get("em")
    if not isinstance(rec, dict) or "retired" not in rec:
        return ""
    line = (
        f" [{reclaimer}:"
        f" retired={rec['retired']} freed={rec['freed']}"
        f" peak={rec.get('peak_pending', 0)}]"
    )
    if rec.get("scan_batches") or rec.get("uplink_crossings"):
        line += (
            f" [agg: batches={rec.get('scan_batches', 0)}"
            f" crossings={rec.get('uplink_crossings', 0)}]"
        )
    if policy != "fixed":
        advances = rec.get("advances", rec.get("reclaims", 0))
        line += (
            f" [policy: advances={advances}"
            f" deferrals={rec.get('policy_deferrals', 0)}"
            f" window={rec.get('window', 1)}]"
        )
    return line


class MetricsRegistry:
    """Folded summaries of one run's trace stream.

    Build with :meth:`from_events`; read :meth:`as_dict` (the
    ``extra.obs`` payload) or :meth:`summary_lines` (the ``trace``
    subcommand's report).
    """

    def __init__(self, detail: str) -> None:
        self.detail = detail
        self.events = 0
        self.kinds: Dict[str, int] = {}
        #: span name -> {count, total virtual duration}
        self.spans: Dict[str, Dict[str, Any]] = {}
        self.policy = {"advances": 0, "deferrals": 0}
        #: reclaim op (scan/advance/drain/free) -> count
        self.reclaim: Dict[str, int] = {}
        #: point name -> serve timeline summary (full detail)
        self.points: Dict[str, Dict[str, Any]] = {}
        #: distance class -> charged-op count (full detail)
        self.dclass_ops: Dict[int, int] = {}
        #: distance class -> uplink batch crossings (full detail)
        self.dclass_crossings: Dict[int, int] = {}
        #: batch occupancy (ops per flush) -> count (full detail)
        self.batch_occupancy: Dict[int, int] = {}
        #: limbo-age histogram over power-of-two buckets (full detail)
        self.limbo_age: Dict[str, Any] = {"count": 0, "max": 0.0, "buckets": {}}
        self.horizon = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls, events: Iterable[Dict[str, Any]], detail: str
    ) -> "MetricsRegistry":
        reg = cls(detail)
        # EBR retires carry (unit, slot) tags; drains name the slots they
        # emptied — matching them in stream order recovers exact ages.
        pending_retires: Dict[Any, List[float]] = {}
        for ev in events:
            reg.events += 1
            kind = ev["kind"]
            reg.kinds[kind] = reg.kinds.get(kind, 0) + 1
            t = ev["t"]
            t1 = ev.get("t1", t)
            if t1 > reg.horizon:
                reg.horizon = t1
            if kind == "span":
                rec = reg.spans.setdefault(ev["name"], {"count": 0, "total": 0.0})
                rec["count"] += 1
                rec["total"] += ev["t1"] - t
            elif kind == "policy":
                key = "advances" if ev["decision"] == "advance" else "deferrals"
                reg.policy[key] += 1
            elif kind == "reclaim":
                op = ev["op"]
                reg.reclaim[op] = reg.reclaim.get(op, 0) + 1
                if "age_buckets" in ev:
                    reg._fold_ages(
                        ev.get("ages_count", 0), ev.get("age_max", 0.0),
                        ev["age_buckets"],
                    )
                for slot in ev.get("slots", ()):
                    for t_retire in pending_retires.pop(
                        (ev.get("unit"), slot), ()
                    ):
                        reg._add_age(t - t_retire)
            elif kind == "serve":
                rec = reg.points.get(ev["point"])
                if rec is None:
                    rec = reg.points[ev["point"]] = {
                        "serves": 0,
                        "busy": 0.0,
                        "queue_delay_sum": 0.0,
                        "queue_delay_max": 0.0,
                        "bank_final": 0.0,
                    }
                rec["serves"] += 1
                rec["busy"] += ev["svc"]
                qd = ev["qd"]
                rec["queue_delay_sum"] += qd
                if qd > rec["queue_delay_max"]:
                    rec["queue_delay_max"] = qd
                rec["bank_final"] = ev["bank"]
            elif kind == "op":
                d = ev["dclass"]
                reg.dclass_ops[d] = reg.dclass_ops.get(d, 0) + 1
            elif kind == "batch":
                d = ev["dclass"]
                reg.dclass_crossings[d] = reg.dclass_crossings.get(d, 0) + 1
                n = ev["count"]
                reg.batch_occupancy[n] = reg.batch_occupancy.get(n, 0) + 1
            elif kind == "guard":
                if ev["event"] == "retire" and "slot" in ev:
                    pending_retires.setdefault(
                        (ev.get("unit"), ev["slot"]), []
                    ).append(t)
        return reg

    def _add_age(self, age: float) -> None:
        hist = self.limbo_age
        hist["count"] += 1
        if age > hist["max"]:
            hist["max"] = age
        b = age_bucket(age)
        hist["buckets"][b] = hist["buckets"].get(b, 0) + 1

    def _fold_ages(self, count: int, age_max: float, buckets: Dict[Any, int]) -> None:
        hist = self.limbo_age
        hist["count"] += count
        if age_max > hist["max"]:
            hist["max"] = age_max
        for b, n in buckets.items():
            b = int(b)
            hist["buckets"][b] = hist["buckets"].get(b, 0) + n

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """The ``extra.obs`` payload (JSON-able after ``_jsonable``)."""
        horizon = self.horizon
        points = {}
        for name in sorted(self.points):
            rec = dict(self.points[name])
            rec["utilization"] = rec["busy"] / horizon if horizon > 0.0 else 0.0
            points[name] = rec
        return {
            "detail": self.detail,
            "events": self.events,
            "kinds": {k: self.kinds[k] for k in sorted(self.kinds)},
            "horizon": horizon,
            "spans": {k: self.spans[k] for k in sorted(self.spans)},
            "policy": dict(self.policy),
            "reclaim": {k: self.reclaim[k] for k in sorted(self.reclaim)},
            "points": points,
            "dclass_ops": {k: self.dclass_ops[k] for k in sorted(self.dclass_ops)},
            "dclass_crossings": {
                k: self.dclass_crossings[k] for k in sorted(self.dclass_crossings)
            },
            "batch_occupancy": {
                k: self.batch_occupancy[k] for k in sorted(self.batch_occupancy)
            },
            "limbo_age": {
                "count": self.limbo_age["count"],
                "max": self.limbo_age["max"],
                "buckets": {
                    k: self.limbo_age["buckets"][k]
                    for k in sorted(self.limbo_age["buckets"])
                },
            },
        }

    def summary_lines(self) -> List[str]:
        """Human-readable summary for the ``trace`` subcommand."""
        out = [
            f"trace detail={self.detail} events={self.events}"
            f" horizon={self.horizon:.6g}s"
        ]
        for name in sorted(self.kinds):
            out.append(f"  events[{name}] = {self.kinds[name]}")
        for name in sorted(self.spans):
            rec = self.spans[name]
            out.append(
                f"  span {name:10s} count={rec['count']}"
                f" total={rec['total']:.6g}s"
            )
        if self.policy["advances"] or self.policy["deferrals"]:
            out.append(
                f"  policy advances={self.policy['advances']}"
                f" deferrals={self.policy['deferrals']}"
            )
        for op in sorted(self.reclaim):
            out.append(f"  reclaim {op:8s} count={self.reclaim[op]}")
        horizon = self.horizon
        for name in sorted(self.points):
            rec = self.points[name]
            util = rec["busy"] / horizon if horizon > 0.0 else 0.0
            out.append(
                f"  point {name:24s} serves={rec['serves']:<7d}"
                f" util={util:.3f} qd_max={rec['queue_delay_max']:.3g}"
                f" bank={rec['bank_final']:.3g}"
            )
        if self.dclass_ops:
            ops = " ".join(
                f"d{k}={self.dclass_ops[k]}" for k in sorted(self.dclass_ops)
            )
            out.append(f"  ops by distance class: {ops}")
        if self.dclass_crossings:
            xs = " ".join(
                f"d{k}={self.dclass_crossings[k]}"
                for k in sorted(self.dclass_crossings)
            )
            out.append(f"  uplink crossings by distance class: {xs}")
        if self.batch_occupancy:
            occ = " ".join(
                f"{k}:{self.batch_occupancy[k]}"
                for k in sorted(self.batch_occupancy)
            )
            out.append(f"  batch occupancy histogram: {occ}")
        if self.limbo_age["count"]:
            buckets = " ".join(
                f"2^{k}:{self.limbo_age['buckets'][k]}"
                for k in sorted(self.limbo_age["buckets"])
            )
            out.append(
                f"  limbo ages: n={self.limbo_age['count']}"
                f" max={self.limbo_age['max']:.3g}s buckets[{buckets}]"
            )
        return out
