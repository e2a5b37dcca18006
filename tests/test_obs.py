"""Tests for the virtual-time flight recorder (src/repro/obs).

Five layers, mirroring the subsystem's contract (docs/OBSERVABILITY.md):

* **recorder unit semantics** — detail parsing, the power-of-two age
  bucketing, and the ``(t, loc, seq)`` merge order;
* **zero-cost off** — the default installs no recorder anywhere, and
  every shipped baseline still verifies bit-identically under both
  engines with tracing off (tier-1 already covers the latter; here we
  assert the hook surfaces stay ``None``);
* **determinism** — the hard requirement: the merged event stream is
  bit-identical across repeated runs, worker-pool sizes {1, 2, 4, 8},
  and execution engines, at both detail levels;
* **non-interference** — ``--trace full`` leaves virtual results exactly
  equal to the shipped trace-off baselines, and the metrics registry /
  report plumbing (``extra.obs``) survives ``_jsonable`` round-trips;
* **policy facts** — the satellite: per-distance-class crossings and
  limbo-age facts reach ``EpochFacts``, where a ``threshold`` policy can
  read them (no new policy behaviour).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.bench.scenarios import get_scenario, load_baselines, run_scenario
from repro.core import EpochManager
from repro.obs import (
    TRACE_DETAILS,
    MetricsRegistry,
    TraceRecorder,
    age_bucket,
    parse_trace,
    progress_suffix,
    to_chrome_trace,
    to_jsonl,
    write_trace,
)
from repro.policy import EpochFacts, ThresholdEpochPolicy
from repro.runtime import Runtime
from repro.runtime.config import RuntimeConfig

BASELINES = "benchmarks/scenario_baselines.json"

#: Small-but-real scenarios the end-to-end tests run (lowered via
#: ops_scale where full-detail streams would get large).
CHEAP = "reclaim-hotspot-ebr"
UPLINK = "topo-hier-agg-ebr-w4"


def _traced(name, *, detail="full", engine=None, pool=None, ops_scale=0.25,
            repeats=1):
    spec = get_scenario(name)
    overrides = {"trace": detail}
    if engine is not None:
        overrides["engine"] = engine
    if pool is not None:
        overrides["worker_pool_size"] = pool
    spec = spec.with_topology(**overrides)
    spec = spec.with_measure(ops_scale=ops_scale, repeats=repeats)
    return run_scenario(spec)


# ----------------------------------------------------------------------
# recorder unit semantics
# ----------------------------------------------------------------------
class TestRecorder:
    def test_parse_trace_normalizes(self):
        assert parse_trace(None) == "off"
        assert parse_trace("") == "off"
        assert parse_trace(" FULL ") == "full"
        assert parse_trace("spans") == "spans"
        with pytest.raises(ValueError) as exc:
            parse_trace("verbose")
        for name in TRACE_DETAILS:
            assert name in str(exc.value)

    def test_recorder_rejects_off(self):
        with pytest.raises(ValueError, match="spans.*full|full.*spans"):
            TraceRecorder(Runtime(num_locales=4), "off")

    def test_age_bucket_is_floor_log2(self):
        assert age_bucket(1.0) == 0
        assert age_bucket(2.0) == 1
        assert age_bucket(3.999) == 1
        assert age_bucket(0.5) == -1
        assert age_bucket(1e-6) == math.floor(math.log2(1e-6))
        # Non-positive ages clamp into the lowest bucket, below every
        # representable positive float's exponent.
        assert age_bucket(0.0) == -1075
        assert age_bucket(-1.0) == -1075
        assert age_bucket(5e-324) >= -1075

    def test_events_merge_by_time_locale_seq(self):
        tr = TraceRecorder(Runtime(num_locales=3), "spans")
        # Emit out of order across locales (no task context -> locale 0
        # for span(); drive _emit directly for the cross-locale case).
        tr._emit(2, 5.0, "span", {"name": "c", "t1": 6.0})
        tr._emit(0, 5.0, "span", {"name": "a", "t1": 6.0})
        tr._emit(1, 1.0, "span", {"name": "b", "t1": 2.0})
        tr._emit(0, 5.0, "span", {"name": "a2", "t1": 7.0})
        evs = tr.events()
        assert [e["name"] for e in evs] == ["b", "a", "a2", "c"]
        assert [e["seq"] for e in evs] == [0, 0, 1, 0]
        assert tr.event_count() == 4

    def test_unit_ids_are_stable_small_ints(self):
        tr = TraceRecorder(Runtime(num_locales=1), "full")
        a, b = object(), object()
        assert tr.unit_id(a) == 0
        assert tr.unit_id(b) == 1
        assert tr.unit_id(a) == 0


# ----------------------------------------------------------------------
# zero-cost off
# ----------------------------------------------------------------------
class TestTraceOff:
    def test_default_installs_no_recorder(self, rt):
        assert rt._tracer is None
        assert rt._full_tracer is None
        for nic in rt.network.nic:
            assert nic._tracer is None

    def test_config_validates_trace(self):
        cfg = RuntimeConfig(num_locales=2, trace="SPANS")
        assert cfg.trace == "spans"
        with pytest.raises(ValueError, match="trace detail"):
            RuntimeConfig(num_locales=2, trace="everything")

    def test_topology_spec_omits_off_trace(self):
        spec = get_scenario(CHEAP)
        assert "trace" not in spec.topology.as_dict()
        traced = spec.with_topology(trace="full")
        assert traced.topology.as_dict()["trace"] == "full"


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("detail", ["spans", "full"])
    def test_repeats_replay_identical_streams(self, detail):
        # run_scenario itself raises if any repeat's stream differs.
        run = _traced(CHEAP, detail=detail, repeats=2)
        assert run.trace_events

    @pytest.mark.parametrize("detail", ["spans", "full"])
    def test_pool_size_invariance(self, detail):
        reference = _traced(CHEAP, detail=detail)
        for pool in (1, 2, 4, 8):
            run = _traced(CHEAP, detail=detail, pool=pool)
            assert run.result.elapsed == reference.result.elapsed
            assert run.trace_events == reference.trace_events

    @pytest.mark.parametrize(
        "detail, name",
        [("full", UPLINK)]
        + [
            # One scenario per lowered phase; at ``spans`` detail the
            # compiled runs replay, and ``Runtime._forall_tasks`` emits
            # every ``forall`` span, replayed or interpreted.
            ("spans", name)
            for name in (
                "paper-atomic-mix",  # uniform atomic phase
                "hotspot-zipf",  # uniform, 2 tasks per locale
                "paper-reclaim-endonly",  # Listing 5 under EBR
                "reclaim-hotspot-ebr",  # EBR epoch_mixed rounds
                "reclaim-hotspot-hp",  # HP rounds, threshold scans
                UPLINK,  # EBR rounds, shared instances, open window
            )
        ],
    )
    def test_cross_engine_stream_equality(self, detail, name):
        interp = _traced(name, detail=detail, engine="interpreted")
        compiled = _traced(name, detail=detail, engine="compiled")
        # Full detail is the documented interpreter fallback.
        tier = "columnar" if detail == "spans" else "interpreted"
        assert set(compiled.engine["phases"]) == {tier}
        assert compiled.result.elapsed == interp.result.elapsed
        assert compiled.result.comm == interp.result.comm
        assert compiled.trace_events == interp.trace_events


    def test_full_trace_covers_atomic_object_lines(self):
        """AtomicObject lines carry the full tracer like every other
        cell, so a structure scenario's stream includes their serves —
        and stays bit-identical across repeats and pool sizes."""
        runs = [
            _traced("queue-churn", pool=pool, ops_scale=0.0625, repeats=2)
            for pool in (1, 4)
        ]
        assert runs[0].trace_events == runs[1].trace_events
        points = {
            ev["point"] for ev in runs[0].trace_events if ev["kind"] == "serve"
        }
        assert {"queue.head", "queue.tail"} <= points
        assert any(p.startswith("atomicobject@") for p in points)


# ----------------------------------------------------------------------
# non-interference + export
# ----------------------------------------------------------------------
class TestNonInterference:
    def test_full_trace_matches_shipped_baseline(self):
        """Tracing observes the machine; it must never change it."""
        base = load_baselines(BASELINES)[CHEAP]
        run = _traced(CHEAP, detail="full", ops_scale=1.0)
        assert run.result.elapsed == base["elapsed_virtual_s"]
        assert run.result.operations == base["operations"]
        assert run.result.comm == base["comm"]

    def test_extra_obs_jsonable_round_trip(self):
        run = _traced(UPLINK, detail="full")
        entry = run.report_entry()
        obs = entry["extra"]["obs"]
        # The whole entry must survive a JSON round trip unchanged.
        assert json.loads(json.dumps(entry)) == entry
        assert obs["detail"] == "full"
        assert obs["events"] == len(run.trace_events)
        assert obs["kinds"]["serve"] > 0
        assert obs["points"]  # per-ServicePoint timelines
        for rec in obs["points"].values():
            assert 0.0 <= rec["utilization"] <= 1.0
        # The uplink scenario batches class-3 crossings and recovers
        # exact limbo ages from retire/drain pairing.
        assert obs["dclass_crossings"]
        assert obs["batch_occupancy"]
        assert obs["limbo_age"]["count"] > 0
        assert obs["limbo_age"]["buckets"]

    def test_spans_detail_keeps_registry_light(self):
        run = _traced(CHEAP, detail="spans")
        reg = MetricsRegistry.from_events(run.trace_events, "spans")
        d = reg.as_dict()
        assert d["kinds"].get("serve", 0) == 0
        assert d["kinds"].get("op", 0) == 0
        assert d["spans"]["timed"]["count"] == 1
        assert d["spans"]["forall"]["count"] >= 1

    def test_chrome_trace_schema(self, tmp_path):
        run = _traced(UPLINK, detail="full")
        doc = to_chrome_trace(run.trace_events, label="t")
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["clock"] == "virtual"
        evs = doc["traceEvents"]
        assert evs
        names = set()
        for ev in evs:
            assert ev["ph"] in ("X", "C", "i", "M")
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            if ev["ph"] == "M":
                names.add(ev["args"]["name"])
                continue
            assert ev["ts"] >= 0.0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0
        # One track per locale plus one per uplink ServicePoint.
        for l in range(run.spec.topology.locales):
            assert f"locale {l}" in names
        assert any("uplink" in n for n in names)
        # write_trace picks the format from the suffix.
        p_json = tmp_path / "t.json"
        p_jsonl = tmp_path / "t.jsonl"
        assert write_trace(str(p_json), run.trace_events, label="t") == "chrome"
        assert write_trace(str(p_jsonl), run.trace_events, label="t") == "jsonl"
        assert json.loads(p_json.read_text())["traceEvents"]
        lines = p_jsonl.read_text().splitlines()
        assert [json.loads(l) for l in lines] == run.trace_events
        assert to_jsonl(run.trace_events).splitlines() == lines

    def test_progress_suffix_renders_reclaimer_blocks(self):
        extra = {
            "em": {
                "retired": 10,
                "freed": 8,
                "peak_pending": 5,
                "scan_batches": 2,
                "uplink_crossings": 3,
                "advances": 1,
                "policy_deferrals": 4,
                "window": 2,
            }
        }
        s = progress_suffix(extra, reclaimer="ebr", policy="threshold:64")
        assert " [ebr: retired=10 freed=8 peak=5]" in s
        assert " [agg: batches=2 crossings=3]" in s
        assert " [policy: advances=1 deferrals=4 window=2]" in s
        # fixed policy omits the policy block; no stats -> no suffix.
        assert "policy" not in progress_suffix(
            extra, reclaimer="ebr", policy="fixed"
        )
        assert progress_suffix({}, reclaimer="ebr", policy="fixed") == ""


# ----------------------------------------------------------------------
# policy facts (the EpochFacts satellite)
# ----------------------------------------------------------------------
class _RecordingThreshold(ThresholdEpochPolicy):
    """A stock threshold policy that remembers the facts it decided on."""

    def __init__(self, n):
        super().__init__(n)
        self.seen = []

    def decide(self, facts):
        self.seen.append(facts)
        return super().decide(facts)


class TestEpochFacts:
    def test_facts_fields_default_and_round_trip(self):
        facts = EpochFacts(now=1.0, pending=(3, 4), last_pin=None)
        assert facts.crossings == ()
        assert facts.oldest_retire is None
        assert facts.oldest_age is None
        rich = EpochFacts(
            now=2.0,
            pending=(1,),
            last_pin=None,
            crossings=(0, 0, 0, 5),
            oldest_retire=0.5,
        )
        assert rich.oldest_age == 1.5
        d = rich.as_dict()
        assert d["crossings"] == [0, 0, 0, 5]
        assert d["oldest_retire"] == 0.5
        assert json.loads(json.dumps(d)) == d

    def test_threshold_policy_reads_crossings_and_ages(self):
        """End to end: uplink crossings and limbo ages reach the facts a
        stock threshold policy decides on — same decisions, richer view."""
        from repro.runtime.context import current_context

        cfg = RuntimeConfig(
            num_locales=8,
            topology="hier:2x2",
            aggregation=4,
            trace="full",  # installs age tracking without a policy ask
        )
        rt = Runtime(config=cfg)
        policy = _RecordingThreshold(1)  # pending >= 1 always advances

        def main():
            em = EpochManager(rt)
            em.policy = policy
            with em.register() as tok:
                t_pin = None
                for _round in range(2):
                    tok.pin()
                    if t_pin is None:
                        t_pin = current_context().now
                    for lid in range(rt.num_locales):
                        tok.defer_delete(rt.new_obj(lid, locale=lid))
                    tok.unpin()
                    assert em.try_reclaim()
            em.destroy()
            return t_pin

        t_pin = rt.run(main)
        assert len(policy.seen) == 2, "the policy gate did not run twice"
        first, second = policy.seen
        # Limbo-age facts: the oldest outstanding retire is the very first
        # one (EBR frees two advances later, so it is still pending), and
        # it happened after the round-1 pin but before the decision.
        assert first.oldest_retire is not None
        assert t_pin < first.oldest_retire < first.now
        assert second.oldest_retire == first.oldest_retire
        assert second.oldest_age == second.now - second.oldest_retire
        assert second.oldest_age > 0.0
        assert sum(first.pending) == rt.num_locales
        # The first advance's domain-ordered scan and remote drains ride
        # the shared node uplinks, so the second decision sees per-class
        # crossing counts (the batched class is the last one).
        assert first.crossings == ()
        assert second.crossings and second.crossings[-1] > 0
        assert second.as_dict()["crossings"] == list(second.crossings)

    def test_policy_decisions_land_in_trace(self):
        run = _traced("policy-sweep-hier-threshold", detail="spans",
                      ops_scale=0.25)
        decisions = [e for e in run.trace_events if e["kind"] == "policy"]
        assert decisions, "no policy events in the stream"
        for ev in decisions:
            assert ev["policy"] == "threshold"
            assert ev["decision"] in ("advance", "defer")
            facts = ev["facts"]
            assert set(facts) >= {
                "now", "pending", "last_pin", "crossings", "oldest_retire"
            }
        reg = MetricsRegistry.from_events(run.trace_events, "spans")
        assert reg.policy["deferrals"] == sum(
            1 for e in decisions if e["decision"] == "defer"
        )
