"""Unit tests for the cost model and runtime configuration."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.comm.costs import DEFAULT_COSTS
from repro.errors import LocaleError
from repro.runtime.config import NetworkType, RuntimeConfig


class TestCostModel:
    def test_defaults_encode_the_papers_ordering(self):
        """cpu atomic << NIC atomic << active message."""
        c = DEFAULT_COSTS
        assert c.cpu_atomic_latency < c.nic_atomic_local_latency
        assert c.nic_atomic_local_latency < c.nic_atomic_remote_latency
        assert c.nic_atomic_remote_latency < 2 * c.am_latency

    def test_ugni_local_penalty_is_about_an_order_of_magnitude(self):
        """The paper measures NIC-local atomics ~10x over CPU atomics."""
        c = DEFAULT_COSTS
        ratio = c.nic_atomic_local_latency / c.cpu_atomic_latency
        assert 5 <= ratio <= 30

    def test_dcas_costs_more_than_single_word(self):
        assert DEFAULT_COSTS.cpu_dcas_latency > DEFAULT_COSTS.cpu_atomic_latency

    def test_bulk_free_is_cheaper_than_individual_frees(self):
        c = DEFAULT_COSTS
        assert c.bulk_free_per_object < c.free_latency

    def test_scaled_multiplies_every_field(self):
        c = DEFAULT_COSTS.scaled(2.0)
        assert c.cpu_atomic_latency == 2 * DEFAULT_COSTS.cpu_atomic_latency
        assert c.am_latency == 2 * DEFAULT_COSTS.am_latency
        assert c.rdma_byte_cost == 2 * DEFAULT_COSTS.rdma_byte_cost

    def test_with_overrides_replaces_only_named_fields(self):
        c = DEFAULT_COSTS.with_overrides(am_latency=1.0)
        assert c.am_latency == 1.0
        assert c.cpu_atomic_latency == DEFAULT_COSTS.cpu_atomic_latency

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COSTS.am_latency = 0.0  # type: ignore[misc]


class TestNetworkType:
    def test_parse_strings(self):
        assert NetworkType.parse("ugni") is NetworkType.UGNI
        assert NetworkType.parse("none") is NetworkType.NONE
        assert NetworkType.parse("UGNI") is NetworkType.UGNI

    def test_parse_enum_passthrough(self):
        assert NetworkType.parse(NetworkType.NONE) is NetworkType.NONE

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            NetworkType.parse("infiniband-magic")


class TestRuntimeConfig:
    def test_defaults(self):
        cfg = RuntimeConfig()
        assert cfg.num_locales == 4
        assert cfg.network is NetworkType.UGNI
        assert cfg.uses_network_atomics

    def test_string_network_is_normalized(self):
        cfg = RuntimeConfig(network="none")
        assert cfg.network is NetworkType.NONE
        assert not cfg.uses_network_atomics

    def test_rejects_zero_locales(self):
        with pytest.raises(LocaleError):
            RuntimeConfig(num_locales=0)

    def test_rejects_zero_tasks_per_locale(self):
        with pytest.raises(ValueError):
            RuntimeConfig(tasks_per_locale=0)

    def test_with_creates_modified_copy(self):
        cfg = RuntimeConfig()
        cfg2 = replace(cfg, num_locales=8)
        assert cfg2.num_locales == 8
        assert cfg.num_locales == 4

    def test_frozen(self):
        cfg = RuntimeConfig()
        with pytest.raises(Exception):
            cfg.num_locales = 8  # type: ignore[misc]


class TestOneParsePerAxis:
    """``RuntimeConfig`` is the machine's one parser: building a runtime,
    from keywords or from a config, parses the network and the trace
    detail exactly once each."""

    @pytest.fixture
    def parses(self, monkeypatch):
        import repro.obs.recorder as recorder_mod
        import repro.runtime.config as config_mod

        counts = {"network": 0, "trace": 0}
        parse_network = NetworkType.parse.__func__
        parse_trace = config_mod.parse_trace

        def counted_network(cls, value):
            counts["network"] += 1
            return parse_network(cls, value)

        def counted_trace(value):
            counts["trace"] += 1
            return parse_trace(value)

        monkeypatch.setattr(NetworkType, "parse", classmethod(counted_network))
        monkeypatch.setattr(config_mod, "parse_trace", counted_trace)
        monkeypatch.setattr(recorder_mod, "parse_trace", counted_trace)
        return counts

    def test_keyword_runtime_parses_each_axis_once(self, parses):
        from repro.runtime import Runtime

        with Runtime(num_locales=2, network="none") as rt:
            assert rt.config.network is NetworkType.NONE
        assert parses == {"network": 1, "trace": 1}

    @pytest.mark.parametrize("trace", ["off", "spans", "full"])
    def test_config_runtime_parses_each_axis_once(self, parses, trace):
        from repro.runtime import Runtime

        config = RuntimeConfig(num_locales=2, network="ugni", trace=trace.upper())
        with Runtime(config=config) as rt:
            assert rt.config.trace == trace
            assert (rt._tracer is None) == (trace == "off")
        assert parses == {"network": 1, "trace": 1}
