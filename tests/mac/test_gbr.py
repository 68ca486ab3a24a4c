"""Tests for GBR/MBR bearer management."""

import math

import pytest

from repro.mac.gbr import BearerQos, BearerRegistry
from repro.obs.events import GBR_UPDATE
from repro.obs.tracer import tracing


class TestBearerQos:
    def test_defaults_best_effort(self):
        qos = BearerQos()
        assert not qos.is_gbr
        assert qos.mbr_bps is None

    def test_is_gbr(self):
        assert BearerQos(gbr_bps=1e6).is_gbr

    def test_mbr_below_gbr_rejected(self):
        with pytest.raises(ValueError):
            BearerQos(gbr_bps=2e6, mbr_bps=1e6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BearerQos(gbr_bps=-1.0)


class TestBearerRegistry:
    def test_register_and_lookup(self):
        registry = BearerRegistry()
        registry.register(1, BearerQos(gbr_bps=5e5))
        assert registry.qos(1).gbr_bps == 5e5

    def test_unknown_flow_is_best_effort(self):
        registry = BearerRegistry()
        registry.register(1, BearerQos(gbr_bps=5e5))
        default = registry.qos(42)
        assert not default.is_gbr
        assert default.mbr_bps is None
        # A fresh default per call: changing one changes no other.
        default.gbr_bps = 1e6
        assert not registry.qos(42).is_gbr
        assert registry.qos(1).gbr_bps == 5e5

    def test_double_register_rejected(self):
        registry = BearerRegistry()
        registry.register(1)
        with pytest.raises(ValueError):
            registry.register(1)

    def test_update_gbr_requires_registration(self):
        registry = BearerRegistry()
        with pytest.raises(KeyError):
            registry.update_gbr(9, 1e6)

    def test_continuous_update(self):
        registry = BearerRegistry()
        registry.register(1)
        registry.update_gbr(1, 1e6, time_s=10.0)
        assert registry.qos(1).gbr_bps == 1e6
        registry.update_gbr(1, 2e6, mbr_bps=3e6, time_s=12.0)
        assert registry.qos(1).gbr_bps == 2e6
        assert registry.qos(1).mbr_bps == 3e6

    def test_unchanged_update_keeps_bearer_and_version(self):
        registry = BearerRegistry()
        registry.register(1, BearerQos(gbr_bps=1e6, mbr_bps=4e6))
        bearer = registry.qos(1)
        version = registry.version
        with tracing(ring=8) as tracer:
            registry.update_gbr(1, 1e6, time_s=2.0)
            registry.update_gbr(1, 1e6, mbr_bps=4e6, time_s=4.0)
            events = tracer.ring().of_type(GBR_UPDATE)
        assert registry.qos(1) is bearer
        assert registry.version == version
        # The Continuous GBR Updater still reports every update.
        assert [event["t"] for event in events] == [2.0, 4.0]
        registry.update_gbr(1, 2e6)
        assert registry.version == version + 1
        registry.update_gbr(1, 2e6, mbr_bps=5e6)
        assert registry.version == version + 2
        assert registry.qos(1).mbr_bps == 5e6

    def test_update_preserves_mbr_when_omitted(self):
        registry = BearerRegistry()
        registry.register(1, BearerQos(gbr_bps=1e6, mbr_bps=4e6))
        registry.update_gbr(1, 2e6)
        assert registry.qos(1).mbr_bps == 4e6

    def test_gbr_bytes_for_step(self):
        registry = BearerRegistry()
        registry.register(1, BearerQos(gbr_bps=8e6))
        # 8 Mbps over 10 ms = 10 KB
        assert registry.gbr_bytes_for_step(1, 0.01) == pytest.approx(10000.0)

    def test_mbr_bytes_unlimited(self):
        registry = BearerRegistry()
        registry.register(1)
        assert math.isinf(registry.mbr_bytes_for_step(1, 0.01))

    def test_mbr_bytes_capped(self):
        registry = BearerRegistry()
        registry.register(1, BearerQos(gbr_bps=0.0, mbr_bps=8e5))
        assert registry.mbr_bytes_for_step(1, 0.1) == pytest.approx(10000.0)

    def test_gbr_flows_sorted_by_priority(self):
        registry = BearerRegistry()
        registry.register(1, BearerQos(gbr_bps=1e6, priority=5))
        registry.register(2, BearerQos(gbr_bps=1e6, priority=1))
        registry.register(3)  # best effort: excluded
        assert [fid for fid, _ in registry.gbr_flows()] == [2, 1]

    def test_deregister(self):
        registry = BearerRegistry()
        registry.register(1, BearerQos(gbr_bps=1e6))
        registry.deregister(1)
        assert not registry.qos(1).is_gbr
        registry.register(1)  # can re-register after removal
