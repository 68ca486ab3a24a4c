"""Tests for the FLARE UE plugin and its client-info protocol."""

import pickle

import pytest

from repro.core.plugin import ClientInfo, FlarePlugin
from repro.has.mpd import SIMULATION_LADDER


class TestClientInfo:
    def test_default_allows_full_ladder(self):
        info = ClientInfo(flow_id=1,
                          ladder_rates_bps=SIMULATION_LADDER.rates_bps)
        assert info.max_index(SIMULATION_LADDER) == 5

    def test_bitrate_cap(self):
        info = ClientInfo(flow_id=1,
                          ladder_rates_bps=SIMULATION_LADDER.rates_bps,
                          max_bitrate_bps=1.0e6)
        assert info.max_index(SIMULATION_LADDER) == 3

    def test_skimming_forces_minimum(self):
        info = ClientInfo(flow_id=1,
                          ladder_rates_bps=SIMULATION_LADDER.rates_bps,
                          max_bitrate_bps=2.0e6, skimming=True)
        assert info.max_index(SIMULATION_LADDER) == 0


class TestFlarePlugin:
    def test_client_info_carries_only_ladder_and_hints(self):
        plugin = FlarePlugin(3, SIMULATION_LADDER, max_bitrate_bps=1e6)
        info = plugin.client_info()
        assert info.flow_id == 3
        assert info.ladder_rates_bps == SIMULATION_LADDER.rates_bps
        assert info.max_bitrate_bps == 1e6
        assert not info.skimming
        # Privacy: the message type has no other payload fields.
        assert set(info.__dataclass_fields__) == {
            "flow_id", "ladder_rates_bps", "max_bitrate_bps", "skimming"}

    def test_assignment_roundtrip(self):
        plugin = FlarePlugin(3, SIMULATION_LADDER)
        assert plugin.assigned_index is None
        plugin.assign(4)
        assert plugin.assigned_index == 4
        plugin.assign(2)
        assert plugin.assigned_index == 2

    def test_state_does_not_grow_with_assignments(self):
        # A plugin crosses shards inside every handover blob, so its
        # size must not depend on how many BAIs it has been through.
        plugin = FlarePlugin(3, SIMULATION_LADDER)
        plugin.assign(1)
        once = len(pickle.dumps(plugin))
        for k in range(98):
            plugin.assign(k % 6)
        plugin.assign(1)
        assert len(pickle.dumps(plugin)) == once

    def test_assignment_clamped(self):
        plugin = FlarePlugin(3, SIMULATION_LADDER)
        plugin.assign(42)
        assert plugin.assigned_index == 5

    def test_preference_updates(self):
        plugin = FlarePlugin(3, SIMULATION_LADDER)
        plugin.set_max_bitrate(0.5e6)
        assert plugin.client_info().max_bitrate_bps == 0.5e6
        plugin.set_max_bitrate(None)
        assert plugin.client_info().max_bitrate_bps is None
        plugin.set_skimming(True)
        assert plugin.client_info().skimming

    @pytest.mark.parametrize("cap, skimming", [
        (None, False), (1.0e6, False), (50e3, False), (2.0e6, True)])
    def test_max_index_is_the_disclosed_one(self, cap, skimming):
        plugin = FlarePlugin(3, SIMULATION_LADDER, max_bitrate_bps=cap,
                             skimming=skimming)
        assert (plugin.max_index()
                == plugin.client_info().max_index(SIMULATION_LADDER))

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            FlarePlugin(3, SIMULATION_LADDER, max_bitrate_bps=0.0)
        plugin = FlarePlugin(3, SIMULATION_LADDER)
        with pytest.raises(ValueError):
            plugin.set_max_bitrate(-1.0)
