"""Failure-injection tests: radio outages and control-plane failures.

A production-quality HAS stack must degrade gracefully, not crash,
when a UE drops out of coverage (CQI 0) or when the OneAPI server
stops responding.  These tests inject both faults.
"""

import pytest

from repro.abr.base import ConstantAbr
from repro.core.controller import FlareSystem
from repro.has.mpd import SIMULATION_LADDER, MediaPresentation
from repro.has.player import PlaybackState, PlayerConfig
from repro.net.flows import UserEquipment
from repro.phy.channel import OutageChannel, StaticItbsChannel
from repro.sim.cell import Cell, CellConfig


def make_mpd(segment_s=4.0):
    return MediaPresentation(SIMULATION_LADDER, segment_duration_s=segment_s)


class TestOutageChannel:
    def test_wrapping(self):
        channel = OutageChannel(StaticItbsChannel(15), [(10.0, 20.0)])
        assert channel.bytes_per_prb_at(5.0) == 35.0
        assert channel.bytes_per_prb_at(15.0) == 0.0
        assert channel.bytes_per_prb_at(25.0) == 35.0
        assert channel.in_outage(10.0)
        assert not channel.in_outage(20.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            OutageChannel(StaticItbsChannel(15), [(5.0, 5.0)])


class TestRadioBlackout:
    def _run_with_outage(self, outage=(30.0, 50.0), duration=120.0):
        cell = Cell(CellConfig(step_s=0.02))
        channel = OutageChannel(StaticItbsChannel(15), [outage])
        player = cell.add_video_flow(
            UserEquipment(channel), make_mpd(), ConstantAbr(3),
            PlayerConfig(request_threshold_s=8.0))
        cell.run(duration)
        return player

    def test_player_stalls_and_recovers(self):
        player = self._run_with_outage()
        # The 20 s blackout exceeds the ~8 s buffer: a stall happens...
        assert player.stall_events >= 1
        assert player.rebuffer_time_s > 5.0
        # ...and playback resumes and keeps streaming afterwards.
        assert player.state is PlaybackState.PLAYING
        late = [r for r in player.log.records if r.finish_time_s > 60.0]
        assert len(late) > 3

    def test_no_bytes_delivered_during_outage(self):
        player = self._run_with_outage()
        during = [r for r in player.log.records
                  if 31.0 <= r.finish_time_s <= 49.0]
        assert during == []


class TestFlareUnderOutage:
    def test_flare_cell_survives_client_blackout(self):
        cell = Cell(CellConfig(step_s=0.02))
        flare = FlareSystem(delta=1, bai_s=2.0)
        flare.install(cell)
        healthy_ue = UserEquipment(StaticItbsChannel(15))
        blackout_ue = UserEquipment(
            OutageChannel(StaticItbsChannel(15), [(30.0, 60.0)]))
        mpd = make_mpd()
        healthy = flare.attach_client(cell, healthy_ue, mpd,
                                      PlayerConfig(request_threshold_s=12.0))
        victim = flare.attach_client(cell, blackout_ue, mpd,
                                     PlayerConfig(request_threshold_s=12.0))
        cell.run(150.0)
        # The healthy client is unharmed by its neighbour's outage.
        assert healthy.rebuffer_time_s == pytest.approx(0.0, abs=0.5)
        # The victim streams again after coverage returns.
        post = [r for r in victim.log.records if r.finish_time_s > 70.0]
        assert len(post) > 3
        # The OneAPI server kept running BAIs throughout (no crash on
        # the zero-bytes-per-PRB cost fallback).
        assert len(flare.server.records) >= 70


class TestControlPlaneFailure:
    def test_oneapi_outage_freezes_assignments_but_streaming_continues(self):
        cell = Cell(CellConfig(step_s=0.02))
        flare = FlareSystem(delta=1, bai_s=2.0)
        flare.install(cell)
        mpd = make_mpd()
        player = flare.attach_client(
            cell, UserEquipment(StaticItbsChannel(15)), mpd,
            PlayerConfig(request_threshold_s=12.0))
        cell.run(60.0)
        records_before = flare.server.records
        assert records_before
        plugin = flare.plugin_for(player.flow.flow_id)
        index_before = plugin.assigned_index
        assert index_before is not None

        # The OneAPI server dies at t = 60 s.
        cell.remove_controller(flare.server)
        cell.run(120.0)

        # No new assignments arrived...
        assert flare.server.records == records_before
        assert plugin.assigned_index == index_before
        # ...but the player keeps streaming at the last assigned rate
        # without stalling (GBR remains programmed at the MAC).
        assert player.rebuffer_time_s == pytest.approx(0.0, abs=0.5)
        late = [r for r in player.log.records if r.finish_time_s > 90.0]
        assert late
        assert all(r.bitrate_bps == SIMULATION_LADDER.rate(
            plugin.assigned_index) for r in late)
