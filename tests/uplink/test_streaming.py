"""Integration tests for uplink live streaming under FLARE."""

import pytest

from repro.has.mpd import SIMULATION_LADDER
from repro.net.flows import UserEquipment, VideoFlow
from repro.phy.channel import StaticItbsChannel
from repro.sim.cell import Cell, CellConfig
from repro.uplink import (
    FlareUplinkSystem,
    LiveEncoder,
    LocalUplinkAdapter,
    UplinkCellAdapter,
    UplinkStreamer,
)


def make_cell():
    return Cell(CellConfig(step_s=0.02))


class TestStreamerStandalone:
    def test_fixed_rate_upload_pipeline(self):
        cell = make_cell()
        flow = VideoFlow(UserEquipment(StaticItbsChannel(15)))
        cell.register_bare_video_flow(flow, SIMULATION_LADDER)
        encoder = LiveEncoder(SIMULATION_LADDER, segment_duration_s=2.0)
        encoder.set_ladder_index(3)  # 1 Mbps fixed
        streamer = UplinkStreamer(flow, encoder)
        adapter = UplinkCellAdapter()
        adapter.add(streamer)
        adapter.install(cell)
        cell.run(60.0)
        uploaded = encoder.uploaded_segments()
        # 60 s / 2 s cadence, minus pipeline fill.
        assert len(uploaded) >= 27
        assert encoder.dropped_count() == 0
        assert encoder.mean_latency_s() < 2.0

    def test_upload_stamped_with_delivering_step_end(self):
        cell = make_cell()
        flow = VideoFlow(UserEquipment(StaticItbsChannel(15)))
        cell.register_bare_video_flow(flow, SIMULATION_LADDER)
        encoder = LiveEncoder(SIMULATION_LADDER, segment_duration_s=2.0)
        encoder.set_ladder_index(3)
        streamer = UplinkStreamer(flow, encoder)
        adapter = UplinkCellAdapter()
        adapter.add(streamer)
        adapter.install(cell)
        # A hook registered after the adapter's runs at the end of the
        # step that delivered a segment's last byte.
        seen = {}

        def watch(now_s):
            for segment in encoder.uploaded_segments():
                seen.setdefault(segment.index, now_s)

        cell.add_step_hook(watch)
        cell.run(12.0)
        uploaded = encoder.uploaded_segments()
        assert len(uploaded) >= 5
        for segment in uploaded:
            assert segment.uploaded_at_s == seen[segment.index]

    def test_overloaded_encoder_drops_stale_segments(self):
        # Fixed 3 Mbps encoding into a ~1.4 Mbps uplink share.
        cell = make_cell()
        flow = VideoFlow(UserEquipment(StaticItbsChannel(3)))  # weak UL
        cell.register_bare_video_flow(flow, SIMULATION_LADDER)
        encoder = LiveEncoder(SIMULATION_LADDER, segment_duration_s=2.0,
                              max_backlog_segments=3)
        encoder.set_ladder_index(5)  # 3 Mbps, far above capacity
        streamer = UplinkStreamer(flow, encoder)
        adapter = UplinkCellAdapter()
        adapter.add(streamer)
        adapter.install(cell)
        cell.run(60.0)
        assert encoder.dropped_count() > 3


class TestFlareUplink:
    def _run(self, num_streamers=3, itbs=15, duration=120.0):
        cell = make_cell()
        uplink = FlareUplinkSystem(delta=1)
        streamers = [
            uplink.attach_streamer(
                cell, UserEquipment(StaticItbsChannel(itbs)),
                SIMULATION_LADDER, segment_duration_s=2.0)
            for _ in range(num_streamers)
        ]
        uplink.install(cell)
        cell.run(duration)
        return cell, uplink, streamers

    def test_assignments_drive_encoders(self):
        cell, uplink, streamers = self._run()
        for streamer in streamers:
            plugin = uplink.plugin_for(streamer.flow.flow_id)
            assert plugin.assigned_index is not None
            assert (streamer.encoder.current_ladder_index
                    == plugin.assigned_index)

    def test_encoders_climb_to_capacity_without_drops(self):
        cell, uplink, streamers = self._run()
        for streamer in streamers:
            encoder = streamer.encoder
            late = [s for s in encoder.uploaded_segments()
                    if s.produced_at_s > 60.0]
            assert late
            # The good 14 Mbps cell carries 3 streamers at the top rung.
            assert max(s.bitrate_bps for s in late) == 3000e3
            assert encoder.dropped_count() == 0

    def test_weak_cell_settles_below_top_without_drops(self):
        # 2.6 Mbps cell shared by 3 streamers: FLARE must not assign
        # rates the uplink cannot carry — freshness is preserved by
        # rate adaptation instead of drops.
        cell, uplink, streamers = self._run(itbs=5, duration=180.0)
        for streamer in streamers:
            encoder = streamer.encoder
            late = [s for s in encoder.uploaded_segments()
                    if s.produced_at_s > 100.0]
            assert late
            assert max(s.bitrate_bps for s in late) < 3000e3
            drop_fraction = (encoder.dropped_count()
                             / max(len(encoder.segments), 1))
            assert drop_fraction < 0.1

    def test_gbr_enforced_for_streamers(self):
        cell, uplink, streamers = self._run()
        for streamer in streamers:
            qos = cell.registry.qos(streamer.flow.flow_id)
            assert qos.gbr_bps > 0

    def test_double_install_rejected(self):
        cell = make_cell()
        uplink = FlareUplinkSystem()
        uplink.install(cell)
        with pytest.raises(RuntimeError):
            uplink.install(cell)


class TestLocalUplinkAdapter:
    def _run(self, itbs, duration=120.0):
        cell = make_cell()
        flow = VideoFlow(UserEquipment(StaticItbsChannel(itbs)))
        cell.register_bare_video_flow(flow, SIMULATION_LADDER)
        encoder = LiveEncoder(SIMULATION_LADDER, segment_duration_s=2.0)
        streamer = UplinkStreamer(flow, encoder)
        local = LocalUplinkAdapter(streamer)
        adapter = UplinkCellAdapter()
        adapter.add(streamer)
        adapter.install(cell)
        cell.add_step_hook(local.observe)
        cell.run(duration)
        return encoder

    def test_climbs_on_good_uplink(self):
        encoder = self._run(itbs=20)
        late = [s.bitrate_bps for s in encoder.uploaded_segments()
                if s.produced_at_s > 60.0]
        assert max(late) >= 2000e3
        assert encoder.dropped_count() <= 2

    def test_stays_low_on_weak_uplink(self):
        encoder = self._run(itbs=3)  # ~1.3 Mbps cell
        late = [s.bitrate_bps for s in encoder.uploaded_segments()
                if s.produced_at_s > 60.0]
        assert late
        assert max(late) <= 1000e3

    def test_safety_validation(self):
        flow = VideoFlow(UserEquipment(StaticItbsChannel(9)))
        encoder = LiveEncoder(SIMULATION_LADDER)
        streamer = UplinkStreamer(flow, encoder)
        with pytest.raises(ValueError):
            LocalUplinkAdapter(streamer, safety=1.5)
