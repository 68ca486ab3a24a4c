"""Tests for the cell orchestrator."""

import pytest

from repro.abr.base import ConstantAbr
from repro.core.controller import FlareSystem
from repro.has.mpd import SIMULATION_LADDER, MediaPresentation
from repro.has.player import PlayerConfig
from repro.net.flows import UserEquipment
from repro.phy.channel import StaticItbsChannel
from repro.sim.cell import Cell, CellConfig
from repro.workload.handover import HandoverManager


def make_ue(itbs=15):
    return UserEquipment(StaticItbsChannel(itbs))


def make_mpd(segment_s=4.0):
    return MediaPresentation(SIMULATION_LADDER, segment_duration_s=segment_s)


class RecordingController:
    """Interval controller that records invocation times."""

    def __init__(self, interval_s=1.0):
        self.interval_s = interval_s
        self.calls = []

    def on_interval(self, now_s, cell):
        self.calls.append(now_s)


class TestCellConfig:
    def test_prbs_per_step(self):
        config = CellConfig(prb_per_tti=50, tti_s=0.001, step_s=0.02)
        assert config.prbs_per_step == pytest.approx(1000.0)

    def test_step_below_tti_rejected(self):
        with pytest.raises(ValueError):
            CellConfig(step_s=0.0001, tti_s=0.001)

    def test_sub_tti_step_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            CellConfig(step_s=0.0125)


class TestTopology:
    def test_add_flows(self):
        cell = Cell()
        player = cell.add_video_flow(make_ue(), make_mpd(), ConstantAbr(0))
        data = cell.add_data_flow(make_ue())
        assert cell.video_flows() == [player.flow]
        assert cell.data_flows() == [data]
        assert cell.pcrf.num_data_flows(cell.cell_id) == 1
        assert cell.player_for(player.flow.flow_id) is player
        assert cell.ladder_for_flow(player.flow.flow_id) is SIMULATION_LADDER
        assert cell.ladder_for_flow(data.flow_id) is None

    def test_remove_flow(self):
        cell = Cell()
        player = cell.add_video_flow(make_ue(), make_mpd(), ConstantAbr(0))
        cell.remove_flow(player.flow.flow_id)
        assert cell.video_flows() == []
        assert cell.pcrf.num_video_flows(cell.cell_id) == 0


class TestFlowReturn:
    """A flow that leaves takes its per-cell MAC state with it."""

    @pytest.mark.parametrize("leave_s, return_s, report_s", [
        (4.0, 5.0, 6.0),  # the BAI at 4 s runs without the roamer
        (4.3, 4.4, 6.0),  # gone and back between two BAIs
    ])
    def test_returning_flow_starts_afresh(self, leave_s, return_s,
                                          report_s):
        cell = Cell(CellConfig(step_s=0.02))
        flare = FlareSystem()
        flare.install(cell)
        config = PlayerConfig(request_threshold_s=12.0)
        flare.attach_client(cell, make_ue(), make_mpd(), config)
        roamer = flare.attach_client(cell, make_ue(), make_mpd(), config)
        flow_id = roamer.flow.flow_id
        reports = {}
        consume = cell.consume_usage_report

        def spy(consumer):
            report = consume(consumer)
            if consumer is flare.server:
                reports[cell.now_s] = (report.get(flow_id),
                                       roamer.flow.total_delivered_bytes)
            return report

        cell.consume_usage_report = spy
        manager = HandoverManager()
        cell.run(leave_s)
        averages = cell.scheduler.pf._avg_rate_bps
        assert averages[flow_id] > 0
        total_prbs = cell.trace.total_cumulative_prbs()

        plugin = manager.detach(roamer, cell, flare)
        assert flow_id not in averages
        assert cell.trace.cumulative(flow_id) == (0.0, 0.0)
        assert cell.trace.total_cumulative_prbs() == pytest.approx(total_prbs)
        cell.run(return_s)
        manager.attach(roamer, plugin, cell, flare)
        assert flow_id not in averages
        delivered_on_return = roamer.flow.total_delivered_bytes
        cell.run(report_s + 0.5)

        # The server's report counts the second visit only.
        usage, delivered = reports[report_s]
        assert usage.bytes_tx > 0
        assert usage.bytes_tx == pytest.approx(
            delivered - delivered_on_return)
        assert usage.prbs <= cell.prbs_per_second() * (report_s - return_s)
        assert cell.trace.total_cumulative_prbs() > total_prbs


class TestControllers:
    def test_interval_firing(self):
        cell = Cell(CellConfig(step_s=0.02))
        controller = RecordingController(interval_s=1.0)
        cell.add_controller(controller)
        cell.run(5.0)
        assert controller.calls == [1.0, 2.0, 3.0, 4.0]

    def test_sub_tti_interval_rejected(self):
        cell = Cell(CellConfig(step_s=0.02))
        with pytest.raises(ValueError, match="whole number"):
            cell.add_controller(RecordingController(interval_s=0.0005))
        with pytest.raises(ValueError, match="whole number"):
            cell.add_controller(RecordingController(interval_s=1.0),
                                first_fire_s=0.0305)

    def test_first_fire_override(self):
        cell = Cell(CellConfig(step_s=0.02))
        controller = RecordingController(interval_s=10.0)
        cell.add_controller(controller, first_fire_s=0.0)
        cell.run(1.0)
        assert controller.calls[0] == pytest.approx(0.0)

    def test_step_hooks(self):
        cell = Cell(CellConfig(step_s=0.5))
        seen = []
        cell.add_step_hook(seen.append)
        cell.run(2.0)
        assert seen == pytest.approx([0.5, 1.0, 1.5, 2.0])


class TestSimulationLoop:
    def test_data_flow_receives_cell_capacity(self):
        cell = Cell(CellConfig(step_s=0.02))
        flow = cell.add_data_flow(make_ue(itbs=15))
        cell.run(10.0)
        # iTbs 15 = 35 B/PRB, 50k PRB/s -> 14 Mbps; TCP ramp costs a
        # little at the start.
        rate = flow.total_delivered_bytes * 8 / 10.0
        assert rate == pytest.approx(14e6, rel=0.1)

    def test_video_player_streams(self):
        cell = Cell(CellConfig(step_s=0.02))
        player = cell.add_video_flow(
            make_ue(), make_mpd(), ConstantAbr(2),
            PlayerConfig(request_threshold_s=12.0))
        cell.run(60.0)
        assert len(player.log) > 5
        assert player.rebuffer_time_s == 0.0

    def test_now_advances(self):
        cell = Cell(CellConfig(step_s=0.5))
        cell.run(3.0)
        assert cell.now_s == pytest.approx(3.0)

    def test_run_stops_at_first_step_reaching_target(self):
        cell = Cell(CellConfig(step_s=0.02))
        cell.run(0.03)
        assert cell.now_s == 0.04

    def test_sub_tti_run_target_rejected(self):
        cell = Cell(CellConfig(step_s=0.02))
        with pytest.raises(ValueError, match="whole number"):
            cell.run(0.0305)

    def test_trace_records_usage(self):
        cell = Cell(CellConfig(step_s=0.02))
        flow = cell.add_data_flow(make_ue())
        cell.run(1.0)
        prbs, total_bytes = cell.trace.cumulative(flow.flow_id)
        assert prbs > 0
        assert total_bytes == pytest.approx(flow.total_delivered_bytes)


class TestUsageReports:
    def test_independent_consumers(self):
        cell = Cell(CellConfig(step_s=0.02))
        flow = cell.add_data_flow(make_ue())
        consumer_a, consumer_b = object(), object()
        cell.run(1.0)
        report_a1 = cell.consume_usage_report(consumer_a)
        cell.run(2.0)
        report_a2 = cell.consume_usage_report(consumer_a)
        report_b = cell.consume_usage_report(consumer_b)
        # b sees everything since the start; a only the second window.
        assert report_b[flow.flow_id].bytes_tx == pytest.approx(
            report_a1[flow.flow_id].bytes_tx
            + report_a2[flow.flow_id].bytes_tx)

    def test_report_matches_delivery(self):
        cell = Cell(CellConfig(step_s=0.02))
        flow = cell.add_data_flow(make_ue())
        consumer = object()
        cell.run(2.0)
        report = cell.consume_usage_report(consumer)
        assert report[flow.flow_id].bytes_tx == pytest.approx(
            flow.total_delivered_bytes)
        assert report[flow.flow_id].duration_s == pytest.approx(2.0)
