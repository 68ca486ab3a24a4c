"""Tests for the PCRF model and the PCEF's GBR set."""

import pytest

from repro.abr.base import ConstantAbr
from repro.has.mpd import SIMULATION_LADDER, MediaPresentation
from repro.net.flows import DataFlow, FlowKind, UserEquipment, VideoFlow
from repro.net.pcrf import Pcrf
from repro.phy.channel import StaticItbsChannel
from repro.sim.cell import Cell


def make_ue():
    return UserEquipment(StaticItbsChannel(9))


class TestPcrf:
    def test_flow_counts_per_cell(self):
        pcrf = Pcrf()
        video = VideoFlow(make_ue())
        data1, data2 = DataFlow(make_ue()), DataFlow(make_ue())
        pcrf.register_flow(video, cell_id=0)
        pcrf.register_flow(data1, cell_id=0)
        pcrf.register_flow(data2, cell_id=1)
        assert pcrf.num_video_flows(0) == 1
        assert pcrf.num_data_flows(0) == 1
        assert pcrf.num_data_flows(1) == 1
        assert pcrf.num_data_flows(2) == 0

    def test_session_metadata(self):
        pcrf = Pcrf()
        flow = VideoFlow(make_ue())
        session = pcrf.register_flow(flow, cell_id=3)
        assert session.kind is FlowKind.VIDEO
        assert session.cell_id == 3
        assert session.ue_id == flow.ue.ue_id

    def test_duplicate_rejected(self):
        pcrf = Pcrf()
        flow = DataFlow(make_ue())
        pcrf.register_flow(flow, 0)
        with pytest.raises(ValueError):
            pcrf.register_flow(flow, 0)

    def test_deregister(self):
        pcrf = Pcrf()
        flow = DataFlow(make_ue())
        pcrf.register_flow(flow, 0)
        pcrf.deregister_flow(flow.flow_id)
        assert pcrf.num_data_flows(0) == 0
        pcrf.deregister_flow(flow.flow_id)  # idempotent

    def test_kind_filter(self):
        pcrf = Pcrf()
        video = VideoFlow(make_ue())
        data = DataFlow(make_ue())
        pcrf.register_flow(video, 0)
        pcrf.register_flow(data, 0)
        sessions = pcrf.sessions_in_cell(0, FlowKind.VIDEO)
        assert [s.flow_id for s in sessions] == [video.flow_id]


class TestPcef:
    """The PCEF's GBR set is the cell's Continuous GBR Updater."""

    def test_enforcement_updates_bearer(self):
        cell = Cell()
        player = cell.add_video_flow(
            make_ue(), MediaPresentation(SIMULATION_LADDER), ConstantAbr(0))
        flow_id = player.flow.flow_id
        assert cell.pcrf.num_video_flows(cell.cell_id) == 1
        cell.registry.update_gbr(flow_id, 2e6, time_s=10.0)
        assert cell.registry.qos(flow_id).gbr_bps == 2e6

    def test_enforce_unknown_flow_raises(self):
        cell = Cell()
        flow = cell.add_data_flow(make_ue())
        cell.remove_flow(flow.flow_id)
        assert cell.pcrf.num_data_flows(cell.cell_id) == 0
        with pytest.raises(KeyError):
            cell.registry.update_gbr(flow.flow_id, 1e6)
