"""Edge-case robustness: degenerate configurations must not crash."""

import pytest

from repro.abr.base import ConstantAbr
from repro.core.algorithm1 import Algorithm1
from repro.core.controller import FlareSystem
from repro.core.optimizer import ExactSolver, FlowSpec, ProblemSpec, RelaxedSolver
from repro.has.mpd import BitrateLadder, MediaPresentation
from repro.has.player import PlayerConfig
from repro.net.flows import UserEquipment
from repro.phy.channel import StaticItbsChannel
from repro.sim.cell import Cell, CellConfig

ONE_RUNG = BitrateLadder.from_kbps((500,))


class TestSingleRungLadder:
    def test_solvers_handle_single_choice(self):
        flows = (FlowSpec(flow_id=0, ladder=ONE_RUNG, beta=10.0,
                          theta_bps=0.2e6, rbs_per_bps=1e-3),)
        problem = ProblemSpec(flows=flows, num_data_flows=1, alpha=1.0,
                              total_rbs=10_000.0)
        for solver in (ExactSolver(), RelaxedSolver()):
            solution = solver.solve(problem)
            assert solution.indices == {0: 0}
            assert solution.rates_bps[0] == 500e3

    def test_algorithm1_holds_single_rung(self):
        algorithm = Algorithm1(ExactSolver(), delta=4)
        flows = (FlowSpec(flow_id=0, ladder=ONE_RUNG, beta=10.0,
                          theta_bps=0.2e6, rbs_per_bps=1e-3),)
        problem = ProblemSpec(flows=flows, num_data_flows=0, alpha=1.0,
                              total_rbs=10_000.0)
        for _ in range(5):
            decision = algorithm.run_bai(problem)
        assert decision.indices == {0: 0}

    def test_flare_cell_with_single_rung(self):
        cell = Cell(CellConfig())
        flare = FlareSystem(delta=1)
        flare.install(cell)
        mpd = MediaPresentation(ONE_RUNG, segment_duration_s=4.0)
        player = flare.attach_client(
            cell, UserEquipment(StaticItbsChannel(15)), mpd,
            PlayerConfig(request_threshold_s=12.0))
        cell.run(30.0)
        assert len(player.log) > 3
        assert set(player.log.bitrates()) == {500e3}


class TestEmptyAndIdleCells:
    def test_empty_cell_runs(self):
        cell = Cell(CellConfig(step_s=0.05))
        cell.run(5.0)
        assert cell.now_s == pytest.approx(5.0)

    def test_flare_with_no_clients_runs(self):
        cell = Cell(CellConfig())
        FlareSystem().install(cell)
        cell.run(10.0)

    def test_video_only_no_bandwidth(self):
        # A UE that can never be scheduled (outage from t=0) must not
        # wedge the loop.
        from repro.phy.channel import OutageChannel
        cell = Cell(CellConfig())
        channel = OutageChannel(StaticItbsChannel(15), [(0.0, 1e9)])
        mpd = MediaPresentation(BitrateLadder.from_kbps((100, 500)),
                                segment_duration_s=4.0)
        player = cell.add_video_flow(UserEquipment(channel), mpd,
                                     ConstantAbr(0))
        cell.run(20.0)
        assert len(player.log) == 0
        assert player.startup_delay_s is None


class TestFlowRemovalMidRun:
    def test_departure_frees_capacity(self):
        cell = Cell(CellConfig())
        stayer = cell.add_data_flow(UserEquipment(StaticItbsChannel(15)))
        leaver = cell.add_data_flow(UserEquipment(StaticItbsChannel(15)))
        cell.run(10.0)
        half_share = stayer.total_delivered_bytes
        cell.remove_flow(leaver.flow_id)
        cell.run(20.0)
        second_window = stayer.total_delivered_bytes - half_share
        # Alone in the cell, the stayer roughly doubles its rate.
        assert second_window > 1.6 * half_share

    def test_flare_survives_client_departure(self):
        cell = Cell(CellConfig())
        flare = FlareSystem(delta=1)
        flare.install(cell)
        mpd = MediaPresentation(BitrateLadder.from_kbps((100, 1000, 3000)),
                                segment_duration_s=4.0)
        players = [flare.attach_client(
            cell, UserEquipment(StaticItbsChannel(15)), mpd,
            PlayerConfig(request_threshold_s=12.0)) for _ in range(2)]
        cell.run(20.0)
        gone = players[0].flow.flow_id
        cell.remove_flow(gone)
        flare.server.deregister_plugin(gone)
        cell.run(60.0)
        last = flare.server.records[-1]
        assert gone not in last.indices
        assert len(players[1].log) > 5


class TestZeroBudgetScheduler:
    def test_zero_prb_budget(self):
        from repro.mac.gbr import BearerRegistry
        from repro.mac.priority_set import PrioritySetScheduler
        from repro.net.flows import DataFlow
        registry = BearerRegistry()
        flow = DataFlow(UserEquipment(StaticItbsChannel(15)))
        registry.register(flow.flow_id)
        grants = PrioritySetScheduler().allocate(0.0, 0.02, [flow], 0.0,
                                                 registry)
        assert grants.get(flow.flow_id) is None or (
            grants[flow.flow_id].prbs == 0.0)
