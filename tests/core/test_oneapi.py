"""Tests for the OneAPI server, integrated with a small cell."""

import pytest

from repro.core.algorithm1 import Algorithm1
from repro.core.controller import FlareSystem, MultiCellOneApi, make_solver
from repro.core.oneapi import OneApiServer
from repro.core.optimizer import ExactSolver, RelaxedSolver
from repro.has.mpd import SIMULATION_LADDER, MediaPresentation
from repro.has.player import PlayerConfig
from repro.net.flows import UserEquipment
from repro.phy.channel import StaticItbsChannel
from repro.sim.cell import Cell, CellConfig


def build_flare_cell(num_video=3, num_data=1, itbs=15, bai_s=2.0,
                     **flare_kwargs):
    cell = Cell(CellConfig())
    flare = FlareSystem(bai_s=bai_s, **flare_kwargs)
    flare.install(cell)
    mpd = MediaPresentation(SIMULATION_LADDER, segment_duration_s=4.0)
    players = [
        flare.attach_client(cell, UserEquipment(StaticItbsChannel(itbs)),
                            mpd, PlayerConfig(request_threshold_s=12.0))
        for _ in range(num_video)
    ]
    data = [cell.add_data_flow(UserEquipment(StaticItbsChannel(itbs)))
            for _ in range(num_data)]
    return cell, flare, players, data


class TestMakeSolver:
    def test_by_name(self):
        assert isinstance(make_solver("exact"), ExactSolver)
        assert isinstance(make_solver("relaxed"), RelaxedSolver)

    def test_passthrough(self):
        solver = ExactSolver()
        assert make_solver(solver) is solver

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_solver("magic")


class TestOneApiServer:
    def test_bai_cadence(self):
        cell, flare, _, _ = build_flare_cell(bai_s=2.0)
        cell.run(10.0)
        records = flare.server.records
        # Controllers fire before each step, so BAIs land at t = 2, 4,
        # 6, 8; the loop exits at t = 10 before a fifth BAI.
        assert len(records) == 4
        times = [r.time_s for r in records]
        assert times == sorted(times)

    def test_assignments_reach_plugins(self):
        cell, flare, players, _ = build_flare_cell()
        cell.run(10.0)
        for player in players:
            plugin = flare.plugin_for(player.flow.flow_id)
            assert plugin.assigned_index is not None

    def test_gbr_enforced_at_mac(self):
        cell, flare, players, _ = build_flare_cell()
        cell.run(10.0)
        for player in players:
            qos = cell.registry.qos(player.flow.flow_id)
            assert qos.gbr_bps > 0
            # GBR equals the assigned ladder rate.
            plugin = flare.plugin_for(player.flow.flow_id)
            assert qos.gbr_bps == pytest.approx(
                SIMULATION_LADDER.rate(plugin.assigned_index))

    def test_enforce_gbr_off_leaves_mac_untouched(self):
        cell, flare, players, _ = build_flare_cell(enforce_gbr=False)
        cell.run(10.0)
        for player in players:
            assert cell.registry.qos(player.flow.flow_id).gbr_bps == 0.0
            plugin = flare.plugin_for(player.flow.flow_id)
            assert plugin.assigned_index is not None  # plugins still fed

    def test_data_flow_count_from_pcrf(self):
        cell, flare, _, _ = build_flare_cell(num_data=3)
        cell.run(4.0)
        assert flare.server.records[-1].num_data_flows == 3

    def test_client_cap_respected_by_assignments(self):
        cell = Cell(CellConfig())
        flare = FlareSystem()
        flare.install(cell)
        mpd = MediaPresentation(SIMULATION_LADDER, segment_duration_s=4.0)
        player = flare.attach_client(
            cell, UserEquipment(StaticItbsChannel(20)), mpd,
            PlayerConfig(request_threshold_s=12.0),
            max_bitrate_bps=0.5e6)
        cell.run(60.0)
        records = flare.server.records
        assert records
        cap_index = SIMULATION_LADDER.highest_at_most(0.5e6)
        assert all(r.indices[player.flow.flow_id] <= cap_index
                   for r in records)

    def test_specs_carry_the_client_and_step_caps(self):
        cell, flare, players, _ = build_flare_cell(num_video=3)
        server = flare.server
        capped, stepped, free = (p.flow.flow_id for p in players)
        server.plugin_for(capped).set_max_bitrate(0.5e6)  # index 2
        server.algorithm.state_of(capped).level = 4
        server.algorithm.state_of(stepped).level = 1
        server.algorithm.state_of(free).level = 5
        problem = server.build_problem(0.0, cell)
        assert {spec.flow_id: spec.max_index for spec in problem.flows} == {
            capped: 2, stepped: 2, free: 5}
        # Algorithm 1 solves these very specs.
        assert all(server.algorithm.constrain(spec) is spec
                   for spec in problem.flows)

    def test_no_plugins_no_records(self):
        cell = Cell(CellConfig())
        flare = FlareSystem()
        flare.install(cell)
        cell.add_data_flow(UserEquipment(StaticItbsChannel(10)))
        cell.run(6.0)
        assert flare.server.records == ()

    def test_deregister_plugin(self):
        cell, flare, players, _ = build_flare_cell(num_video=2)
        cell.run(4.0)
        flare.server.deregister_plugin(players[0].flow.flow_id)
        cell.run(8.0)
        last = flare.server.records[-1]
        assert players[0].flow.flow_id not in last.indices

    def test_validation(self):
        algorithm = Algorithm1(ExactSolver())
        with pytest.raises(ValueError):
            OneApiServer(algorithm, interval_s=0.0)
        with pytest.raises(ValueError):
            OneApiServer(algorithm, alpha=-1.0)
        with pytest.raises(ValueError):
            OneApiServer(algorithm, cost_smoothing=0.0)


class TestServerStateLifecycle:
    """Per-flow state and the audit trail stay bounded under churn."""

    def test_deregister_releases_estimator_and_hysteresis_state(self):
        cell, flare, players, _ = build_flare_cell(num_video=3)
        cell.run(6.0)
        server = flare.server
        flow_id = players[0].flow.flow_id
        assert flow_id in server._bpp_estimates
        assert flow_id in server.algorithm._states
        server.deregister_plugin(flow_id)
        assert flow_id not in server._bpp_estimates
        assert flow_id not in server.algorithm._states

    def test_client_churn_does_not_accumulate_estimates(self):
        # A long-lived cell sees many clients come and go (the metro's
        # handover path deregisters on every departure): per-flow
        # server state must track the live set, not the lifetime set.
        cell, flare, players, _ = build_flare_cell(num_video=2)
        mpd = MediaPresentation(SIMULATION_LADDER, segment_duration_s=4.0)
        t = 4.0
        for round_index in range(5):
            player = flare.attach_client(
                cell, UserEquipment(StaticItbsChannel(12)), mpd,
                PlayerConfig(request_threshold_s=12.0))
            cell.run(t)
            flare.server.deregister_plugin(player.flow.flow_id)
            t += 4.0
        server = flare.server
        live = {player.flow.flow_id for player in players}
        assert set(server._bpp_estimates) == live
        assert set(server.algorithm._states) == live

    def test_records_ring_keeps_most_recent(self, monkeypatch):
        monkeypatch.setattr(OneApiServer, "MAX_RECORDS", 3)
        cell, flare, _, _ = build_flare_cell()
        cell.run(20.0)  # 9 BAIs at t = 2..18
        assert flare.server.solve_count == 9
        records = flare.server.records
        assert len(records) == 3
        assert [r.time_s for r in records] == pytest.approx([14, 16, 18])

    def test_default_ring_capacity(self):
        server = OneApiServer(Algorithm1(ExactSolver()))
        assert server._records.maxlen == OneApiServer.MAX_RECORDS == 4096


class TestCoordinationEndToEnd:
    def test_players_request_assigned_bitrates(self):
        cell, flare, players, _ = build_flare_cell(num_video=2, itbs=20)
        cell.run(120.0)
        records = flare.server.records
        for player in players:
            # Every downloaded segment after the first BAI matches some
            # assignment that was in force.
            assigned_rates = {
                SIMULATION_LADDER.rate(r.indices[player.flow.flow_id])
                for r in records}
            late_segments = [r for r in player.log.records
                             if r.request_time_s > 4.0]
            assert late_segments
            for record in late_segments:
                assert record.bitrate_bps in assigned_rates | {
                    SIMULATION_LADDER.min_rate}

    def test_stability_no_changes_on_static_channel(self):
        cell, flare, players, _ = build_flare_cell(num_video=2, itbs=20)
        cell.run(300.0)
        for player in players:
            bitrates = player.log.bitrates()
            # Ramp up then hold: after the ramp there are no changes.
            # Climbing the six-rung ladder with delta = 4 and 2 s BAIs
            # takes ~160 s; afterwards the assignment must hold.
            late = [r.bitrate_bps for r in player.log.records
                    if r.request_time_s > 200.0]
            assert len(set(late)) == 1


class TestMultiCell:
    def test_independent_systems_per_cell(self):
        multi = MultiCellOneApi(solver="exact", delta=2)
        cell_a = Cell(CellConfig(cell_id=1))
        cell_b = Cell(CellConfig(cell_id=2))
        system_a = multi.system_for(cell_a)
        system_b = multi.system_for(cell_b)
        assert system_a is not system_b
        assert multi.system_for(cell_a) is system_a
        assert multi.cells == [1, 2]
