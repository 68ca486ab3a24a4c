"""Tests for inter-cell handover of FLARE clients."""

import pytest

from repro.workload.handover import HandoverManager, HandoverRecord
from repro.workload.multicell import build_multicell_scenario


@pytest.fixture()
def two_cells():
    scenario = build_multicell_scenario(
        num_cells=2, clients_per_cell=2, itbs_per_cell=[20, 9],
        duration_s=0.0 or 1.0, delta=1)
    return scenario


def run_lockstep(scenario, until_s):
    done = False
    while not done:
        done = True
        for cell in scenario.cells.values():
            if cell.now_s < until_s - 1e-9:
                cell.step()
                done = False


class TestMigration:
    def test_bookkeeping_moves(self, two_cells):
        scenario = two_cells
        run_lockstep(scenario, 20.0)
        manager = HandoverManager()
        player = scenario.players[0][0]
        source, target = scenario.cells[0], scenario.cells[1]
        sys0 = scenario.oneapi.system_for(source)
        sys1 = scenario.oneapi.system_for(target)
        plugin = sys0.plugin_for(player.flow.flow_id)

        manager.migrate(player, source, sys0, target, sys1)

        assert player.flow.flow_id not in source.players
        assert player.flow.flow_id in target.players
        # The plugin is registered in the target system only.
        with pytest.raises(KeyError):
            sys0.plugin_for(player.flow.flow_id)
        assert sys1.plugin_for(player.flow.flow_id) is plugin
        assert source.pcrf.num_video_flows(0) == 1
        assert target.pcrf.num_video_flows(1) == 3
        record = manager.records[0]
        assert record.source_cell_id == 0
        assert record.target_cell_id == 1
        assert record.time_s == pytest.approx(20.0)

    def test_player_state_survives(self, two_cells):
        scenario = two_cells
        run_lockstep(scenario, 60.0)
        player = scenario.players[0][0]
        segments_before = len(player.log)
        buffer_before = player.buffer.level_s
        assert segments_before > 0

        manager = HandoverManager()
        manager.migrate(player, scenario.cells[0],
                        scenario.oneapi.system_for(scenario.cells[0]),
                        scenario.cells[1],
                        scenario.oneapi.system_for(scenario.cells[1]))

        assert len(player.log) == segments_before
        assert player.buffer.level_s == pytest.approx(buffer_before)

    def test_streaming_continues_in_target_cell(self, two_cells):
        scenario = two_cells
        run_lockstep(scenario, 40.0)
        player = scenario.players[0][0]
        manager = HandoverManager()
        manager.migrate(player, scenario.cells[0],
                        scenario.oneapi.system_for(scenario.cells[0]),
                        scenario.cells[1],
                        scenario.oneapi.system_for(scenario.cells[1]))
        segments_at_handover = len(player.log)
        run_lockstep(scenario, 140.0)
        assert len(player.log) > segments_at_handover + 3
        # The target cell's OneAPI server now assigns this flow...
        flow_id = player.flow.flow_id
        sys1 = scenario.oneapi.system_for(scenario.cells[1])
        assert sys1.plugin_for(flow_id).assigned_index is not None
        late_assignments = [r.time_s for r in sys1.server.records
                            if r.time_s > 40.0
                            and flow_id in r.indices]
        assert late_assignments
        # ...and the source cell's stopped deciding for it.
        sys0 = scenario.oneapi.system_for(scenario.cells[0])
        last_source = sys0.server.records[-1]
        assert player.flow.flow_id not in last_source.indices

    def test_migrating_unknown_flow_rejected(self, two_cells):
        scenario = two_cells
        player = scenario.players[1][0]  # lives in cell 1, not cell 0
        manager = HandoverManager()
        with pytest.raises(KeyError):
            manager.migrate(player, scenario.cells[0],
                            scenario.oneapi.system_for(scenario.cells[0]),
                            scenario.cells[1],
                            scenario.oneapi.system_for(scenario.cells[1]))


class TestHandoverRecordBlob:
    """The fixed 32-byte wire contract for cross-shard audit entries."""

    def test_blob_round_trip(self):
        record = HandoverRecord(time_s=12.5, flow_id=42,
                                source_cell_id=3, target_cell_id=7)
        blob = record.to_blob()
        assert len(blob) == 32
        assert HandoverRecord.from_blob(blob) == record

    def test_blob_is_deterministic(self):
        def make():
            return HandoverRecord(time_s=0.001, flow_id=1,
                                  source_cell_id=0, target_cell_id=1)

        assert make().to_blob() == make().to_blob()
