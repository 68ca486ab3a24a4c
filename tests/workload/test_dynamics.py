"""Tests for dynamic flow populations (arrivals mid-run)."""

import pytest

from repro.workload.dynamics import (
    ArrivalSchedule,
    build_arrival_scenario,
)
from repro.sim.cell import Cell, CellConfig


class TestArrivalSchedule:
    def test_fires_at_time(self):
        cell = Cell(CellConfig(step_s=0.5))
        schedule = ArrivalSchedule()
        fired = []
        schedule.add(2.0, lambda: fired.append("a") or "a")
        schedule.add(4.0, lambda: fired.append("b") or "b")
        schedule.install(cell)
        cell.run(3.0)
        assert fired == ["a"]
        cell.run(5.0)
        assert fired == ["a", "b"]
        assert [a.result for a in schedule.executed] == ["a", "b"]

    def test_each_arrival_fires_once(self):
        cell = Cell(CellConfig(step_s=0.5))
        schedule = ArrivalSchedule()
        fired = []
        schedule.add(1.0, lambda: fired.append(1))
        schedule.install(cell)
        cell.run(10.0)
        assert fired == [1]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSchedule().add(-1.0, lambda: None)


class TestArrivalScenario:
    @pytest.fixture(scope="class")
    def finished(self):
        scenario = build_arrival_scenario(
            initial_clients=4, late_clients=4, arrival_time_s=200.0,
            duration_s=500.0, itbs=15)
        scenario.run()
        return scenario

    def test_late_clients_attach_and_stream(self, finished):
        late = finished.late_players()
        assert len(late) == 4
        for player in late:
            assert len(player.log) > 3
            assert player.log.records[0].request_time_s >= 200.0

    def test_incumbents_yield_capacity(self, finished):
        # The optimizer re-splits the cell: incumbents' assigned rates
        # after the newcomers converge are below their pre-arrival
        # rates (the paper's "several new clients enter" adjustment).
        records = finished.flare.server.records
        incumbents = [p.flow.flow_id for p in finished.players]

        def mean_assigned(t0, t1):
            values = []
            for record in records:
                if t0 <= record.time_s <= t1:
                    values.extend(record.rates_bps[f]
                                  for f in incumbents
                                  if f in record.rates_bps)
            return sum(values) / len(values)

        before = mean_assigned(150.0, 200.0)
        after = mean_assigned(420.0, 500.0)
        assert after < before

    def test_cell_capacity_respected_after_arrivals(self, finished):
        # Total assigned rate never exceeds what the cell can carry.
        cell_capacity_bps = 50_000 * 35 * 8  # iTbs 15: 35 B/PRB
        last = finished.flare.server.records[-1]
        total = sum(last.rates_bps.values())
        assert total <= cell_capacity_bps * 1.05

    def test_pcrf_sees_arrivals(self, finished):
        assert finished.cell.pcrf.num_video_flows(
            finished.cell.cell_id) == 8
