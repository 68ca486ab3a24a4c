"""Tests for the JSONL audit exporters."""

import pytest

from repro.core.algorithm1 import Algorithm1
from repro.experiments.audit import (
    dump_bai_log,
    dump_segment_log,
    read_jsonl,
)
from repro.workload.dynamics import build_arrival_scenario
from repro.workload.scenarios import build_testbed_scenario


@pytest.fixture(scope="module")
def finished_scenario():
    scenario = build_testbed_scenario("flare", duration_s=60.0, seed=2)
    scenario.run()
    return scenario


class TestBaiLog:
    def test_one_line_per_bai(self, finished_scenario, tmp_path):
        server = finished_scenario.flare.server
        path = dump_bai_log(server, tmp_path / "bai.jsonl")
        events = list(read_jsonl(path))
        assert len(events) == len(server.records)

    def test_event_schema(self, finished_scenario, tmp_path):
        server = finished_scenario.flare.server
        path = dump_bai_log(server, tmp_path / "bai.jsonl")
        event = next(read_jsonl(path))
        assert set(event) == {
            "time_s", "num_video_flows", "num_data_flows", "recommended",
            "enforced", "rates_bps", "r", "utility", "solve_time_ms",
            "feasible",
        }
        assert event["num_video_flows"] == 3
        assert 0.0 <= event["r"] <= 1.0
        assert event["solve_time_ms"] > 0

    def test_enforced_matches_records(self, finished_scenario, tmp_path):
        server = finished_scenario.flare.server
        path = dump_bai_log(server, tmp_path / "bai.jsonl")
        events = list(read_jsonl(path))
        last_record = server.records[-1]
        assert events[-1]["enforced"] == {
            str(k): v for k, v in last_record.indices.items()}

    def test_lines_match_every_decision(self, monkeypatch, tmp_path):
        # Twelve clients join three on a weak cell, so the log holds
        # feasible and infeasible BAIs, holds and a changing flow count;
        # each line must say what Algorithm 1 returned for its BAI.
        decisions = []
        run_bai = Algorithm1.run_bai

        def capture(algorithm, problem):
            decision = run_bai(algorithm, problem)
            decisions.append((problem, decision))
            return decision

        monkeypatch.setattr(Algorithm1, "run_bai", capture)
        scenario = build_arrival_scenario(
            initial_clients=3, late_clients=12, arrival_time_s=40.0,
            duration_s=100.0, itbs=1, seed=3)
        scenario.run()
        path = dump_bai_log(scenario.flare.server, tmp_path / "bai.jsonl")
        events = list(read_jsonl(path))
        assert len(events) == len(decisions)
        for event, (problem, decision) in zip(events, decisions):
            solution = decision.solution
            assert event["num_video_flows"] == len(problem.flows)
            assert event["num_data_flows"] == problem.num_data_flows
            assert event["recommended"] == {
                str(k): v for k, v in solution.indices.items()}
            assert event["enforced"] == {
                str(k): v for k, v in decision.indices.items()}
            assert event["rates_bps"] == {
                str(k): v for k, v in decision.rates_bps.items()}
            assert event["r"] == round(solution.r, 6)
            assert event["utility"] == round(solution.utility, 6)
            assert event["feasible"] is solution.feasible
        assert {event["num_video_flows"] for event in events} == {3, 15}
        assert {event["feasible"] for event in events} == {True, False}
        assert any(event["recommended"] != event["enforced"]
                   for event in events)


class TestSegmentLog:
    def test_roundtrip(self, finished_scenario, tmp_path):
        player = finished_scenario.players[0]
        path = dump_segment_log(player, tmp_path / "segments.jsonl")
        events = list(read_jsonl(path))
        assert len(events) == len(player.log)
        assert [e["segment"] for e in events] == [
            r.index for r in player.log.records]
        assert all(e["throughput_bps"] > 0 for e in events)

    def test_creates_parent_dirs(self, finished_scenario, tmp_path):
        player = finished_scenario.players[0]
        path = dump_segment_log(player, tmp_path / "deep" / "s.jsonl")
        assert path.exists()
