"""End-to-end integration tests exercising the paper's headline claims
at reduced scale.
"""

import pytest

from repro.workload.scenarios import (
    FlareParams,
    build_cell_scenario,
    build_coexistence_scenario,
    build_mixed_scenario,
    build_testbed_scenario,
)


class TestFlareCoordination:
    def test_flare_never_rebuffers_in_testbed(self):
        # Paper Tables I and II: FLARE's underflow time is 0 in both
        # scenarios.
        for dynamic in (False, True):
            report = build_testbed_scenario(
                "flare", dynamic=dynamic, duration_s=240.0).run()
            assert report.total_rebuffer_s == pytest.approx(0.0, abs=0.5)

    def test_flare_fairness_near_one(self):
        report = build_testbed_scenario("flare", duration_s=240.0).run()
        assert report.jain_video_rates > 0.98

    def test_flare_more_stable_than_festive_testbed(self):
        festive = build_testbed_scenario("festive", duration_s=300.0).run()
        flare = build_testbed_scenario("flare", duration_s=300.0).run()
        assert flare.mean_changes < festive.mean_changes

    def test_gbr_tracks_assignments(self):
        scenario = build_testbed_scenario("flare", duration_s=120.0)
        scenario.run()
        last = scenario.flare.server.records[-1]
        # Final GBR of each video flow equals its final assignment.
        for player in scenario.players:
            flow_id = player.flow.flow_id
            plugin = scenario.flare.plugin_for(flow_id)
            qos = scenario.cell.registry.qos(flow_id)
            assert qos.gbr_bps == last.rates_bps[flow_id]
            assert qos.gbr_bps == pytest.approx(
                player.mpd.ladder.rate(plugin.assigned_index))


class TestMixedTraffic:
    def test_video_and_data_coexist(self):
        report = build_mixed_scenario(
            "flare", num_video=3, num_data=3, duration_s=180.0).run()
        assert all(c.segments_downloaded > 0 for c in report.clients)
        assert all(t > 0 for t in report.data_throughput_bps.values())

    def test_alpha_shifts_balance(self):
        # Figure 11's monotone trade-off, at two extreme alphas.  The
        # 12-rung fine ladder ramps slowly under the default delta = 4,
        # so a short run uses delta = 1 and a strong data population to
        # reach the trade-off's equilibrium.
        low = build_mixed_scenario(
            "flare", num_video=3, num_data=8, duration_s=300.0,
            flare_params=FlareParams(alpha=0.25, delta=1)).run()
        high = build_mixed_scenario(
            "flare", num_video=3, num_data=8, duration_s=300.0,
            flare_params=FlareParams(alpha=16.0, delta=1)).run()
        assert (high.mean_data_throughput_bps
                > low.mean_data_throughput_bps)
        assert (high.average_bitrate_kbps < low.average_bitrate_kbps)


class TestDeltaKnob:
    def test_higher_delta_is_more_conservative(self):
        # Figure 12: avg bitrate decreases as delta grows.
        fast = build_cell_scenario(
            "flare", num_video=4, duration_s=300.0, seed=2,
            flare_params=FlareParams(delta=1)).run()
        slow = build_cell_scenario(
            "flare", num_video=4, duration_s=300.0, seed=2,
            flare_params=FlareParams(delta=12)).run()
        assert slow.average_bitrate_kbps <= fast.average_bitrate_kbps


class TestSolverChoice:
    def test_relaxed_solver_runs_end_to_end(self):
        report = build_cell_scenario(
            "flare", num_video=4, duration_s=180.0,
            flare_params=FlareParams(solver="relaxed")).run()
        assert report.average_bitrate_kbps > 0


class TestCoexistence:
    def test_legacy_players_still_stream(self):
        scenario = build_coexistence_scenario(
            num_flare=2, num_legacy=2, duration_s=180.0)
        report = scenario.run()
        assert all(c.segments_downloaded > 3 for c in report.clients)

    def test_flare_clients_get_guarantees_legacy_do_not(self):
        scenario = build_coexistence_scenario(
            num_flare=2, num_legacy=2, duration_s=120.0)
        scenario.run()
        flare_ids = {p.flow.flow_id for p in scenario.players[:2]}
        for player in scenario.players:
            qos = scenario.cell.registry.qos(player.flow.flow_id)
            if player.flow.flow_id in flare_ids:
                assert qos.gbr_bps > 0
            else:
                assert qos.gbr_bps == 0.0
