"""Tests for the metro scenario builder and the scaling study."""

import pickle

import pytest

from repro.sim.network import Network, PenaltyMap
from repro.workload.metro import (
    METRO_SCHEMES,
    build_metro_cell,
    build_metro_plan,
    metro_mobility,
)


class TestBuildMetroPlan:
    def test_grid_topology_and_population(self):
        plan = build_metro_plan(num_cells=9, ues_per_cell=3)
        assert plan.sites.num_cells == 9
        assert len(plan.ues) == 27
        # 9 cells -> 3x3 grid, every site inside the bounds.
        for cell_id in range(9):
            x, y = plan.sites.site(cell_id)
            assert 0.0 < x < plan.sites.bounds.width_m
            assert 0.0 < y < plan.sites.bounds.height_m

    def test_ids_are_the_global_index(self):
        plan = build_metro_plan(num_cells=4, ues_per_cell=2)
        for index, ue in enumerate(plan.ues):
            assert ue.ue_id == index
            assert ue.flow_id == index

    def test_initial_cell_is_least_pathloss(self):
        plan = build_metro_plan(num_cells=4, ues_per_cell=2)
        for ue in plan.ues:
            origin = metro_mobility(plan, ue.ue_id).position_at(0.0)
            assert ue.cell_id == plan.sites.best_cell(origin)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown metro scheme"):
            build_metro_plan(num_cells=2, scheme="bogus")
        assert "flare" in METRO_SCHEMES
        assert "festive" in METRO_SCHEMES

    def test_plan_pickles_by_reference(self):
        plan = build_metro_plan(num_cells=4, ues_per_cell=1)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.cell_builder is build_metro_cell
        assert clone.ues == plan.ues

    def test_mobility_is_reconstructible(self):
        plan = build_metro_plan(num_cells=4, ues_per_cell=1)
        first = metro_mobility(plan, 2).position_at(37.5)
        again = metro_mobility(plan, 2).position_at(37.5)
        assert first == again

    def test_built_cell_hosts_only_its_residents(self):
        plan = build_metro_plan(num_cells=4, ues_per_cell=2)
        built = build_metro_cell(plan, 0, PenaltyMap())
        expected = {ue.flow_id for ue in plan.ues if ue.cell_id == 0}
        assert set(built.players) == expected
        assert set(built.cell.players) == expected
        assert built.system is not None  # flare is the default scheme

    def test_client_scheme_builds_without_system(self):
        plan = build_metro_plan(num_cells=4, ues_per_cell=2,
                                scheme="festive")
        built = build_metro_cell(plan, 0, PenaltyMap())
        assert built.system is None
        assert built.players


class TestRunMetroScaling:
    def test_study_shape_and_speedup(self):
        from repro.experiments.metro import run_metro_scaling

        study = run_metro_scaling(num_cells=4, ues_per_cell=1,
                                  duration_s=8.0, shard_counts=(1, 2),
                                  isd_m=300.0)
        assert study["cells"] == 4
        assert study["ues"] == 4
        assert [row["shards"] for row in study["rows"]] == [1, 2]
        for row in study["rows"]:
            assert row["wall_time_s"] > 0.0
            assert row["speedup"] > 0.0
            assert len(row["per_cell"]) == 4
            for per_cell in row["per_cell"].values():
                assert per_cell["clients"] >= 0
        assert study["rows"][0]["speedup"] == pytest.approx(1.0)

    def test_network_runs_a_festive_metro(self):
        plan = build_metro_plan(num_cells=4, ues_per_cell=1,
                                scheme="festive", isd_m=300.0)
        reports = Network(plan).run(8.0)
        assert sorted(reports) == [0, 1, 2, 3]
