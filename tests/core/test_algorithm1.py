"""Tests for Algorithm 1's stability hysteresis."""

import pytest

from repro.core.algorithm1 import Algorithm1, FlowState
from repro.core.optimizer import FlowSpec, ProblemSpec, Solution, Solver
from repro.has.mpd import SIMULATION_LADDER


class ScriptedSolver(Solver):
    """Returns a scripted sequence of recommendations (for testing)."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0
        self.problems = []

    def solve(self, problem):
        self.problems.append(problem)
        indices = dict(self.script[min(self.calls,
                                       len(self.script) - 1)])
        self.calls += 1
        rates = {fid: SIMULATION_LADDER.rate(k)
                 for fid, k in indices.items()}
        return Solution(indices=indices, rates_bps=rates)


def make_problem(num_flows=1):
    flows = tuple(
        FlowSpec(flow_id=i, ladder=SIMULATION_LADDER, beta=10.0,
                 theta_bps=0.2e6, rbs_per_bps=1e-3)
        for i in range(num_flows)
    )
    return ProblemSpec(flows=flows, num_data_flows=0, alpha=1.0,
                       total_rbs=100_000.0)


class TestUpgradeHysteresis:
    def test_upgrade_needs_delta_consecutive_recommendations(self):
        # delta=2, level 0: required streak = 2 * (0 + 2) = 4 BAIs.
        algorithm = Algorithm1(ScriptedSolver([{0: 1}]), delta=2)
        problem = make_problem()
        levels = [algorithm.run_bai(problem).indices[0] for _ in range(6)]
        assert levels == [0, 0, 0, 1, 1, 1]

    def test_streak_resets_on_non_recommendation(self):
        script = [{0: 1}, {0: 1}, {0: 0}, {0: 1}, {0: 1}, {0: 1}, {0: 1}]
        algorithm = Algorithm1(ScriptedSolver(script), delta=1)
        problem = make_problem()
        levels = [algorithm.run_bai(problem).indices[0]
                  for _ in range(len(script))]
        # delta=1 at level 0 requires 2 consecutive recommendations:
        # the upgrade lands on the second BAI; the dip at BAI 2 drops
        # back immediately and the streak restarts, so the next upgrade
        # lands at BAI 4.
        assert levels == [0, 1, 0, 0, 1, 1, 1]

    def test_delta_zero_applies_immediately(self):
        algorithm = Algorithm1(ScriptedSolver([{0: 1}]), delta=0)
        problem = make_problem()
        assert algorithm.run_bai(problem).indices[0] == 1

    def test_higher_levels_upgrade_more_slowly(self):
        algorithm = Algorithm1(ScriptedSolver([]), delta=4)
        assert algorithm._required_streak(0) == 8
        assert algorithm._required_streak(3) == 20


class TestDowngrades:
    def test_drop_applies_immediately(self):
        algorithm = Algorithm1(ScriptedSolver([{0: 0}]), delta=4)
        algorithm.state_of(0).level = 4
        problem = make_problem()
        assert algorithm.run_bai(problem).indices[0] == 0

    def test_multi_level_drop_allowed(self):
        # The paper: "We do, however, permit large drops".
        algorithm = Algorithm1(ScriptedSolver([{0: 1}]), delta=4)
        algorithm.state_of(0).level = 5
        problem = make_problem()
        assert algorithm.run_bai(problem).indices[0] == 1

    def test_same_recommendation_holds(self):
        algorithm = Algorithm1(ScriptedSolver([{0: 2}]), delta=4)
        algorithm.state_of(0).level = 2
        problem = make_problem()
        assert algorithm.run_bai(problem).indices[0] == 2


class TestStepLimitConstraint:
    def test_solver_sees_one_step_cap(self):
        solver = ScriptedSolver([{0: 0}])
        algorithm = Algorithm1(solver, delta=4)
        algorithm.state_of(0).level = 2
        algorithm.run_bai(make_problem())
        constrained = solver.problems[0].flows[0]
        assert constrained.allowed_max_index() == 3

    def test_step_limit_can_be_disabled(self):
        solver = ScriptedSolver([{0: 0}])
        algorithm = Algorithm1(solver, delta=4, enforce_step_limit=False)
        algorithm.state_of(0).level = 2
        algorithm.run_bai(make_problem())
        constrained = solver.problems[0].flows[0]
        assert constrained.allowed_max_index() == len(SIMULATION_LADDER) - 1

    def test_client_cap_not_widened(self):
        # A client-side cap tighter than the step limit must survive.
        solver = ScriptedSolver([{0: 0}])
        algorithm = Algorithm1(solver, delta=4)
        algorithm.state_of(0).level = 4
        flows = (FlowSpec(flow_id=0, ladder=SIMULATION_LADDER, beta=10.0,
                          theta_bps=0.2e6, rbs_per_bps=1e-3, max_index=1),)
        problem = ProblemSpec(flows=flows, num_data_flows=0, alpha=1.0,
                              total_rbs=100_000.0)
        algorithm.run_bai(problem)
        assert solver.problems[0].flows[0].allowed_max_index() == 1


    def test_spec_within_the_cap_passes_through(self):
        # The OneAPI server folds the step cap in itself: such a spec
        # reaches the solver as it is.
        solver = ScriptedSolver([{0: 0}])
        algorithm = Algorithm1(solver, delta=4)
        algorithm.state_of(0).level = 2
        flows = (FlowSpec(flow_id=0, ladder=SIMULATION_LADDER, beta=10.0,
                          theta_bps=0.2e6, rbs_per_bps=1e-3, max_index=3),)
        problem = ProblemSpec(flows=flows, num_data_flows=0, alpha=1.0,
                              total_rbs=100_000.0)
        algorithm.run_bai(problem)
        assert solver.problems[0].flows[0] is flows[0]


class TestState:
    def test_state_created_on_demand(self):
        algorithm = Algorithm1(ScriptedSolver([]), delta=4)
        state = algorithm.state_of(7)
        assert isinstance(state, FlowState)
        assert state.level == 0

    def test_forget(self):
        algorithm = Algorithm1(ScriptedSolver([]), delta=4)
        algorithm.state_of(7).level = 3
        algorithm.forget(7)
        assert algorithm.state_of(7).level == 0

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            Algorithm1(ScriptedSolver([]), delta=-1)

    def test_multiple_flows_independent(self):
        script = [{0: 1, 1: 0}]
        algorithm = Algorithm1(ScriptedSolver(script), delta=0)
        problem = make_problem(num_flows=2)
        decision = algorithm.run_bai(problem)
        assert decision.indices == {0: 1, 1: 0}
