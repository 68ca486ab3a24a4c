"""The exact solver's frontier DP against the dense DP it replaced.

``ExactSolver`` runs its multiple-choice knapsack DP over the Pareto
frontier of (budget, utility) states and switches a flow's step to a
numpy sweep once the frontier grows large.  Both must pick exactly what
the dense DP over every budget level picks.  The oracle below is that
dense DP, kept verbatim: one numpy sweep per ladder choice over all
``Q + 1`` levels, the vectorised outer scan and the backtrack.  The
harness draws instances with tied utilities (``beta`` or ``theta`` of
0), client caps, arbitrary costs, infeasible budgets and coarse to fine
quantisations, and requires bit-equal answers.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.optimizer import (
    ExactSolver,
    FlowSpec,
    ProblemSpec,
    Solution,
    _all_minimum_solution,
    _discrete_objective,
)
from repro.has.mpd import (
    FINE_LADDER,
    SIMULATION_LADDER,
    TESTBED_LADDER,
    BitrateLadder,
)

SINGLE_RUNG = BitrateLadder.from_kbps((500,))
LADDERS = (SIMULATION_LADDER, FINE_LADDER, TESTBED_LADDER, SINGLE_RUNG)


def dense_solve(problem: ProblemSpec, quanta: int) -> Solution:
    """The dense DP over every budget level (the reference answer)."""
    if not problem.flows:
        return Solution(indices={}, rates_bps={}, r=0.0,
                        utility=_discrete_objective(problem, {}, 0.0))
    quantum = problem.total_rbs / quanta
    choices = []
    for flow in problem.flows:
        options = []
        for index in range(flow.allowed_max_index() + 1):
            rate = flow.ladder.rate(index)
            weight = int(math.ceil(flow.rbs_per_bps * rate / quantum))
            options.append((weight, flow.utility(rate), index))
        choices.append(options)
    if sum(min(w for w, _, _ in opts) for opts in choices) > quanta:
        return _all_minimum_solution(problem, 0.0)

    neg_inf = -1e18
    size = quanta + 1
    dp = np.full(size, neg_inf)
    dp[0] = 0.0
    cand_buf = np.empty(size)
    better = np.empty(size, dtype=bool)
    parents = []
    for options in choices:
        ndp = np.full(size, neg_inf)
        parent = np.full(size, -1, dtype=np.int64)
        for choice_number, (weight, value, _) in enumerate(options):
            if weight > quanta:
                continue
            if weight == 0:
                candidate = np.add(dp, value, out=cand_buf)
            else:
                cand_buf[:weight] = neg_inf
                np.add(dp[:size - weight], value, out=cand_buf[weight:])
                candidate = cand_buf
            np.greater(candidate, ndp, out=better)
            np.copyto(ndp, candidate, where=better)
            parent[better] = choice_number
        parents.append(parent)
        dp = ndp

    log_table = np.empty(size)
    for q in range(quanta):
        log_table[q] = math.log(1.0 - q / quanta)
    log_table[quanta] = 0.0
    run_max = np.maximum.accumulate(dp)
    strict = np.empty(size, dtype=bool)
    strict[0] = True
    np.greater(dp[1:], run_max[:-1], out=strict[1:])
    rbq = np.maximum.accumulate(np.where(strict, np.arange(size), 0))
    if problem.num_data_flows > 0:
        n_alpha = problem.num_data_flows * problem.alpha
        objective = run_max + n_alpha * log_table
        objective[quanta] = -np.inf
    else:
        objective = run_max.copy()
    objective[run_max <= neg_inf / 2] = -np.inf
    best = int(np.argmax(objective))
    if not np.isfinite(objective[best]):
        return _all_minimum_solution(problem, 0.0)

    indices = {}
    q = int(rbq[best])
    for flow, options, parent in zip(
            reversed(problem.flows), reversed(choices), reversed(parents)):
        choice_number = max(int(parent[q]), 0)
        weight, _, index = options[choice_number]
        indices[flow.flow_id] = index
        q -= weight
    rates = {flow.flow_id: flow.ladder.rate(indices[flow.flow_id])
             for flow in problem.flows}
    used_rbs = sum(flow.rbs_per_bps * rates[flow.flow_id]
                   for flow in problem.flows)
    r = min(used_rbs / problem.total_rbs, 1.0)
    return Solution(indices=indices, rates_bps=rates, r=r,
                    utility=_discrete_objective(problem, indices, r))


def bits(solution: Solution) -> tuple:
    """Everything a decision carries, floats as their exact bits."""
    return (list(solution.indices.items()),
            [(fid, rate.hex()) for fid, rate in solution.rates_bps.items()],
            solution.r.hex(), solution.utility.hex(), solution.feasible)


@st.composite
def problems(draw):
    num_flows = draw(st.integers(1, 12))
    flows = []
    for flow_id in range(num_flows):
        flows.append(FlowSpec(
            flow_id=flow_id,
            ladder=draw(st.sampled_from(LADDERS)),
            beta=draw(st.sampled_from([0.0, 1.0, 10.0])
                      | st.floats(0.0, 20.0)),
            theta_bps=draw(st.sampled_from([0.0, 0.2e6])
                           | st.floats(0.0, 4e6)),
            rbs_per_bps=draw(st.floats(1e-7, 1e-3)),
            max_index=draw(st.none() | st.integers(-1, 12)),
        ))
    # The budget is drawn against the minimum rates' cost: below 1 no
    # assignment fits; well above it every flow can reach its top.
    min_cost = sum(flow.rbs_per_bps * flow.ladder.min_rate
                   for flow in flows)
    slack = draw(st.floats(0.5, 40.0))
    return ProblemSpec(flows=tuple(flows),
                       num_data_flows=draw(st.integers(0, 4)),
                       alpha=draw(st.sampled_from([0.0, 1.0, 3.0])),
                       total_rbs=min_cost * slack)


def _switching_problem() -> ProblemSpec:
    """Twelve fine-ladder flows and room to spare: a big frontier."""
    flows = tuple(
        FlowSpec(flow_id=k, ladder=FINE_LADDER, beta=10.0,
                 theta_bps=0.2e6, rbs_per_bps=2.0 / (8.0 * (20 + 5 * k)))
        for k in range(12))
    return ProblemSpec(flows=flows, num_data_flows=2, alpha=1.0,
                       total_rbs=60_000.0)


def _infeasible_problem() -> ProblemSpec:
    """Minimum rates that need twice the budget."""
    flows = tuple(
        FlowSpec(flow_id=k, ladder=SIMULATION_LADDER, beta=10.0,
                 theta_bps=0.2e6, rbs_per_bps=1e-4)
        for k in range(4))
    return ProblemSpec(flows=flows, num_data_flows=1, alpha=1.0,
                       total_rbs=20.0)


class TestFrontierMatchesDenseDp:
    @given(problem=problems(), quanta=st.integers(10, 1000))
    @example(problem=_infeasible_problem(), quanta=1000)
    @example(problem=_switching_problem(), quanta=1000)
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_decisions(self, problem, quanta):
        assert (bits(ExactSolver(quanta).solve(problem))
                == bits(dense_solve(problem, quanta)))

    def test_outer_scan_keeps_the_first_maximum(self):
        # Level 5 of 10 gains exactly what r = 0.5 costs the one data
        # flow, so both frontier levels score 0.0: the smaller wins,
        # as the dense scan's argmax keeps the first maximum.
        problem = ProblemSpec(flows=_infeasible_problem().flows[:1],
                              num_data_flows=1, alpha=1.0,
                              total_rbs=100.0)
        gain = -math.log(1.0 - 5 / 10)
        assert gain + math.log(1.0 - 5 / 10) == 0.0
        assert ExactSolver(10)._frontier_best(
            problem, [0, 5], [0.0, gain]) == 0

    def test_examples_cover_both_exits(self, monkeypatch):
        dense_steps = []
        step = ExactSolver._dense_step
        monkeypatch.setattr(
            ExactSolver, "_dense_step",
            lambda solver, *args: dense_steps.append(1) or step(
                solver, *args))
        assert ExactSolver().solve(_switching_problem()).feasible
        assert dense_steps
        dense_steps.clear()
        assert not ExactSolver().solve(_infeasible_problem()).feasible
        assert not dense_steps
