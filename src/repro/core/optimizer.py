"""Solvers for FLARE's bitrate optimization, problem (3)-(4).

Per bitrate assignment interval (BAI), the OneAPI server maximizes

    sum_u beta_u (1 - theta_u / R_u)  +  n * alpha * log(1 - r)

over the video bitrates ``R_u`` (each drawn from flow ``u``'s ladder)
and the video RB share ``r in [0, 1]``, subject to the capacity
constraint

    sum_u w_u * R_u <= r * N,       w_u = B * n_u^{i-1} / (8 * b_u^{i-1})

(``w_u`` is RBs-per-(bit/s), estimated from the previous BAI's RB and
byte counters) and the one-step-up stability constraint, which the
caller folds into each flow's allowed index range.

Two solvers are provided, mirroring the paper's evaluation:

* :class:`ExactSolver` — the discrete problem, solved exactly (up to a
  configurable capacity quantisation) with a multiple-choice-knapsack
  dynamic program over the RB budget, jointly optimised with ``r`` by
  scanning the quantised budget.  This replaces the paper's KNITRO
  solve of (3)-(4).
* :class:`RelaxedSolver` — the continuous relaxation of Proposition 1
  (``r_u(1) <= R_u <= r_u(M_u)``), solved to optimality with a KKT
  water-filling step nested in a ternary search over the concave
  1-D problem in ``r``; the result is rounded down to the ladder as in
  Algorithm 1.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.utility import data_utility, video_utility
from repro.has.mpd import BitrateLadder
from repro.obs import prof
from repro.obs.registry import REGISTRY
from repro.util import require_non_negative, require_positive


@dataclass(frozen=True)
class FlowSpec:
    """One video flow's inputs to the per-BAI optimization.

    Attributes:
        flow_id: flow identifier.
        ladder: the flow's bitrate ladder.
        beta: importance weight ``beta_u``.
        theta_bps: screen-size parameter ``theta_u`` (bits/s).
        rbs_per_bps: capacity cost ``w_u`` — RBs consumed per (bit/s)
            of sustained rate over the BAI, estimated from the previous
            BAI's trace (``B * n_u / (8 * b_u)``).
        max_index: highest ladder index allowed this BAI.  The caller
            encodes the stability constraint (``L_prev + 1``) and any
            client-side caps here; drops to index 0 are always allowed.
    """

    flow_id: int
    ladder: BitrateLadder
    beta: float
    theta_bps: float
    rbs_per_bps: float
    max_index: int | None = None

    def __post_init__(self) -> None:
        require_non_negative("beta", self.beta)
        require_non_negative("theta_bps", self.theta_bps)
        require_positive("rbs_per_bps", self.rbs_per_bps)

    def allowed_max_index(self) -> int:
        """Effective upper ladder index for this BAI."""
        top = len(self.ladder) - 1
        if self.max_index is None:
            return top
        return max(0, min(self.max_index, top))

    def utility(self, rate_bps: float) -> float:
        """This flow's utility at ``rate_bps``."""
        return video_utility(rate_bps, self.beta, self.theta_bps)


@dataclass(frozen=True)
class ProblemSpec:
    """One BAI's optimization instance.

    Attributes:
        flows: the video flows ``U``.
        num_data_flows: the PCRF-reported ``n``.
        alpha: video/data balance knob.
        total_rbs: ``N``, the RBs available over the whole BAI.
    """

    flows: tuple[FlowSpec, ...]
    num_data_flows: int
    alpha: float
    total_rbs: float

    def __post_init__(self) -> None:
        require_non_negative("alpha", self.alpha)
        require_positive("total_rbs", self.total_rbs)
        if self.num_data_flows < 0:
            raise ValueError("num_data_flows must be >= 0")


@dataclass
class Solution:
    """Solver output for one BAI.

    Attributes:
        indices: recommended ladder index ``L*_u`` per flow.
        rates_bps: the corresponding discrete rate per flow.
        continuous_rates_bps: pre-rounding rates (relaxed solver only;
            equals ``rates_bps`` for the exact solver).
        r: RB share assigned to video flows.
        utility: objective value at the *discrete* rates.
        solve_time_s: wall-clock solver time (paper Figure 9's metric).
        feasible: False when even the minimum ladder rates exceed the
            capacity (the solver then returns all-minimum).
    """

    indices: dict[int, int]
    rates_bps: dict[int, float]
    continuous_rates_bps: dict[int, float] = field(default_factory=dict)
    r: float = 0.0
    utility: float = 0.0
    solve_time_s: float = 0.0
    feasible: bool = True


def _discrete_objective(problem: ProblemSpec, indices: dict[int, int],
                        r: float) -> float:
    """Objective (2) at a discrete assignment."""
    total = 0.0
    for flow in problem.flows:
        total += flow.utility(flow.ladder.rate(indices[flow.flow_id]))
    if problem.num_data_flows > 0:
        r_eval = min(r, 1.0 - 1e-9)
        total += data_utility(r_eval, problem.num_data_flows, problem.alpha)
    return total


def _all_minimum_solution(problem: ProblemSpec, started: float) -> Solution:
    """Fallback when the cell is overloaded: everyone at the lowest rung."""
    indices = {flow.flow_id: 0 for flow in problem.flows}
    rates = {flow.flow_id: flow.ladder.min_rate for flow in problem.flows}
    used = sum(flow.rbs_per_bps * flow.ladder.min_rate
               for flow in problem.flows)
    r = min(used / problem.total_rbs, 1.0)
    return Solution(
        indices=indices,
        rates_bps=rates,
        continuous_rates_bps=dict(rates),
        r=r,
        utility=_discrete_objective(problem, indices, r),
        solve_time_s=prof.clock() - started,
        feasible=False,
    )


class Solver:
    """Interface shared by the exact and relaxed solvers."""

    name = "solver"

    def solve(self, problem: ProblemSpec) -> Solution:
        """Return the recommended per-flow ladder indices and ``r``."""
        profiler = prof.PROFILER
        if profiler is None:
            return self._observe(self._solve(problem))
        with profiler.span(f"solver.{self.name}"):
            return self._observe(self._solve(problem))

    def _solve(self, problem: ProblemSpec) -> Solution:
        """Subclass hook: the actual optimization."""
        raise NotImplementedError

    def _observe(self, solution: Solution) -> Solution:
        """Record the solve time into the default metrics registry.

        The ``solver.<name>.solve_s`` histogram lands in every
        ``BENCH_*.json`` artifact (paper Figure 9's metric); one
        histogram insert per BAI is negligible next to the solve.
        """
        REGISTRY.histogram(f"solver.{self.name}.solve_s").observe(
            solution.solve_time_s)
        return solution


#: Sentinel utility of a budget level no choice combination reaches.
_UNREACHABLE = -1e18

#: A DP step switches from the frontier to the numpy sweep over every
#: budget level once frontier size x choices exceeds this: a frontier
#: step costs about 0.3 us per (state, choice) pair, a numpy step 5-8 us
#: per choice whatever the frontier, and they break even at 64-96 pairs.
_DENSE_STEP_WORK = 64


class ExactSolver(Solver):
    """Exact discrete solve via multiple-choice knapsack DP.

    The RB budget ``N`` is quantised into ``quanta`` buckets.  A DP
    over flows computes, for every budget level, the best achievable
    video utility with exactly one ladder choice per flow; the outer
    scan then adds the data term ``n * alpha * log(1 - q/Q)`` for every
    budget level ``q`` and keeps the best, which jointly optimises
    ``r`` (for a given RB usage, the optimal ``r`` is the smallest
    share covering it, since the data term decreases in ``r``).

    The DP carries only the Pareto frontier of (budget, utility)
    states: the levels whose utility exceeds that of every smaller
    level.  A dominated state never lies on the backtracked path — any
    extension of it is matched or beaten by the same extension of the
    smaller level that dominates it, and the outer scan keeps the first
    maximum — so the frontier DP backtracks the dense DP's choices bit
    for bit.  Once a step's frontier size times its choice count
    exceeds ``_DENSE_STEP_WORK`` (large cells, paper Figure 9), that
    step and every later one run a numpy sweep over every budget level
    instead, seeded with the frontier.

    Exactness is up to the quantisation: each choice's RB weight is
    rounded *up*, so the capacity constraint is never violated, and
    with the default 1000 quanta the conservatism is below 0.1% of the
    budget per flow.

    Attributes:
        quanta: number of capacity buckets ``Q``.
    """

    name = "exact"

    def __init__(self, quanta: int = 1000) -> None:
        if quanta < 10:
            raise ValueError(f"quanta must be >= 10, got {quanta}")
        self.quanta = quanta
        self._log_table: np.ndarray | None = None

    def _log_one_minus_r(self) -> np.ndarray:
        """``math.log(1 - q/Q)`` for q in [0, Q), cached per solver.

        Built with ``math.log`` (not ``np.log``) so each entry is the
        exact float the scalar scan would compute; the ``q == Q`` slot
        is a placeholder the callers skip (``log 0`` is undefined).
        """
        table = self._log_table
        if table is None:
            quanta = self.quanta
            table = np.empty(quanta + 1)
            for q in range(quanta):
                table[q] = math.log(1.0 - q / quanta)
            table[quanta] = 0.0
            self._log_table = table
        return table

    def _solve(self, problem: ProblemSpec) -> Solution:
        started = prof.clock()
        if not problem.flows:
            r = 0.0
            return Solution(indices={}, rates_bps={}, r=r,
                            utility=_discrete_objective(problem, {}, r),
                            solve_time_s=prof.clock() - started)
        quanta = self.quanta
        quantum = problem.total_rbs / quanta

        # Every choice's weight in quanta comes first: an instance whose
        # minimum rates cannot fit needs no utility at all.  Ladders
        # ascend, so a flow's lightest choice is its index 0.
        rates: list[tuple[float, ...]] = []
        weights: list[list[int]] = []
        min_weight_total = 0
        for flow in problem.flows:
            flow_rates = flow.ladder.rates_bps[:flow.allowed_max_index() + 1]
            rbs_per_bps = flow.rbs_per_bps
            flow_weights = [int(math.ceil(rbs_per_bps * rate / quantum))
                            for rate in flow_rates]
            rates.append(flow_rates)
            weights.append(flow_weights)
            min_weight_total += flow_weights[0]
        if min_weight_total > quanta:
            return _all_minimum_solution(problem, started)

        # The DP over flows.  ``parents`` keeps, per flow, what the
        # backtrack needs: (frontier levels, choice per level) for a
        # frontier step, the per-level choice array for a numpy step.
        levels = [0]
        utilities = [0.0]
        dp: np.ndarray | None = None
        parents: list[tuple[list[int], list[int]] | np.ndarray] = []
        for flow, flow_rates, flow_weights in zip(
                problem.flows, rates, weights):
            beta = flow.beta
            theta_bps = flow.theta_bps
            # Inlined FlowSpec.utility (video_utility without its
            # argument checks, which FlowSpec and the ladder enforce).
            values = [beta * (1.0 - theta_bps / rate) for rate in flow_rates]
            if dp is None and (len(levels) * len(flow_weights)
                               > _DENSE_STEP_WORK):
                dp = np.full(quanta + 1, _UNREACHABLE)
                dp[levels] = utilities
                scratch = np.empty(quanta + 1)
                better = np.empty(quanta + 1, dtype=bool)
            if dp is None:
                levels, utilities, picks = self._frontier_step(
                    levels, utilities, flow_weights, values)
                parents.append((levels, picks))
            else:
                dp, parent = self._dense_step(dp, flow_weights, values,
                                              scratch, better)
                parents.append(parent)

        if dp is None:
            best_q = self._frontier_best(problem, levels, utilities)
        else:
            best_q = self._dense_best(problem, dp)
        if best_q < 0:
            return _all_minimum_solution(problem, started)

        # Backtrack the DP to recover per-flow choices.
        indices: dict[int, int] = {}
        q = best_q
        for flow, flow_weights, parent in zip(
                reversed(problem.flows), reversed(weights), reversed(parents)):
            if isinstance(parent, tuple):
                frontier, picks = parent
                choice_number = picks[bisect_left(frontier, q)]
            else:
                choice_number = int(parent[q])
                if choice_number < 0:
                    choice_number = 0  # unreachable in a feasible DP; be safe
            indices[flow.flow_id] = choice_number
            q -= flow_weights[choice_number]
        rates_bps = {flow.flow_id: flow.ladder.rate(indices[flow.flow_id])
                     for flow in problem.flows}
        used_rbs = sum(flow.rbs_per_bps * rates_bps[flow.flow_id]
                       for flow in problem.flows)
        r = min(used_rbs / problem.total_rbs, 1.0)
        return Solution(
            indices=indices,
            rates_bps=rates_bps,
            continuous_rates_bps=dict(rates_bps),
            r=r,
            utility=_discrete_objective(problem, indices, r),
            solve_time_s=prof.clock() - started,
        )

    def _frontier_step(self, levels: list[int], utilities: list[float],
                       weights: list[int], values: list[float]
                       ) -> tuple[list[int], list[float], list[int]]:
        """One flow's DP step over the frontier ``(levels, utilities)``.

        Returns the next frontier and the choice behind each of its
        states.  The choices' shifted copies of the frontier are merged
        in choice order, each into the frontier of the ones before it:
        both are sorted by level, so one pass keeps each level's best
        candidate (the earlier choice on a tie, as the dense sweep's
        strict ``>`` in choice order does) and drops every level that
        does not beat all smaller ones.
        """
        quanta = self.quanta
        merged_levels: list[int] = []
        merged_utilities: list[float] = []
        picks: list[int] = []
        for choice_number, weight in enumerate(weights):
            value = values[choice_number]
            shifted = bisect_right(levels, quanta - weight)
            held = len(merged_levels)
            next_levels: list[int] = []
            next_utilities: list[float] = []
            next_picks: list[int] = []
            top = -math.inf
            i = j = 0
            while i < held or j < shifted:
                if j == shifted or (i < held
                                    and merged_levels[i] < levels[j] + weight):
                    level = merged_levels[i]
                    utility = merged_utilities[i]
                    pick = picks[i]
                    i += 1
                else:
                    level = levels[j] + weight
                    utility = utilities[j] + value
                    pick = choice_number
                    if i < held and merged_levels[i] == level:
                        # Same level: the earlier choice unless beaten.
                        if merged_utilities[i] >= utility:
                            utility = merged_utilities[i]
                            pick = picks[i]
                        i += 1
                    j += 1
                if utility > top:
                    top = utility
                    next_levels.append(level)
                    next_utilities.append(utility)
                    next_picks.append(pick)
            merged_levels = next_levels
            merged_utilities = next_utilities
            picks = next_picks
        return merged_levels, merged_utilities, picks

    def _dense_step(self, dp: np.ndarray, weights: list[int],
                    values: list[float], scratch: np.ndarray,
                    better: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One flow's DP step as a numpy sweep over every budget level.

        ``dp[q]`` is the best utility at exactly ``q`` quanta
        (``_UNREACHABLE`` where no combination lands); the step returns
        the next one and the choice behind each level.  ``scratch`` and
        ``better`` are reused buffers of the same size.  Each relaxation
        runs through ``out=`` ufuncs and ``copyto``: the same element
        values as an allocating ``dp + value`` / ``np.where``
        formulation, without fresh arrays per ladder choice.
        """
        size = self.quanta + 1
        ndp = np.full(size, _UNREACHABLE)
        parent = np.full(size, -1, dtype=np.int64)
        for choice_number, weight in enumerate(weights):
            if weight >= size:
                break  # weights ascend with the ladder
            if weight == 0:
                candidate = np.add(dp, values[choice_number], out=scratch)
            else:
                scratch[:weight] = _UNREACHABLE
                np.add(dp[:size - weight], values[choice_number],
                       out=scratch[weight:])
                candidate = scratch
            np.greater(candidate, ndp, out=better)
            np.copyto(ndp, candidate, where=better)
            parent[better] = choice_number
        return ndp, parent

    def _frontier_best(self, problem: ProblemSpec, levels: list[int],
                       utilities: list[float]) -> int:
        """Budget level of the best objective on the final frontier.

        Between two frontier levels the video utility is flat and the
        data term falls, so the outer scan's first maximum is always a
        frontier level.  Returns -1 when no level is admissible.
        """
        if problem.num_data_flows == 0:
            return levels[-1]
        n_alpha = problem.num_data_flows * problem.alpha
        log_table = self._log_one_minus_r()
        best_q = -1
        best = -math.inf
        for level, utility in zip(levels, utilities):
            if level == self.quanta:
                break  # r = 1 leaves the data flows nothing (log 0)
            objective = utility + n_alpha * log_table.item(level)
            if objective > best:
                best = objective
                best_q = level
        return best_q

    def _dense_best(self, problem: ProblemSpec, dp: np.ndarray) -> int:
        """The outer scan of :meth:`_frontier_best` over a dense ``dp``.

        Vectorised, replicating the sequential scan bit-for-bit:

        * ``maximum.accumulate`` is the running best (comparisons
          only, no arithmetic);
        * the running best's index follows the strict ``>`` update
          rule — it moves only where dp strictly exceeds the prior
          prefix max, so it is the forward-fill (``max.accumulate`` of
          positions) of those strict-increase points;
        * the data term is ``run_max + n_alpha * log(1 - q/Q)`` with the
          log table precomputed via ``math.log`` (identical values,
          identical add/mul), its ``q == Q`` entry and every
          unreachable prefix masked out exactly as the scan's guards
          skip them;
        * ``argmax`` keeps the first maximum, as strict ``>`` does.
        """
        quanta = self.quanta
        run_max = np.maximum.accumulate(dp)
        positions = np.arange(quanta + 1)
        strict = np.empty(quanta + 1, dtype=bool)
        strict[0] = True
        np.greater(dp[1:], run_max[:-1], out=strict[1:])
        rbq = np.maximum.accumulate(np.where(strict, positions, 0))
        if problem.num_data_flows > 0:
            n_alpha = problem.num_data_flows * problem.alpha
            objective = run_max + n_alpha * self._log_one_minus_r()
            objective[quanta] = -np.inf
        else:
            objective = run_max.copy()
        objective[run_max <= _UNREACHABLE / 2] = -np.inf
        best = int(np.argmax(objective))
        if not np.isfinite(objective[best]):
            return -1
        return int(rbq[best])


class RelaxedSolver(Solver):
    """Continuous relaxation of (3)-(4) (Proposition 1) + rounding.

    For a fixed budget ``s = r * N`` the inner problem

        max sum_u beta_u (1 - theta_u / R_u)
        s.t. sum_u w_u R_u <= s,  lo_u <= R_u <= hi_u

    is solved in closed form via its KKT conditions: with multiplier
    ``lam`` on the capacity constraint, ``R_u(lam) =
    clip(sqrt(beta_u theta_u / (lam w_u)), lo_u, hi_u)``, and the used
    capacity is decreasing in ``lam``; a bisection finds the ``lam``
    that exactly spends ``s`` (or ``lam = 0`` when everyone's cap fits).
    The outer objective ``h(r) = inner(rN) + n alpha log(1-r)`` is
    concave in ``r`` (Proposition 1), so a ternary search finds ``r*``.
    The continuous rates are finally rounded *down* to the ladder —
    Algorithm 1's discretisation step.

    Attributes:
        tolerance: relative bisection/ternary-search tolerance.
        max_iterations: per-search iteration cap.
    """

    name = "relaxed"

    def __init__(self, tolerance: float = 1e-6, max_iterations: int = 80) -> None:
        require_positive("tolerance", tolerance)
        if max_iterations < 8:
            raise ValueError("max_iterations must be >= 8")
        self.tolerance = tolerance
        self.max_iterations = max_iterations

    # -- inner problem -------------------------------------------------
    @staticmethod
    def _bounds(flow: FlowSpec) -> tuple[float, float]:
        lo = flow.ladder.min_rate
        hi = flow.ladder.rate(flow.allowed_max_index())
        return lo, hi

    @staticmethod
    def _arrays(problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised per-flow parameters (w, lo, hi, beta*theta)."""
        w = np.array([flow.rbs_per_bps for flow in problem.flows])
        lo = np.array([flow.ladder.min_rate for flow in problem.flows])
        hi = np.array([flow.ladder.rate(flow.allowed_max_index())
                       for flow in problem.flows])
        beta_theta = np.array([flow.beta * flow.theta_bps
                               for flow in problem.flows])
        beta = np.array([flow.beta for flow in problem.flows])
        return w, lo, hi, beta_theta, beta

    def _inner_arrays(self, w: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      beta_theta: np.ndarray, beta: np.ndarray,
                      budget_rbs: float) -> tuple[np.ndarray, float]:
        """Optimal continuous rates and video utility for a budget.

        KKT water-filling: ``R(lam) = clip(sqrt(beta*theta/(lam*w)),
        lo, hi)``; used capacity decreases in ``lam``, so a bisection
        finds the multiplier that spends exactly the budget (or
        ``lam = 0`` when every cap fits).
        """

        def rates_for(lam: float) -> np.ndarray:
            if lam <= 0:
                return hi
            return np.clip(np.sqrt(beta_theta / (lam * w)), lo, hi)

        def used(rates: np.ndarray) -> float:
            return float(np.dot(w, rates))

        def value_of(rates: np.ndarray) -> float:
            # sum beta_u (1 - theta_u/R_u) = sum beta - sum beta*theta/R
            return float(np.sum(beta) - np.sum(beta_theta / rates))

        rates_hi = rates_for(0.0)
        if used(rates_hi) <= budget_rbs:
            return rates_hi, value_of(rates_hi)
        lam_lo, lam_hi = 0.0, 1.0
        while used(rates_for(lam_hi)) > budget_rbs and lam_hi < 1e30:
            lam_hi *= 8.0
        for _ in range(self.max_iterations):
            lam_mid = 0.5 * (lam_lo + lam_hi)
            if used(rates_for(lam_mid)) > budget_rbs:
                lam_lo = lam_mid
            else:
                lam_hi = lam_mid
            if lam_hi - lam_lo <= self.tolerance * max(lam_hi, 1.0):
                break
        rates = rates_for(lam_hi)
        return rates, value_of(rates)

    # -- outer problem -------------------------------------------------
    def _solve(self, problem: ProblemSpec) -> Solution:
        started = prof.clock()
        if not problem.flows:
            return Solution(indices={}, rates_bps={}, r=0.0,
                            utility=_discrete_objective(problem, {}, 0.0),
                            solve_time_s=prof.clock() - started)
        w, lo_arr, hi_arr, beta_theta, beta = self._arrays(problem)
        min_rbs = float(np.dot(w, lo_arr))
        max_rbs = float(np.dot(w, hi_arr))
        r_floor = min_rbs / problem.total_rbs
        if r_floor >= 1.0:
            return _all_minimum_solution(problem, started)
        r_ceiling = min(max_rbs / problem.total_rbs, 1.0)
        if problem.num_data_flows > 0:
            r_ceiling = min(r_ceiling, 1.0 - 1e-9)

        def objective(r: float) -> tuple[float, np.ndarray]:
            rates, video_value = self._inner_arrays(
                w, lo_arr, hi_arr, beta_theta, beta,
                r * problem.total_rbs)
            total = video_value
            if problem.num_data_flows > 0:
                total += data_utility(min(r, 1.0 - 1e-9),
                                      problem.num_data_flows, problem.alpha)
            return total, rates

        if problem.num_data_flows == 0:
            best_r = r_ceiling
            _, best_rates = objective(best_r)
        else:
            lo, hi = r_floor, r_ceiling
            for _ in range(self.max_iterations):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                if objective(m1)[0] < objective(m2)[0]:
                    lo = m1
                else:
                    hi = m2
                if hi - lo <= self.tolerance:
                    break
            best_r = 0.5 * (lo + hi)
            _, best_rates = objective(best_r)

        continuous = {flow.flow_id: rate
                      for flow, rate in zip(problem.flows, best_rates)}
        indices: dict[int, int] = {}
        rates: dict[int, float] = {}
        for flow, rate in zip(problem.flows, best_rates):
            index = min(flow.ladder.highest_at_most(rate),
                        flow.allowed_max_index())
            indices[flow.flow_id] = index
            rates[flow.flow_id] = flow.ladder.rate(index)
        used = sum(flow.rbs_per_bps * rates[flow.flow_id]
                   for flow in problem.flows)
        r_discrete = min(used / problem.total_rbs, 1.0)
        return Solution(
            indices=indices,
            rates_bps=rates,
            continuous_rates_bps=continuous,
            r=r_discrete,
            utility=_discrete_objective(problem, indices, r_discrete),
            solve_time_s=prof.clock() - started,
        )
