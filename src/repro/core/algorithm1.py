"""Algorithm 1: FLARE's stateful per-BAI bitrate calculation.

The solver (:mod:`repro.core.optimizer`) produces the *recommended*
index ``L*_u`` for every video flow each BAI.  Algorithm 1 wraps the
solve with the paper's stability post-processing:

* The solver's input already carries the hard constraint
  ``R_u <= r_u(L_prev + 1)`` (at most one step up per BAI) — the
  caller encodes it into each :class:`FlowSpec`'s ``max_index``.
* An *increase* is additionally applied only after it has been
  recommended for ``delta * (L_prev + 1)`` consecutive BAIs (levels
  are 1-based in the paper; higher levels therefore upgrade more
  slowly, FESTIVE-style).
* *Decreases* of any size apply immediately
  (``L_i = min(L_prev, L*)``), so new arrivals or channel collapses
  are absorbed at once.

``delta`` is the knob of paper Figure 12; the hysteresis can be
disabled entirely (``delta = 0``) for the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import check as chk
from repro.core.optimizer import (
    FlowSpec,
    ProblemSpec,
    Solution,
    Solver,
)
from repro.obs import prof
from repro.util import require_non_negative


@dataclass
class FlowState:
    """Per-flow state carried across BAIs.

    Attributes:
        level: current ladder index ``L_u^{i-1}`` (0-based).
        up_streak: consecutive BAIs in which the solver recommended
            exactly one step up.
    """

    level: int = 0
    up_streak: int = 0


@dataclass(frozen=True)
class HysteresisVerdict:
    """How Algorithm 1's stability post-processing treated one flow.

    Attributes:
        flow_id: the flow.
        recommended: the solver's raw index ``L*_u``.
        enforced: the index actually applied after hysteresis.
        up_streak: consecutive up-recommendations after this BAI.
        required_streak: streak needed before an upgrade applies
            (``delta * (L_prev + 2)``, 0-based levels).
        action: ``'upgrade'`` (streak satisfied, level raised),
            ``'hold'`` (upgrade recommended but streak unsatisfied),
            ``'downgrade'`` (decrease applied immediately), or
            ``'keep'`` (solver recommended the current level).
    """

    flow_id: int
    recommended: int
    enforced: int
    up_streak: int
    required_streak: int
    action: str


@dataclass
class BaiDecision:
    """Outcome of one BAI for the whole cell.

    Attributes:
        indices: enforced ladder index per flow (after hysteresis).
        rates_bps: corresponding bitrate per flow.
        solution: the raw solver output (pre-hysteresis).
        verdicts: per-flow hysteresis outcome (what the ``bai.solve``
            trace event reports).
    """

    indices: dict[int, int]
    rates_bps: dict[int, float]
    solution: Solution
    verdicts: dict[int, HysteresisVerdict] = field(default_factory=dict)


class Algorithm1:
    """The paper's Algorithm 1, parameterised by a solver.

    Attributes:
        solver: exact or relaxed optimizer.
        delta: stability parameter; an upgrade from 0-based index
            ``L`` needs ``delta * (L + 2)`` consecutive recommendations
            (``L + 2`` is the paper's 1-based ``L_prev + 1``).  With
            ``delta = 0`` recommendations apply immediately.
        enforce_step_limit: when False, the hard one-step-up constraint
            is dropped from the solver input (ablation knob; the paper
            always keeps it on).
    """

    def __init__(self, solver: Solver, delta: int = 4,
                 enforce_step_limit: bool = True) -> None:
        require_non_negative("delta", delta)
        self.solver = solver
        self.delta = int(delta)
        self.enforce_step_limit = enforce_step_limit
        self._states: dict[int, FlowState] = {}

    # ------------------------------------------------------------------
    def state_of(self, flow_id: int) -> FlowState:
        """The persistent state of ``flow_id`` (created on first use)."""
        state = self._states.get(flow_id)
        if state is None:
            state = self._states[flow_id] = FlowState()
        return state

    def forget(self, flow_id: int) -> None:
        """Drop state for a departed flow."""
        self._states.pop(flow_id, None)

    def _required_streak(self, level: int) -> int:
        """BAIs of consecutive recommendation needed to step up."""
        if self.delta == 0:
            return 1
        # paper: delta * (L_prev + 1) with 1-based levels.
        return self.delta * (level + 2)

    # ------------------------------------------------------------------
    def constrain(self, spec: FlowSpec) -> FlowSpec:
        """Fold the stability constraint into a flow's allowed range.

        A spec whose range already stops within one step of the flow's
        level comes back as it is (the OneAPI server builds its specs
        that way).
        """
        if not self.enforce_step_limit:
            return spec
        step_cap = self.state_of(spec.flow_id).level + 1
        if spec.allowed_max_index() <= step_cap:
            return spec
        return FlowSpec(
            flow_id=spec.flow_id,
            ladder=spec.ladder,
            beta=spec.beta,
            theta_bps=spec.theta_bps,
            rbs_per_bps=spec.rbs_per_bps,
            max_index=step_cap,
        )

    def run_bai(self, problem: ProblemSpec) -> BaiDecision:
        """Execute one BAI: constrain, solve, apply hysteresis.

        The returned decision's ``indices`` are what the OneAPI server
        enforces (GBR + plugin assignment).
        """
        profiler = prof.PROFILER
        if profiler is None:
            return self._run_bai(problem)
        with profiler.span("core.alg1"):
            return self._run_bai(problem)

    def _run_bai(self, problem: ProblemSpec) -> BaiDecision:
        constrained = ProblemSpec(
            flows=tuple(self.constrain(spec) for spec in problem.flows),
            num_data_flows=problem.num_data_flows,
            alpha=problem.alpha,
            total_rbs=problem.total_rbs,
        )
        solution = self.solver.solve(constrained)
        checker = chk.CHECKER
        if checker is not None and solution.feasible:
            used_rbs = sum(spec.rbs_per_bps * solution.rates_bps[spec.flow_id]
                           for spec in constrained.flows)
            checker.check_solver_residual(used_rbs, solution.r,
                                          constrained.total_rbs)
        indices: dict[int, int] = {}
        rates: dict[int, float] = {}
        verdicts: dict[int, HysteresisVerdict] = {}
        for spec in problem.flows:
            state = self.state_of(spec.flow_id)
            previous_level = state.level
            recommended = solution.indices[spec.flow_id]
            required = self._required_streak(state.level)
            if recommended > state.level:
                # With the step limit on, the solver can only ever
                # recommend level + 1 (the paper's "L* = L_prev + 1"
                # test); without it (ablation) any upgrade counts.
                state.up_streak += 1
                if state.up_streak >= required:
                    if self.enforce_step_limit:
                        state.level += 1
                    else:
                        state.level = recommended
                    state.up_streak = 0
                    action = "upgrade"
                else:
                    # Hold at the previous level this BAI.
                    action = "hold"
            else:
                state.up_streak = 0
                action = "downgrade" if recommended < state.level else "keep"
                state.level = min(state.level, recommended)
            level = spec.ladder.clamp_index(state.level)
            state.level = level
            if checker is not None and self.enforce_step_limit:
                checker.check_ladder_step(spec.flow_id, previous_level, level)
            indices[spec.flow_id] = level
            rates[spec.flow_id] = spec.ladder.rate(level)
            verdicts[spec.flow_id] = HysteresisVerdict(
                flow_id=spec.flow_id,
                recommended=recommended,
                enforced=level,
                up_streak=state.up_streak,
                required_streak=required,
                action=action,
            )
        return BaiDecision(indices=indices, rates_bps=rates,
                           solution=solution, verdicts=verdicts)
