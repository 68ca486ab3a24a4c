"""The OneAPI server: FLARE's network-side entity.

Once per bitrate assignment interval (BAI) the server

1. collects, from the eNodeB's Statistics Reporter, each video flow's
   previous-BAI RB count ``n_u`` and byte count ``b_u`` (these yield
   the capacity cost ``w_u`` of problem (3)-(4));
2. collects the data-flow count ``n`` from the PCRF;
3. folds in each plugin's disclosed client information (ladder and
   optional caps);
4. runs Algorithm 1 (solver + stability hysteresis);
5. enforces the decision both ways: the PCEF programs each video
   flow's GBR at the eNodeB (here the cell's Continuous GBR Updater,
   :meth:`repro.mac.gbr.BearerRegistry.update_gbr`), and the plugin
   pins the player's next requests to the assigned index.

The server is the only store of both: its bounded :attr:`records`
ring keeps a compact row per BAI (:class:`BaiRecord`), and its plugin
registry (:meth:`plugin_for`) the live clients.

The server is an *interval controller* for
:class:`repro.sim.cell.Cell` — the cell invokes :meth:`on_interval`
every ``interval_s`` (= BAI) seconds.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, NamedTuple

from repro import check as chk
from repro.core.algorithm1 import Algorithm1
from repro.core.optimizer import FlowSpec, ProblemSpec
from repro.core.plugin import FlarePlugin
from repro.obs import events as obs_events
from repro.obs import prof
from repro.obs import tracer as obs
from repro.util import Ewma, require_positive

if TYPE_CHECKING:
    from repro.mac.rb_trace import FlowUsage
    from repro.net.flows import VideoFlow
    from repro.sim.cell import Cell


class BaiFlowRecord(NamedTuple):
    """One flow's line of a :class:`BaiRecord`."""

    flow_id: int
    recommended: int
    enforced: int
    rate_bps: float


class BaiRecord(NamedTuple):
    """One BAI's audit row: when it ran and what it decided.

    A plain tuple, so the ring costs a few hundred bytes per BAI; the
    full :class:`~repro.core.algorithm1.BaiDecision`, hysteresis
    verdicts included, goes to the ``bai.solve`` trace event instead.

    Attributes:
        time_s: when the BAI ran.
        num_data_flows: the PCRF's data-flow count ``n``.
        r: the solver's RB share for video flows.
        utility: the objective value at the discrete rates.
        solve_time_s: wall-clock solver time.
        feasible: False when even the minimum rates did not fit.
        flows: per video flow, in problem order: the solver's
            recommended index, the enforced (post-hysteresis) index
            and the enforced rate.
    """

    time_s: float
    num_data_flows: int
    r: float
    utility: float
    solve_time_s: float
    feasible: bool
    flows: tuple[BaiFlowRecord, ...]

    @property
    def num_video_flows(self) -> int:
        """Video flows the BAI assigned."""
        return len(self.flows)

    @property
    def indices(self) -> dict[int, int]:
        """Enforced ladder index per flow."""
        return {flow.flow_id: flow.enforced for flow in self.flows}

    @property
    def rates_bps(self) -> dict[int, float]:
        """Enforced bitrate per flow."""
        return {flow.flow_id: flow.rate_bps for flow in self.flows}


class OneApiServer:
    """Network-side bitrate coordinator (one instance can serve many
    cells in the paper; bitrates are computed per cell, so this class
    manages one cell and a multi-cell deployment instantiates several —
    see :class:`repro.core.controller.MultiCellOneApi`).

    Attributes:
        algorithm: the Algorithm 1 instance (solver + hysteresis).
        interval_s: the BAI length ``B`` in seconds.
        alpha: data-vs-video balance knob of equation (3).
        enforce_gbr: when True (paper behaviour), decisions are pushed
            to the MAC as bearer GBRs; when False only the plugins are
            updated (the mis-coordination ablation).
        cost_smoothing: EWMA weight applied to the per-flow
            bytes-per-RB estimates across BAIs (1.0 = use each BAI's
            raw ``b_u / n_u`` as the paper's formulation states; lower
            values average over ~1/weight BAIs, insulating the
            optimizer against residual per-BAI throughput noise the
            paper's 2-second ns-3 averages did not exhibit).
    """

    name = "flare"

    #: Capacity of the BAI record ring: long metro runs keep the most
    #: recent BAIs instead of one record per cell per BAI forever.
    MAX_RECORDS = 4096

    def __init__(self, algorithm: Algorithm1, interval_s: float = 2.0,
                 alpha: float = 1.0, enforce_gbr: bool = True,
                 cost_smoothing: float = 0.1) -> None:
        require_positive("interval_s", interval_s)
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if not 0.0 < cost_smoothing <= 1.0:
            raise ValueError(
                f"cost_smoothing must be in (0, 1], got {cost_smoothing}")
        self.algorithm = algorithm
        self.interval_s = interval_s
        self.alpha = alpha
        self.enforce_gbr = enforce_gbr
        self.cost_smoothing = cost_smoothing
        self._plugins: dict[int, FlarePlugin] = {}
        self._records: deque[BaiRecord] = deque(maxlen=self.MAX_RECORDS)
        self._bpp_estimates: dict[int, Ewma] = {}
        # Lifetime counters: unlike the ``records`` ring these never
        # reset, so epoch-delta consumers such as
        # ``NetworkShard.epoch_telemetry`` stay exact on long runs.
        self.solve_count = 0
        self.infeasible_count = 0
        self.hold_count = 0

    # ------------------------------------------------------------------
    def register_plugin(self, plugin: FlarePlugin) -> None:
        """A client embedded the plugin and sent its first message."""
        self._plugins[plugin.flow_id] = plugin

    def deregister_plugin(self, flow_id: int) -> None:
        """A client left (flow torn down or handed over)."""
        self._plugins.pop(flow_id, None)
        self.algorithm.forget(flow_id)
        self._bpp_estimates.pop(flow_id, None)

    def plugin_for(self, flow_id: int) -> FlarePlugin:
        """The registered plugin of flow ``flow_id``.

        Raises:
            KeyError: for flows with no registered plugin (never
                attached, or deregistered on departure).
        """
        return self._plugins[flow_id]

    @property
    def records(self) -> tuple[BaiRecord, ...]:
        """The most recent ``MAX_RECORDS`` BAI rows, oldest first."""
        return tuple(self._records)

    # ------------------------------------------------------------------
    def _cost_for_flow(self, cell: Cell, flow: VideoFlow,
                       usage: FlowUsage | None) -> float:
        """Capacity cost ``w_u`` (RBs per bit/s) from the last BAI.

        Uses the traced ``B * n_u / (8 * b_u)`` when the flow
        transmitted; otherwise falls back to the flow's current CQI
        report (the network always has the channel estimate even when
        the flow was idle).  Estimates are EWMA-smoothed across BAIs
        per ``cost_smoothing``.
        """
        bytes_per_prb: float | None = None
        if usage is not None and usage.bytes_tx > 0 and usage.prbs > 0:
            bytes_per_prb = usage.bytes_per_prb
        if bytes_per_prb is None or bytes_per_prb <= 0:
            bytes_per_prb = flow.ue.channel.bytes_per_prb_at(cell.now_s)
        if bytes_per_prb <= 0:
            bytes_per_prb = 1.0  # out-of-range UE: prohibitively costly
        estimator = self._bpp_estimates.get(flow.flow_id)
        if estimator is None:
            estimator = self._bpp_estimates[flow.flow_id] = Ewma(
                self.cost_smoothing)
        smoothed = estimator.update(bytes_per_prb)
        return self.interval_s / (8.0 * smoothed)

    def build_problem(self, now_s: float, cell: Cell) -> ProblemSpec:
        """Assemble this BAI's optimization instance from cell state.

        Each flow's ``max_index`` already holds both caps: the client's
        disclosed hints and, when the algorithm enforces it, the
        one-step-up limit, so Algorithm 1 solves the specs built here.
        """
        usage_report = cell.consume_usage_report(self)
        algorithm = self.algorithm
        step_limit = algorithm.enforce_step_limit
        specs: list[FlowSpec] = []
        for flow in cell.video_flows():
            plugin = self._plugins.get(flow.flow_id)
            if plugin is None:
                continue  # a non-FLARE video flow: served as data
            max_index = plugin.max_index()
            if step_limit:
                step_cap = algorithm.state_of(flow.flow_id).level + 1
                if step_cap < max_index:
                    max_index = step_cap
            specs.append(FlowSpec(
                flow_id=flow.flow_id,
                ladder=plugin.ladder,
                beta=flow.ue.beta,
                theta_bps=flow.ue.theta_bps,
                rbs_per_bps=self._cost_for_flow(
                    cell, flow, usage_report.get(flow.flow_id)),
                max_index=max_index,
            ))
        total_rbs = cell.prbs_per_second() * self.interval_s
        return ProblemSpec(
            flows=tuple(specs),
            num_data_flows=cell.pcrf.num_data_flows(cell.cell_id),
            alpha=self.alpha,
            total_rbs=total_rbs,
        )

    def on_interval(self, now_s: float, cell: Cell) -> None:
        """Run one BAI against ``cell`` (invoked by the cell driver)."""
        profiler = prof.PROFILER
        if profiler is None:
            self._run_interval(now_s, cell)
            return
        with profiler.span("core.bai"):
            self._run_interval(now_s, cell)

    def _run_interval(self, now_s: float, cell: Cell) -> None:
        problem = self.build_problem(now_s, cell)
        if not problem.flows:
            return
        decision = self.algorithm.run_bai(problem)
        solution = decision.solution
        rates = decision.rates_bps
        if chk.CHECKER is not None and solution.feasible:
            gbr_rbs = sum(spec.rbs_per_bps * rates[spec.flow_id]
                          for spec in problem.flows)
            chk.CHECKER.check_gbr_capacity(now_s, gbr_rbs, problem.total_rbs)
        recommended = solution.indices
        flows: list[BaiFlowRecord] = []
        for flow_id, index in decision.indices.items():
            rate = rates[flow_id]
            self._plugins[flow_id].assign(index)
            if self.enforce_gbr:
                cell.registry.update_gbr(flow_id, rate, time_s=now_s)
            flows.append(BaiFlowRecord(flow_id, recommended[flow_id], index,
                                       rate))
        self._records.append(BaiRecord(
            now_s, problem.num_data_flows, solution.r, solution.utility,
            solution.solve_time_s, solution.feasible, tuple(flows)))
        self.solve_count += 1
        if not solution.feasible:
            self.infeasible_count += 1
        holds = 0
        for verdict in decision.verdicts.values():
            if verdict.action == "hold":
                holds += 1
        self.hold_count += holds
        if obs.TRACER is not None:
            obs.TRACER.emit(
                obs_events.BAI_SOLVE, now_s,
                cell=cell.cell_id,
                num_video=len(problem.flows),
                num_data=problem.num_data_flows,
                total_rbs=problem.total_rbs,
                r=solution.r,
                utility=solution.utility,
                solve_s=solution.solve_time_s,
                feasible=solution.feasible,
                flows=[
                    {
                        "flow": verdict.flow_id,
                        "recommended": verdict.recommended,
                        "enforced": verdict.enforced,
                        "rate_bps": rates[verdict.flow_id],
                        "up_streak": verdict.up_streak,
                        "required_streak": verdict.required_streak,
                        "action": verdict.action,
                    }
                    for verdict in decision.verdicts.values()
                ],
            )
