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
   flow's GBR at the eNodeB, and the plugin pins the player's next
   requests to the assigned index.

The server is an *interval controller* for
:class:`repro.sim.cell.Cell` — the cell invokes :meth:`on_interval`
every ``interval_s`` (= BAI) seconds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import check as chk
from repro.core.algorithm1 import Algorithm1, BaiDecision
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


@dataclass(frozen=True)
class BaiRecord:
    """One BAI's audit entry: when it ran and what it decided."""

    time_s: float
    decision: BaiDecision
    num_video_flows: int
    num_data_flows: int


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
            to the MAC through the PCEF; when False only the plugins
            are updated (the mis-coordination ablation).
        cost_smoothing: EWMA weight applied to the per-flow
            bytes-per-RB estimates across BAIs (1.0 = use each BAI's
            raw ``b_u / n_u`` as the paper's formulation states; lower
            values average over ~1/weight BAIs, insulating the
            optimizer against residual per-BAI throughput noise the
            paper's 2-second ns-3 averages did not exhibit).
        audit: when True, keep *every* :class:`BaiRecord` for the
            lifetime of the server (the historical behaviour, needed by
            the audit/ablation benches that replay full decision logs).
            When False (the default) records are kept in a bounded ring
            of the most recent ``max_records`` BAIs so long metro runs
            do not accumulate one record per cell per BAI forever.
        max_records: ring capacity when ``audit`` is False.
    """

    name = "flare"

    #: Default ring capacity for BAI records when ``audit=False``.
    DEFAULT_MAX_RECORDS = 4096

    def __init__(self, algorithm: Algorithm1, interval_s: float = 2.0,
                 alpha: float = 1.0, enforce_gbr: bool = True,
                 cost_smoothing: float = 0.1, audit: bool = False,
                 max_records: int | None = None) -> None:
        require_positive("interval_s", interval_s)
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if not 0.0 < cost_smoothing <= 1.0:
            raise ValueError(
                f"cost_smoothing must be in (0, 1], got {cost_smoothing}")
        if max_records is not None and max_records <= 0:
            raise ValueError(
                f"max_records must be positive, got {max_records}")
        self.algorithm = algorithm
        self.interval_s = interval_s
        self.alpha = alpha
        self.enforce_gbr = enforce_gbr
        self.cost_smoothing = cost_smoothing
        self.audit = audit
        self._plugins: dict[int, FlarePlugin] = {}
        self._records: deque[BaiRecord] = deque(
            maxlen=None if audit else (
                max_records or self.DEFAULT_MAX_RECORDS))
        self._bpp_estimates: dict[int, Ewma] = {}
        # Lifetime counters: unlike ``records`` (which may be a bounded
        # ring) these never reset, so epoch-delta consumers such as
        # ``NetworkShard.epoch_telemetry`` stay exact on long runs.
        self.solve_count = 0
        self.infeasible_count = 0
        self.hold_count = 0

    # ------------------------------------------------------------------
    def register_plugin(self, plugin: FlarePlugin) -> None:
        """A client embedded the plugin and sent its first message."""
        self._plugins[plugin.flow_id] = plugin

    def deregister_plugin(self, flow_id: int) -> None:
        """A client left (flow torn down)."""
        self._plugins.pop(flow_id, None)
        self.algorithm.forget(flow_id)
        self._bpp_estimates.pop(flow_id, None)

    @property
    def records(self) -> tuple[BaiRecord, ...]:
        """Retained BAI decisions, oldest first.

        With ``audit=True`` this is every BAI ever run; otherwise the
        most recent ``max_records`` of them.
        """
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
        """Assemble this BAI's optimization instance from cell state."""
        usage_report = cell.consume_usage_report(self)
        specs: list[FlowSpec] = []
        for flow in cell.video_flows():
            plugin = self._plugins.get(flow.flow_id)
            if plugin is None:
                continue  # a non-FLARE video flow: served as data
            info = plugin.client_info()
            specs.append(FlowSpec(
                flow_id=flow.flow_id,
                ladder=plugin.ladder,
                beta=flow.ue.beta,
                theta_bps=flow.ue.theta_bps,
                rbs_per_bps=self._cost_for_flow(
                    cell, flow, usage_report.get(flow.flow_id)),
                max_index=info.max_index(plugin.ladder),
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
        if chk.CHECKER is not None and decision.solution.feasible:
            gbr_rbs = sum(spec.rbs_per_bps * decision.rates_bps[spec.flow_id]
                          for spec in problem.flows)
            chk.CHECKER.check_gbr_capacity(now_s, gbr_rbs, problem.total_rbs)
        for flow_id, index in decision.indices.items():
            plugin = self._plugins[flow_id]
            plugin.assign(index, time_s=now_s)
            if self.enforce_gbr:
                cell.pcef.enforce(
                    flow_id,
                    gbr_bps=decision.rates_bps[flow_id],
                    time_s=now_s,
                )
        self._records.append(BaiRecord(
            time_s=now_s,
            decision=decision,
            num_video_flows=len(problem.flows),
            num_data_flows=problem.num_data_flows,
        ))
        self.solve_count += 1
        if not decision.solution.feasible:
            self.infeasible_count += 1
        holds = 0
        for verdict in decision.verdicts.values():
            if verdict.action == "hold":
                holds += 1
        self.hold_count += holds
        if obs.TRACER is not None:
            solution = decision.solution
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
                        "rate_bps": decision.rates_bps[verdict.flow_id],
                        "up_streak": verdict.up_streak,
                        "required_streak": verdict.required_streak,
                        "action": verdict.action,
                    }
                    for verdict in decision.verdicts.values()
                ],
            )
