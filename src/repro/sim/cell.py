"""The cell simulator: wires PHY + MAC + transport + HAS together.

One :class:`Cell` models one LTE downlink cell — the unit FLARE's
OneAPI server optimizes over.  Per fluid MAC step it:

1. fires due *interval controllers* (OneAPI server BAIs, AVIS epochs,
   metric samplers) in registration order;
2. lets every HAS player issue segment requests (so new backlog is
   schedulable this step);
3. runs the scheduler over all flows for the step's PRB budget;
4. delivers the granted bytes (segment-completion callbacks fire here)
   and records RB/byte usage into the trace module;
5. advances playback on every player.

An *interval controller* is any object with an ``interval_s`` float
attribute and an ``on_interval(now_s, cell) -> None`` method — the
OneAPI server, the AVIS agent and the metrics sampler all conform.

Time is an integer: a cell counts its completed steps, and every
timing input is converted once to whole TTIs
(:func:`repro.util.whole_ttis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Protocol

from repro import check as chk
from repro.abr.base import AbrAlgorithm
from repro.has.mpd import BitrateLadder, MediaPresentation
from repro.has.player import HasPlayer, PlayerConfig
from repro.mac.gbr import BearerQos, BearerRegistry
from repro.mac.priority_set import PrioritySetScheduler
from repro.mac.rb_trace import FlowUsage, RbTraceModule
from repro.mac.scheduler import Scheduler
from repro.net.flows import DataFlow, Flow, UserEquipment, VideoFlow
from repro.net.pcrf import Pcrf
from repro.obs import events as obs_events
from repro.obs import prof
from repro.obs import tracer as obs
from repro.phy.tbs import PRB_PER_TTI_10MHZ, TTI_MS
from repro.sim.kernel import TtiKernel
from repro.util import require_positive, step_time, whole_ttis


@dataclass(frozen=True)
class CellConfig:
    """Physical and timing configuration of a cell.

    Attributes:
        cell_id: identifier (PCRF sessions are keyed by it).
        prb_per_tti: carrier width in PRBs (50 = 10 MHz, the JL-620).
        tti_s: transmission time interval (LTE: 1 ms).
        step_s: fluid MAC step, a whole number of TTIs; PRB budget per
            step is ``prb_per_tti * step_s / tti_s``.
    """

    cell_id: int = 0
    prb_per_tti: int = PRB_PER_TTI_10MHZ
    tti_s: float = TTI_MS / 1000.0
    step_s: float = 0.02

    def __post_init__(self) -> None:
        require_positive("prb_per_tti", self.prb_per_tti)
        require_positive("tti_s", self.tti_s)
        require_positive("step_s", self.step_s)
        if self.step_s < self.tti_s:
            raise ValueError(
                f"step_s ({self.step_s}) must be >= tti_s ({self.tti_s})"
            )
        whole_ttis("step_s", self.step_s, self.tti_s)

    @property
    def prbs_per_step(self) -> float:
        """PRB budget of one fluid step."""
        return self.prb_per_tti * (self.step_s / self.tti_s)


class IntervalController(Protocol):
    """Structural type of a periodic controller.

    Anything exposing an ``interval_s`` period (a whole number of
    TTIs, read once at registration) and an ``on_interval(now_s,
    cell)`` callback qualifies — OneAPI servers, metrics samplers,
    arrival schedules, AViS agents.
    """

    interval_s: float

    def on_interval(self, now_s: float, cell: Cell) -> None:
        """Invoked by the cell driver every ``interval_s`` seconds."""
        ...


class Cell:
    """One simulated LTE cell and everything attached to it."""

    def __init__(self, config: CellConfig | None = None,
                 scheduler: Scheduler | None = None) -> None:
        self.config = config if config is not None else CellConfig()
        self.scheduler = (scheduler if scheduler is not None
                          else PrioritySetScheduler())
        self.registry = BearerRegistry()
        self.trace = RbTraceModule()
        self.pcrf = Pcrf()
        self._flows: list[Flow] = []
        self._players: dict[int, HasPlayer] = {}
        self._ladders: dict[int, BitrateLadder] = {}
        # Per controller: [due TTI, interval in TTIs].
        self._controllers: list[tuple[IntervalController, list[int]]] = []
        self._usage_snapshots: dict[int, tuple[dict[int, tuple[float, float]], float]] = {}
        self._steps = 0
        self._step_ttis = whole_ttis("step_s", self.config.step_s,
                                     self.config.tti_s)
        self._step_hooks: list[Callable[[float], None]] = []
        self._kernel = TtiKernel(self)

    # ------------------------------------------------------------------
    # Introspection used by network-side controllers
    # ------------------------------------------------------------------
    @property
    def cell_id(self) -> int:
        """The cell's identifier."""
        return self.config.cell_id

    @property
    def now_s(self) -> float:
        """Current simulation time: completed steps times ``step_s``."""
        return step_time(self._steps, self.config.step_s)

    @property
    def flows(self) -> tuple[Flow, ...]:
        """All flows, in attachment order."""
        return tuple(self._flows)

    @property
    def players(self) -> dict[int, HasPlayer]:
        """Players by video flow id."""
        return dict(self._players)

    def video_flows(self) -> list[VideoFlow]:
        """Video flows in attachment order."""
        return [flow for flow in self._flows if isinstance(flow, VideoFlow)]

    def data_flows(self) -> list[DataFlow]:
        """Data flows in attachment order."""
        return [flow for flow in self._flows if isinstance(flow, DataFlow)]

    def player_for(self, flow_id: int) -> HasPlayer:
        """The player of video flow ``flow_id``.

        Raises:
            KeyError: for unknown or non-video flows.
        """
        return self._players[flow_id]

    def ladder_for_flow(self, flow_id: int) -> BitrateLadder | None:
        """The bitrate ladder of a video flow (None for data flows)."""
        return self._ladders.get(flow_id)

    def prbs_per_second(self) -> float:
        """Cell capacity in PRBs per second."""
        return self.config.prb_per_tti / self.config.tti_s

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def _invalidate_kernel(self) -> None:
        """Topology changed: the TTI kernel's mirrors must rebuild."""
        self._kernel.invalidate()

    def add_video_flow(self, ue: UserEquipment, mpd: MediaPresentation,
                       abr: AbrAlgorithm,
                       player_config: PlayerConfig | None = None,
                       flow_id: int | None = None) -> HasPlayer:
        """Attach a HAS video flow + player for ``ue``.

        ``flow_id`` pins the flow's identifier instead of drawing from
        the process-wide counter — the multi-cell network builders use
        formula-based ids so a cell constructed inside a shard worker
        is byte-identical to one constructed in the parent process.
        """
        flow = VideoFlow(ue, flow_id=flow_id)
        player = HasPlayer(flow, mpd, abr, player_config)
        self._invalidate_kernel()
        self._flows.append(flow)
        self._players[flow.flow_id] = player
        self._ladders[flow.flow_id] = mpd.ladder
        self.registry.register(flow.flow_id, BearerQos())
        self.pcrf.register_flow(flow, self.cell_id)
        return player

    def add_data_flow(self, ue: UserEquipment) -> DataFlow:
        """Attach a bulk data flow for ``ue``."""
        flow = DataFlow(ue)
        self._invalidate_kernel()
        self._flows.append(flow)
        self.registry.register(flow.flow_id, BearerQos())
        self.pcrf.register_flow(flow, self.cell_id)
        return flow

    def register_bare_video_flow(self, flow: VideoFlow,
                                 ladder: BitrateLadder | None = None
                                 ) -> None:
        """Attach a video flow with no player (uplink streamers).

        The flow is scheduled and traced like any other; only the
        playback machinery is absent — the application on top (e.g. an
        uplink streamer) drives the flow's downloads itself.
        """
        self._invalidate_kernel()
        self._flows.append(flow)
        if ladder is not None:
            self._ladders[flow.flow_id] = ladder
        self.registry.register(flow.flow_id, BearerQos())
        self.pcrf.register_flow(flow, self.cell_id)

    def adopt_video_flow(self, player: HasPlayer) -> None:
        """Attach an *existing* player/flow pair (handover arrival).

        The player keeps its buffer, history and ABR state; only the
        cell-side bookkeeping (bearer, PCRF session, tables) is
        created here.

        Raises:
            ValueError: if the flow id is already attached to this
                cell's bearer registry.
        """
        flow = player.flow
        self._invalidate_kernel()
        self._flows.append(flow)
        self._players[flow.flow_id] = player
        self._ladders[flow.flow_id] = player.mpd.ladder
        self.registry.register(flow.flow_id, BearerQos())
        self.pcrf.register_flow(flow, self.cell_id)

    def remove_flow(self, flow_id: int) -> None:
        """Detach a flow (departure).

        Its per-cell MAC state leaves with it — the scheduler's
        per-flow state, its RB/byte counters (its PRBs stay in the
        cell total) and every consumer's usage snapshot of it — so a
        flow that returns starts afresh.  A flow removed in mid-step
        (by a completion callback) gets nothing for the rest of the
        step.
        """
        self._kernel.release(flow_id)
        self._flows = [f for f in self._flows if f.flow_id != flow_id]
        self._players.pop(flow_id, None)
        self._ladders.pop(flow_id, None)
        self.registry.deregister(flow_id)
        self.pcrf.deregister_flow(flow_id)
        self.scheduler.forget(flow_id)
        self.trace.retire(flow_id)
        for snapshot, _ in self._usage_snapshots.values():
            snapshot.pop(flow_id, None)

    def add_controller(self, controller: IntervalController,
                       first_fire_s: float | None = None) -> None:
        """Register an interval controller.

        It fires at the start of the first step reaching each due TTI.

        Args:
            controller: object with ``interval_s`` and
                ``on_interval(now_s, cell)``.
            first_fire_s: first invocation time (default: one interval
                in, so the first BAI has a full interval of history).

        Raises:
            ValueError: if the interval is not positive, or it or
                ``first_fire_s`` is not a whole number of TTIs.
        """
        tti_s = self.config.tti_s
        interval = require_positive("controller.interval_s",
                                    float(controller.interval_s))
        interval_ttis = whole_ttis("controller.interval_s", interval, tti_s)
        first = (interval_ttis if first_fire_s is None
                 else whole_ttis("first_fire_s", first_fire_s, tti_s))
        self._controllers.append((controller, [first, interval_ttis]))

    def remove_controller(self, controller: IntervalController) -> None:
        """Unregister an interval controller (e.g. a failed server)."""
        self._controllers = [(c, due) for c, due in self._controllers
                             if c is not controller]

    def add_step_hook(self, hook: Callable[[float], None]) -> None:
        """Register a callable invoked with ``now_s`` after every step."""
        self._step_hooks.append(hook)

    # ------------------------------------------------------------------
    # Usage reporting (the Statistics Reporter hand-off)
    # ------------------------------------------------------------------
    def consume_usage_report(self, consumer: object) -> dict[int, FlowUsage]:
        """Per-flow usage since this consumer's previous call.

        Each consumer (OneAPI server, AVIS agent, metrics sampler) gets
        an independent delta view over the cumulative RB/byte trace, so
        multiple controllers never steal each other's reports.
        """
        # Mid-run callers (controllers, hooks) already see flushed
        # state; this covers direct external calls.
        self._kernel.flush()
        key = id(consumer)
        previous, previous_time = self._usage_snapshots.get(key, ({}, 0.0))
        report: dict[int, FlowUsage] = {}
        snapshot: dict[int, tuple[float, float]] = {}
        now = self.now_s
        duration = max(now - previous_time, 0.0)
        for flow in self._flows:
            cum_prbs, cum_bytes = self.trace.cumulative(flow.flow_id)
            prev_prbs, prev_bytes = previous.get(flow.flow_id, (0.0, 0.0))
            snapshot[flow.flow_id] = (cum_prbs, cum_bytes)
            report[flow.flow_id] = FlowUsage(
                prbs=cum_prbs - prev_prbs,
                bytes_tx=cum_bytes - prev_bytes,
                duration_s=duration,
            )
        self._usage_snapshots[key] = (snapshot, now)
        return report

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def _fire_due_controllers(self) -> None:
        tti = self._steps * self._step_ttis
        now = self.now_s
        for controller, due in self._controllers:
            # Controllers may fire multiple times if step_s > interval;
            # in practice intervals are >> step_s.
            while due[0] <= tti:
                controller.on_interval(now, self)
                due[0] += due[1]

    def _stop_step(self, until_s: float) -> int:
        """Step count of the first step boundary at or after ``until_s``."""
        until = whole_ttis("until_s", until_s, self.config.tti_s)
        return -(-until // self._step_ttis)

    def step(self) -> None:
        """Advance the simulation by one fluid MAC step."""
        if self._kernel.run(self._steps + 1):
            return
        step_s = self.config.step_s
        now = step_time(self._steps, step_s)
        end = step_time(self._steps + 1, step_s)

        profiler = prof.PROFILER
        if profiler is not None:
            profiler.begin("sim.step")
        # Controller firing and player request issuance are profiled
        # by their rare inner spans (core.bai, has.seg_done, nesting
        # under sim.step); dedicated per-step wrapper spans here would
        # cost more than the dispatch they measure.
        self._fire_due_controllers()

        for player in self._players.values():
            player.issue_requests(now)
            player.note_time(end)

        # The scheduler opens its own phase spans (mac.claims /
        # mac.sched) directly under sim.step; a grouping wrapper here
        # would only measure its own overhead.
        allocations = self.scheduler.allocate(
            now, step_s, self._flows, self.config.prbs_per_step,
            self.registry)

        checker = chk.CHECKER
        if checker is not None:
            checker.check_rb_conservation(
                now,
                sum(a.prbs for a in allocations.values()),
                self.config.prbs_per_step,
            )

        tracer = obs.TRACER
        step_prbs = 0.0
        step_bytes = 0.0
        if profiler is not None:
            profiler.begin("sim.deliver")
        # A completion callback may remove flows (``remove_flow``
        # rebinds ``_flows``): from its removal on a flow gets nothing.
        flows = self._flows
        for flow in flows:
            if flows is not self._flows and flow not in self._flows:
                continue
            allocation = allocations.get(flow.flow_id)
            delivered = allocation.bytes_delivered if allocation else 0.0
            prbs = allocation.prbs if allocation else 0.0
            flow.on_scheduled(delivered, step_s)
            if flows is not self._flows and flow not in self._flows:
                continue
            if prbs > 0 or delivered > 0:
                self.trace.record(flow.flow_id, prbs, delivered)
                if tracer is not None:
                    step_prbs += prbs
                    step_bytes += delivered
                    tracer.emit(
                        obs_events.TTI_ALLOC, now,
                        flow=flow.flow_id,
                        ue=flow.ue.ue_id,
                        kind=flow.kind.value,
                        prbs=prbs,
                        gbr_prbs=allocation.gbr_prbs if allocation else 0.0,
                        tbs_bytes=delivered,
                        itbs=flow.ue.channel.itbs_at(now),
                    )

        if profiler is not None:
            profiler.switch("has.playback")
        for player in self._players.values():
            player.advance_playback(end, step_s)
        if profiler is not None:
            profiler.end()

        if tracer is not None:
            tracer.emit(obs_events.SIM_STEP, now, cell=self.cell_id,
                        flows=len(self._flows), prbs=step_prbs,
                        bytes=step_bytes)

        self._steps += 1
        for hook in self._step_hooks:
            hook(end)
        if profiler is not None:
            profiler.end()

    def run(self, duration_s: float) -> None:
        """Run until the first step whose end reaches ``duration_s``."""
        require_positive("duration_s", duration_s)
        self._run_to(self._stop_step(duration_s))

    def _run_to(self, stop: int) -> bool:
        """Step until ``stop`` steps are done; True if the kernel ran."""
        if self._kernel.run(stop):
            return True
        while self._steps < stop:
            self.step()
        return False
