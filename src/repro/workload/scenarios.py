"""Scenario builders: one per experiment in the paper's evaluation.

Each builder assembles a fully wired :class:`repro.sim.cell.Cell`
(UEs, channels, flows, players, scheme-specific controllers, metrics
sampler) and returns a :class:`Scenario` handle whose :meth:`run`
produces the :class:`~repro.metrics.collector.CellReport` the tables
and figures are built from.

Calibration note: the paper's femtocell reports "iTbs = 2" for the
static testbed scenario, yet the measured aggregate throughput
(~4.5 Mbps across three video flows and one data flow in Table I)
corresponds to a much higher working point of the standard 36.213 TBS
table — the JL-620's proprietary iTbs override evidently uses its own
indexing.  We therefore calibrate the static scenario's TBS index so
that the *cell capacity* matches the paper's observed aggregate
(default ``static_itbs = 7`` -> 5.2 Mbps peak), and keep the dynamic
scenario's published 1 -> 12 sweep, whose standard-table capacity range
(1.2 - 10.4 Mbps) already brackets the paper's dynamic numbers.  See
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.abr.avis import AvisNetworkAgent, AvisUeAdapter
from repro.abr.base import AbrAlgorithm
from repro.abr.bba import BufferBased
from repro.abr.festive import Festive
from repro.abr.google import GoogleDemo
from repro.abr.mpc import ModelPredictive
from repro.abr.rate_based import RateBased
from repro.core.controller import FlareSystem
from repro.has.mpd import (
    FINE_LADDER,
    SIMULATION_LADDER,
    TESTBED_LADDER,
    BitrateLadder,
    MediaPresentation,
)
from repro.has.player import HasPlayer, PlayerConfig
from repro.metrics.collector import (
    CellReport,
    MetricsSampler,
    collect_cell_report,
)
from repro.net.flows import DataFlow, UserEquipment, reset_entity_ids
from repro.phy.channel import (
    ChannelModel,
    CyclicItbsChannel,
    FadingChannel,
    FadingProcess,
    StaticItbsChannel,
    TraceItbsChannel,
)
from repro.phy.cqi import LinkAdaptation
from repro.phy.mobility import (
    Field,
    RandomWaypointMobility,
    StaticMobility,
)
from repro.phy.pathloss import LinkBudget, LogDistancePathLoss
from repro.sim.cell import Cell, CellConfig

#: Schemes accepted by the builders.
CLIENT_SCHEMES = ("festive", "google", "rate", "bba", "mpc")
COORDINATED_SCHEMES = ("flare", "avis")
ALL_SCHEMES = CLIENT_SCHEMES + COORDINATED_SCHEMES

#: Simulation-study path-loss/link-budget calibration (see module doc).
SIM_PATHLOSS = LogDistancePathLoss(exponent=2.8, pl0_db=40.0)
SIM_LINK_BUDGET = LinkBudget(tx_power_dbm=46.0, bandwidth_hz=10e6,
                             noise_figure_db=9.0)


@dataclass
class FlareParams:
    """FLARE's tunables (paper Table IV defaults).

    ``cost_smoothing`` is ``None`` by default: each scenario builder
    picks the horizon matching its channel's noise timescale (raw-ish
    0.5 for the deterministic testbed channels, 0.1 for the noisy
    fading-cell channels).
    """

    alpha: float = 1.0
    delta: int = 4
    bai_s: float = 2.0
    solver: str = "exact"
    enforce_gbr: bool = True
    enforce_step_limit: bool = True
    cost_smoothing: float | None = None


@dataclass
class Scenario:
    """A fully built experiment ready to run.

    Attributes:
        cell: the wired cell.
        sampler: the installed metrics sampler.
        duration_s: how long :meth:`run` simulates.
        scheme: scheme name used for labelling.
        players: the HAS players, in client order.
        data_flows: the bulk flows, in client order.
        flare: the FLARE system when ``scheme == 'flare'``.
    """

    cell: Cell
    sampler: MetricsSampler
    duration_s: float
    scheme: str
    players: list[HasPlayer] = field(default_factory=list)
    data_flows: list[DataFlow] = field(default_factory=list)
    flare: FlareSystem | None = None

    def run(self) -> CellReport:
        """Simulate to completion and return the cell report."""
        self.cell.run(self.duration_s)
        return collect_cell_report(self.cell, self.sampler, self.duration_s)


def start_jitter(seed: int, tag: int, index: int,
                 segment_s: float) -> float:
    """Per-entity start-time jitter in ``[0, segment_s)``.

    Every entity draws from its own ``default_rng([seed, tag, index])``
    child stream, so adding or removing one client never shifts the
    draws of any other — the same spawn-key discipline the channel
    models use.  ``tag`` namespaces the stream per builder.
    """
    rng = np.random.default_rng([seed, tag, index])
    return float(rng.uniform(0.0, segment_s))


def _client_abr(scheme: str, segment_s: float) -> AbrAlgorithm:
    """Fresh ABR instance for one client of a client-side scheme."""
    if scheme == "festive":
        return Festive()
    if scheme == "google":
        return GoogleDemo()
    if scheme == "rate":
        return RateBased()
    if scheme == "bba":
        return BufferBased(reservoir_s=segment_s,
                           cushion_s=3.0 * segment_s)
    if scheme == "mpc":
        return ModelPredictive()
    raise ValueError(f"unknown client scheme {scheme!r}")


def _player_config(scheme: str, segment_s: float, start_time_s: float,
                   google_threshold_s: float = 15.0) -> PlayerConfig:
    """Scheme-specific player policy.

    FESTIVE targets ``k`` segments of buffer (Table IV: k = 4); GOOGLE
    uses the paper's small request threshold plus the demo player's
    aggressive 1-second startup/interruption margin ("frequent
    re-buffering interruptions whenever the amount of buffered video
    data falls below 1 second"); coordinated schemes use a comfortable
    3-segment threshold.
    """
    if scheme == "festive":
        threshold = 4.0 * segment_s
    elif scheme == "google":
        return PlayerConfig(
            startup_threshold_s=1.0,
            resume_threshold_s=1.0,
            request_threshold_s=google_threshold_s,
            start_time_s=start_time_s,
        )
    else:
        threshold = 3.0 * segment_s
    return PlayerConfig(request_threshold_s=threshold,
                        start_time_s=start_time_s)


def _attach_clients(
    cell: Cell,
    scheme: str,
    ues: list[UserEquipment],
    mpd: MediaPresentation,
    flare_params: FlareParams,
    start_times: list[float],
    google_threshold_s: float = 15.0,
    default_cost_smoothing: float = 0.1,
) -> (list[HasPlayer], FlareSystem | None):
    """Attach one video client per UE according to ``scheme``."""
    players: list[HasPlayer] = []
    flare: FlareSystem | None = None
    if scheme == "flare":
        smoothing = (flare_params.cost_smoothing
                     if flare_params.cost_smoothing is not None
                     else default_cost_smoothing)
        flare = FlareSystem(
            solver=flare_params.solver,
            delta=flare_params.delta,
            alpha=flare_params.alpha,
            bai_s=flare_params.bai_s,
            enforce_gbr=flare_params.enforce_gbr,
            enforce_step_limit=flare_params.enforce_step_limit,
            cost_smoothing=smoothing,
        )
        flare.install(cell)
        for ue, start in zip(ues, start_times):
            config = _player_config(scheme, mpd.segment_duration_s, start)
            players.append(flare.attach_client(cell, ue, mpd, config))
    elif scheme == "avis":
        cell.add_controller(AvisNetworkAgent())
        for ue, start in zip(ues, start_times):
            config = _player_config(scheme, mpd.segment_duration_s, start)
            players.append(cell.add_video_flow(
                ue, mpd, AvisUeAdapter(), config))
    elif scheme in CLIENT_SCHEMES:
        for ue, start in zip(ues, start_times):
            config = _player_config(scheme, mpd.segment_duration_s, start,
                                    google_threshold_s)
            players.append(cell.add_video_flow(
                ue, mpd, _client_abr(scheme, mpd.segment_duration_s),
                config))
    else:
        raise ValueError(f"unknown scheme {scheme!r}; "
                         f"expected one of {ALL_SCHEMES}")
    return players, flare


# ----------------------------------------------------------------------
# Testbed scenarios (Table I / Figure 4, Table II / Figure 5)
# ----------------------------------------------------------------------
def build_testbed_scenario(
    scheme: str,
    dynamic: bool = False,
    seed: int = 0,
    duration_s: float = 600.0,
    num_video: int = 3,
    num_data: int = 1,
    static_itbs: int = 7,
    segment_s: float = 4.0,
    ladder: BitrateLadder | None = None,
    flare_params: FlareParams | None = None,
    step_s: float = 0.02,
) -> Scenario:
    """The femtocell testbed: 3 video flows + 1 Iperf data flow.

    Args:
        scheme: 'festive', 'google' or 'flare' (the testbed comparison
            set); other schemes are accepted for ablations.
        dynamic: False -> fixed iTbs; True -> the paper's triangular
            1 -> 12 -> 1 sweep (4-minute cycle, per-UE offsets).
        static_itbs: calibrated TBS index of the static scenario.
    """
    reset_entity_ids()
    flare_params = flare_params or FlareParams()
    ladder = ladder or TESTBED_LADDER
    mpd = MediaPresentation(ladder=ladder, segment_duration_s=segment_s)
    cell = Cell(CellConfig(step_s=step_s))
    num_ues = num_video + num_data

    def make_channel(index: int) -> ChannelModel:
        if not dynamic:
            return StaticItbsChannel(static_itbs)
        offset = index * 240.0 / max(num_ues, 1)
        return CyclicItbsChannel(lo=1, hi=12, cycle_s=240.0,
                                 offset_s=offset)

    video_ues = [UserEquipment(make_channel(i)) for i in range(num_video)]
    data_ues = [UserEquipment(make_channel(num_video + i))
                for i in range(num_data)]
    start_times = [start_jitter(seed, 501, i, segment_s)
                   for i in range(num_video)]
    google_threshold = 40.0 if dynamic else 15.0
    players, flare = _attach_clients(
        cell, scheme, video_ues, mpd, flare_params, start_times,
        google_threshold_s=google_threshold,
        default_cost_smoothing=0.5)
    data_flows = [cell.add_data_flow(ue) for ue in data_ues]
    sampler = MetricsSampler(interval_s=1.0)
    cell.add_controller(sampler)
    return Scenario(cell=cell, sampler=sampler, duration_s=duration_s,
                    scheme=scheme, players=players, data_flows=data_flows,
                    flare=flare)


# ----------------------------------------------------------------------
# Simulation-study scenarios (Figures 6-10)
# ----------------------------------------------------------------------
def _fading_channel(rng: np.random.Generator, field: Field,
                    mobile: bool) -> ChannelModel:
    """One UE's ns-3-equivalent channel (mobility + fading chain)."""
    # Fast fading decorrelates at millisecond scale, so over a BAI (or a
    # segment download) it averages close to its mean: only a small
    # residual is kept.  Shadowing persists: nearly frozen for a static
    # UE, decorrelating over ~50 m (a few seconds) for a vehicle.
    if mobile:
        # Both models draw lazily as time extends: separate streams
        # keep each one's draws independent of who queries when.
        mobility_rng, fading_rng = rng.spawn(2)
        mobility = RandomWaypointMobility(
            field, mobility_rng, speed_min_mps=8.0, speed_max_mps=25.0)
        fading = FadingProcess(fading_rng, sample_period_s=0.5,
                               shadowing_std_db=6.0,
                               shadowing_corr=0.9,
                               fast_fading_std_db=2.0,
                               fast_fading_corr=0.85)
    else:
        mobility = StaticMobility(field.random_position(rng))
        fading = FadingProcess(rng, sample_period_s=0.5,
                               shadowing_std_db=5.0,
                               shadowing_corr=0.98,
                               fast_fading_std_db=1.8,
                               fast_fading_corr=0.85)
    return FadingChannel(
        mobility=mobility,
        enb_position=field.center,
        fading=fading,
        pathloss=SIM_PATHLOSS,
        link_budget=SIM_LINK_BUDGET,
        link_adaptation=LinkAdaptation(),
    )


def build_cell_scenario(
    scheme: str,
    mobile: bool = False,
    seed: int = 0,
    num_video: int = 8,
    num_data: int = 0,
    duration_s: float = 1200.0,
    segment_s: float = 10.0,
    ladder: BitrateLadder | None = None,
    flare_params: FlareParams | None = None,
    step_s: float = 0.02,
) -> Scenario:
    """The ns-3-style cell: N clients in a 2000 m x 2000 m field.

    Table III defaults: 8 clients, random placement, trace-based
    fading, 10 s segments, the 100-3000 kbps ladder, 1200 s runs.
    """
    reset_entity_ids()
    flare_params = flare_params or FlareParams()
    ladder = ladder or SIMULATION_LADDER
    mpd = MediaPresentation(ladder=ladder, segment_duration_s=segment_s)
    field_area = Field(2000.0, 2000.0)
    cell = Cell(CellConfig(step_s=step_s))

    video_ues = [
        UserEquipment(_fading_channel(
            np.random.default_rng([seed, 101, i]), field_area, mobile))
        for i in range(num_video)
    ]
    data_ues = [
        UserEquipment(_fading_channel(
            np.random.default_rng([seed, 202, i]), field_area, mobile))
        for i in range(num_data)
    ]
    start_times = [start_jitter(seed, 502, i, segment_s)
                   for i in range(num_video)]
    players, flare = _attach_clients(
        cell, scheme, video_ues, mpd, flare_params, start_times)
    data_flows = [cell.add_data_flow(ue) for ue in data_ues]
    sampler = MetricsSampler(interval_s=1.0)
    cell.add_controller(sampler)
    return Scenario(cell=cell, sampler=sampler, duration_s=duration_s,
                    scheme=scheme, players=players, data_flows=data_flows,
                    flare=flare)


def build_mixed_scenario(
    scheme: str = "flare",
    mobile: bool = False,
    seed: int = 0,
    num_video: int = 8,
    num_data: int = 8,
    duration_s: float = 1200.0,
    ladder: BitrateLadder | None = None,
    flare_params: FlareParams | None = None,
    step_s: float = 0.02,
) -> Scenario:
    """Figure 10's workload: 8 video + 8 data clients, fine ladder."""
    return build_cell_scenario(
        scheme=scheme,
        mobile=mobile,
        seed=seed,
        num_video=num_video,
        num_data=num_data,
        duration_s=duration_s,
        ladder=ladder or FINE_LADDER,
        flare_params=flare_params,
        step_s=step_s,
    )


def build_coexistence_scenario(
    seed: int = 0,
    num_flare: int = 4,
    num_legacy: int = 4,
    duration_s: float = 600.0,
    mobile: bool = False,
    flare_params: FlareParams | None = None,
    step_s: float = 0.02,
) -> Scenario:
    """Deployment extension (paper Section V): FLARE and legacy players
    sharing one cell.

    Legacy (FESTIVE) clients are served like data traffic — no GBR, no
    plugin — while FLARE clients receive coordinated assignments.  The
    returned scenario's first ``num_flare`` players are the FLARE
    clients.
    """
    reset_entity_ids()
    flare_params = flare_params or FlareParams()
    field_area = Field(2000.0, 2000.0)
    mpd = MediaPresentation(ladder=SIMULATION_LADDER,
                            segment_duration_s=10.0)
    cell = Cell(CellConfig(step_s=step_s))

    flare = FlareSystem(
        solver=flare_params.solver, delta=flare_params.delta,
        alpha=flare_params.alpha, bai_s=flare_params.bai_s,
        enforce_gbr=flare_params.enforce_gbr,
        enforce_step_limit=flare_params.enforce_step_limit)
    flare.install(cell)

    players: list[HasPlayer] = []
    for i in range(num_flare):
        ue = UserEquipment(_fading_channel(
            np.random.default_rng([seed, 301, i]), field_area, mobile))
        config = _player_config("flare", 10.0,
                                start_jitter(seed, 311, i, 10.0))
        players.append(flare.attach_client(cell, ue, mpd, config))
    for i in range(num_legacy):
        ue = UserEquipment(_fading_channel(
            np.random.default_rng([seed, 302, i]), field_area, mobile))
        config = _player_config("festive", 10.0,
                                start_jitter(seed, 312, i, 10.0))
        players.append(cell.add_video_flow(ue, mpd, Festive(), config))
    sampler = MetricsSampler(interval_s=1.0)
    cell.add_controller(sampler)
    return Scenario(cell=cell, sampler=sampler, duration_s=duration_s,
                    scheme="coexistence", players=players, data_flows=[],
                    flare=flare)


def build_scale_scenario(
    scheme: str = "festive",
    seed: int = 0,
    num_video: int = 2048,
    duration_s: float = 60.0,
    segment_s: float = 4.0,
    ladder: BitrateLadder | None = None,
    flare_params: FlareParams | None = None,
    step_s: float = 0.02,
) -> Scenario:
    """Scale stressor: thousands of concurrent players in one cell.

    Exercises the TTI kernel's struct-of-arrays fast path far beyond
    the paper's 8-16 UEs (Probe-and-Adapt / COMETS argue coordinated
    HAS must be evaluated at this population).  Each UE rides its own
    phase of a deterministic cyclic iTbs sweep, and start times are
    staggered with the usual per-entity jitter so request boundaries
    do not synchronise.  Intended for ``flare-repro profile scale``
    and the micro-benchmarks, not for paper tables.
    """
    reset_entity_ids()
    flare_params = flare_params or FlareParams()
    ladder = ladder or TESTBED_LADDER
    mpd = MediaPresentation(ladder=ladder, segment_duration_s=segment_s)
    cell = Cell(CellConfig(step_s=step_s))

    video_ues = [
        UserEquipment(CyclicItbsChannel(
            lo=1, hi=12, cycle_s=240.0,
            offset_s=i * 240.0 / max(num_video, 1)))
        for i in range(num_video)
    ]
    start_times = [start_jitter(seed, 505, i, segment_s)
                   for i in range(num_video)]
    players, flare = _attach_clients(
        cell, scheme, video_ues, mpd, flare_params, start_times,
        default_cost_smoothing=0.5)
    sampler = MetricsSampler(interval_s=1.0)
    cell.add_controller(sampler)
    return Scenario(cell=cell, sampler=sampler, duration_s=duration_s,
                    scheme=scheme, players=players, data_flows=[],
                    flare=flare)


def build_trace_scenario(
    scheme: str,
    trace_kind: str = "random-walk",
    seed: int = 0,
    num_video: int = 4,
    num_data: int = 0,
    duration_s: float = 600.0,
    segment_s: float = 10.0,
    ladder: BitrateLadder | None = None,
    flare_params: FlareParams | None = None,
    step_s: float = 0.02,
) -> Scenario:
    """Trace-driven cell: each UE replays a synthetic iTbs trace.

    Table III lists a "trace based model" for the channel; this builder
    is the trace-driven variant, using the synthetic generators of
    :mod:`repro.workload.traces` in place of proprietary drive-test
    traces ("random-walk" or "markov-fade").
    """
    from repro.workload.traces import (
        markov_fade_itbs_trace,
        random_walk_itbs_trace,
    )

    reset_entity_ids()
    flare_params = flare_params or FlareParams()
    ladder = ladder or SIMULATION_LADDER
    mpd = MediaPresentation(ladder=ladder, segment_duration_s=segment_s)
    cell = Cell(CellConfig(step_s=step_s))

    def make_channel(index: int) -> ChannelModel:
        child = np.random.default_rng([seed, 404, index])
        if trace_kind == "random-walk":
            trace = random_walk_itbs_trace(child, duration_s,
                                           start_itbs=12, lo=3, hi=24)
        elif trace_kind == "markov-fade":
            trace = markov_fade_itbs_trace(child, duration_s,
                                           good_itbs=18, bad_itbs=4)
        else:
            raise ValueError(f"unknown trace_kind {trace_kind!r}")
        return TraceItbsChannel(trace)

    video_ues = [UserEquipment(make_channel(i)) for i in range(num_video)]
    data_ues = [UserEquipment(make_channel(num_video + i))
                for i in range(num_data)]
    start_times = [start_jitter(seed, 504, i, segment_s)
                   for i in range(num_video)]
    players, flare = _attach_clients(
        cell, scheme, video_ues, mpd, flare_params, start_times)
    data_flows = [cell.add_data_flow(ue) for ue in data_ues]
    sampler = MetricsSampler(interval_s=1.0)
    cell.add_controller(sampler)
    return Scenario(cell=cell, sampler=sampler, duration_s=duration_s,
                    scheme=scheme, players=players, data_flows=data_flows,
                    flare=flare)
