"""Metro scenario: a grid of cells, roaming UEs, one plan object.

Builds the :class:`~repro.sim.network.NetworkPlan` the multi-cell
:class:`~repro.sim.network.Network` executes.  Everything about the
build is *spawn-keyed*: UE ``g``'s mobility, fading and start jitter
come from ``default_rng([seed, TAG, g])`` child streams, and its
ue/flow ids are the global index ``g`` itself — so a shard worker
constructing only its own cells produces objects bit-identical to a
single process constructing the whole metro, and the parent can
replay any UE's trajectory without talking to a worker.

The builders (:func:`build_metro_cell`, :func:`metro_mobility`) are
module-level functions on purpose: plans carry them by reference, so
a plan pickles into a shard worker without shipping code.
"""

from __future__ import annotations

import numpy as np

from repro.core.controller import FlareSystem
from repro.has.mpd import SIMULATION_LADDER, MediaPresentation
from repro.metrics.collector import MetricsSampler
from repro.net.flows import UserEquipment
from repro.phy.channel import FadingProcess
from repro.phy.mobility import MobilityModel, RandomWaypointMobility
from repro.sim.cell import Cell, CellConfig
from repro.sim.network import (
    BuiltCell,
    MetroChannel,
    NetworkPlan,
    PenaltyMap,
    UePlan,
    grid_site_plan,
)
from repro.util import require_positive
from repro.workload.scenarios import (
    CLIENT_SCHEMES,
    _client_abr,
    _player_config,
    start_jitter,
)

#: Spawn-key tags namespacing the metro's RNG streams (the single-cell
#: builders use 101/202/5xx; metro gets its own 6xx block).
MOBILITY_TAG = 611
FADING_TAG = 612
START_TAG = 613

#: Schemes the metro builder accepts.
METRO_SCHEMES = ("flare",) + CLIENT_SCHEMES


def metro_mobility(plan: NetworkPlan, ue_id: int) -> MobilityModel:
    """UE ``ue_id``'s trajectory, reconstructible anywhere.

    Both the plan builder (for each UE's initial cell) and the cell
    builder (for the channel) call this; the spawn-keyed RNG
    guarantees they see the same waypoints.
    """
    params = plan.params
    rng = np.random.default_rng([int(params["seed"]), MOBILITY_TAG, ue_id])
    return RandomWaypointMobility(
        plan.sites.bounds, rng,
        speed_min_mps=float(params["speed_min_mps"]),
        speed_max_mps=float(params["speed_max_mps"]),
    )


def build_metro_cell(plan: NetworkPlan, cell_id: int,
                     penalties: PenaltyMap) -> BuiltCell:
    """Construct one metro cell with its initially-resident UEs.

    FLARE gets a per-cell :class:`FlareSystem` whose BAI equals the
    network's exchange interval (the coordination epochs line up);
    client-side schemes get their usual per-player ABR.  Every UE rides
    a :class:`MetroChannel` bound to this shard's shared ``penalties``
    map.
    """
    params = plan.params
    scheme = str(params["scheme"])
    seed = int(params["seed"])
    segment_s = float(params["segment_s"])
    mpd = MediaPresentation(ladder=SIMULATION_LADDER,
                            segment_duration_s=segment_s)
    cell = Cell(CellConfig(cell_id=cell_id,
                           step_s=float(params["step_s"])))
    system: FlareSystem | None = None
    if scheme == "flare":
        system = FlareSystem(
            solver=str(params["solver"]),
            delta=int(params["delta"]),
            alpha=float(params["alpha"]),
            bai_s=plan.exchange_s,
            cost_smoothing=0.1,
        )
        system.install(cell)
    built = BuiltCell(cell=cell, system=system,
                      sampler=MetricsSampler(interval_s=1.0))
    for ue_plan in plan.ues:
        if ue_plan.cell_id != cell_id:
            continue
        index = ue_plan.ue_id
        mobility = metro_mobility(plan, index)
        fading = FadingProcess(
            np.random.default_rng([seed, FADING_TAG, index]))
        channel = MetroChannel(mobility, plan.sites, fading, cell_id,
                               penalties=penalties)
        ue = UserEquipment(channel, ue_id=index)
        start = start_jitter(seed, START_TAG, index, segment_s)
        config = _player_config(scheme, segment_s, start)
        if system is not None:
            player = system.attach_client(cell, ue, mpd, config,
                                          flow_id=ue_plan.flow_id)
        else:
            player = cell.add_video_flow(
                ue, mpd, _client_abr(scheme, segment_s), config,
                flow_id=ue_plan.flow_id)
        built.players[ue_plan.flow_id] = player
    cell.add_controller(built.sampler)
    return built


def build_metro_plan(
    num_cells: int = 16,
    ues_per_cell: int = 4,
    scheme: str = "flare",
    seed: int = 0,
    isd_m: float = 500.0,
    exchange_s: float = 2.0,
    coupling_db: float = 3.0,
    hysteresis_db: float = 3.0,
    segment_s: float = 10.0,
    step_s: float = 0.02,
    speed_min_mps: float = 5.0,
    speed_max_mps: float = 15.0,
    solver: str = "exact",
    delta: int = 4,
    alpha: float = 1.0,
    total_ues: int | None = None,
) -> NetworkPlan:
    """The metro world: ``num_cells`` grid sites, roaming UEs.

    ``ues_per_cell`` scales the population — ``num_cells *
    ues_per_cell`` UEs are dropped uniformly over the whole field and
    each starts in its least-path-loss cell, so initial per-cell
    occupancy is only *approximately* ``ues_per_cell``.  ``total_ues``
    overrides that product directly, e.g. for a world with fewer UEs
    than cells.  UE ``g``'s ue and flow ids are both ``g``.
    """
    require_positive("ues_per_cell", ues_per_cell)
    if total_ues is not None:
        require_positive("total_ues", total_ues)
    if scheme not in METRO_SCHEMES:
        raise ValueError(f"unknown metro scheme {scheme!r}; "
                         f"expected one of {METRO_SCHEMES}")
    sites = grid_site_plan(num_cells, isd_m)
    params = {
        "scheme": scheme,
        "seed": seed,
        "segment_s": segment_s,
        "step_s": step_s,
        "speed_min_mps": speed_min_mps,
        "speed_max_mps": speed_max_mps,
        "solver": solver,
        "delta": delta,
        "alpha": alpha,
    }
    # A UE-less probe plan carries params/sites so metro_mobility can
    # run before the initial cell of each UE is known.
    probe = NetworkPlan(
        sites=sites, ues=(), cell_builder=build_metro_cell,
        exchange_s=exchange_s, coupling_db=coupling_db,
        hysteresis_db=hysteresis_db, params=params)
    count = total_ues if total_ues is not None else num_cells * ues_per_cell
    xs = []
    ys = []
    for index in range(count):
        origin = metro_mobility(probe, index).position_at(0.0)
        xs.append(origin[0])
        ys.append(origin[1])
    # Batched initial assignment: one argmin over the clamped squared
    # distances, exactly the per-UE best_cell() choice (see
    # SitePlan.nearest_cells) without a Python loop over cells per UE.
    homes = sites.nearest_cells(np.asarray(xs), np.asarray(ys))
    ues = [UePlan(ue_id=index, flow_id=index, cell_id=int(home))
           for index, home in enumerate(homes)]
    return NetworkPlan(
        sites=sites, ues=tuple(ues), cell_builder=build_metro_cell,
        exchange_s=exchange_s, coupling_db=coupling_db,
        hysteresis_db=hysteresis_db, params=params)
