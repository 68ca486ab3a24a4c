"""Metro-scale multi-cell world: many cells, one coordinated network.

The paper evaluates FLARE inside a single cell, but its deployment
story (Section II) is a metro area: many eNodeBs, UEs moving between
them, one OneAPI backend per cell.  :class:`Network` is that world as
a first-class object — it owns every :class:`~repro.sim.cell.Cell`,
the shared PHY geometry (:class:`SitePlan`), mobility-driven X2
handover through :class:`~repro.workload.handover.HandoverManager`,
and epoch-frozen inter-cell interference coupling.

Execution contract — the *epoch* (default: one BAI, 2 s) is the unit
of coordination.  Within an epoch every cell is fully independent:
interference penalties are frozen (:class:`PenaltyMap`), handovers
only happen at epoch boundaries, and no cell reads another cell's
state.  That independence is what makes three execution modes produce
**byte-identical** per-cell results:

* ``lockstep`` — every cell advances one fluid step before any cell
  takes its next (:func:`~repro.sim.engine.advance_cells_lockstep`);
  the reference schedule, which ``MultiCellScenario`` also uses.
* batched (``shards=1``) — each cell runs its whole epoch in one
  :func:`~repro.sim.kernel.run_cells` kernel invocation, in-process.
* sharded (``shards>1``) — cells are partitioned into contiguous
  blocks across a persistent process pool
  (:class:`~repro.experiments.parallel.ShardPool`); only cross-shard
  handover blobs and per-cell PRB usage cross shard boundaries, once
  per epoch (intra-shard handovers never serialize anything).

Both kernel modes run one pipelined epoch loop (:meth:`Network.run`);
``shards=1`` drives it over :class:`LocalShards`, an in-process
transport with the pool's send/recv protocol.

Handover is planned in the parent from *working points* the shards
report: at each epoch boundary every shard evaluates its resident
UEs' path losses toward every site in one numpy matrix, and ships the
per-UE argmin row (best cell plus the serving/best losses) back to
the parent, which applies the hysteresis rule as array operations.
Because trajectories are deterministic, a shard can evaluate the
*next* boundary's working points before running the epoch — the
parent plans epoch ``k+1``'s handovers while the shards are still
stepping epoch ``k``'s TTIs (see :meth:`Network.run`).  The migrating
player and its FLARE plugin are pickled in a single ``dumps`` call so
shared references (the plugin is reachable both directly and via
``player.abr``) survive as one object.
"""

from __future__ import annotations

import math
import pickle
import struct
from dataclasses import dataclass, field
from collections import deque
from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.core.batch import BatchBaiPlane
from repro.core.controller import FlareSystem
from repro.has.player import HasPlayer
from repro.metrics.collector import CellReport, collect_cell_report
from repro.obs import events as obs_events
from repro.obs import prof
from repro.obs import telemetry as obs_telemetry
from repro.obs import tracer as obs
from repro.obs.telemetry import CellEpochRecord
from repro.phy import tbs
from repro.phy.channel import ChannelModel, FadingProcess
from repro.phy.cqi import (
    CQI_SINR_THRESHOLDS_DB,
    LinkAdaptation,
    itbs_from_cqi,
)
from repro.phy.mobility import Field, MobilityModel, Position
from repro.phy.pathloss import LinkBudget, LogDistancePathLoss
from repro.phy.tbs import PRB_PER_TTI_10MHZ, TTI_MS
from repro.sim.cell import Cell
from repro.sim.engine import advance_cells_lockstep
from repro.sim.kernel import run_cells
from repro.util import (
    ShardPoolError,
    cross_shard_message,
    require_non_negative,
    require_positive,
    step_time,
    whole_ttis,
)
from repro.workload.handover import HandoverManager, HandoverRecord


@dataclass(frozen=True)
class SitePlan:
    """Shared PHY geometry of the metro: eNodeB sites + link models.

    Attributes:
        positions: eNodeB site coordinates; the index is the cell id.
        bounds: the rectangular field UEs roam inside.
        pathloss: path-loss model shared by every link.
        link_budget: link budget shared by every cell (macro default).
        neighbour_radius_m: sites within this distance interfere with
            each other (the coupling graph's edge rule).
    """

    positions: tuple[Position, ...]
    bounds: Field
    pathloss: LogDistancePathLoss = LogDistancePathLoss()
    link_budget: LinkBudget = LinkBudget(tx_power_dbm=46.0)
    neighbour_radius_m: float = 750.0

    def __post_init__(self) -> None:
        if not self.positions:
            raise ValueError("a SitePlan needs at least one site")
        require_positive("neighbour_radius_m", self.neighbour_radius_m)

    @property
    def num_cells(self) -> int:
        """Number of sites (= cells) in the plan."""
        return len(self.positions)

    def site(self, cell_id: int) -> Position:
        """Coordinates of cell ``cell_id``'s eNodeB."""
        if not 0 <= cell_id < len(self.positions):
            raise ValueError(f"unknown cell id {cell_id}")
        return self.positions[cell_id]

    def loss_db(self, cell_id: int, position: Position) -> float:
        """Path loss from cell ``cell_id``'s site to ``position``."""
        site = self.site(cell_id)
        return self.pathloss.loss_db(
            math.hypot(position[0] - site[0], position[1] - site[1]))

    def best_cell(self, position: Position) -> int:
        """The least-path-loss cell at ``position``.

        Ties break to the lowest cell id (strict comparison while
        iterating in id order), keeping the choice deterministic.
        """
        best = 0
        best_loss = self.loss_db(0, position)
        for cell_id in range(1, len(self.positions)):
            loss = self.loss_db(cell_id, position)
            if loss < best_loss:
                best = cell_id
                best_loss = loss
        return best

    def loss_matrix_db(self, xs: Any, ys: Any) -> Any:
        """Path loss toward every site, as a positions × cells matrix.

        The numpy counterpart of :meth:`loss_db` for the batched
        handover planner.  ``numpy``'s ``hypot``/``log10`` may differ
        from ``libm`` by an ULP, which the planner tolerates — the
        matrix feeds a hysteresis comparison, never the byte-exact
        channel chain.
        """
        model = self.pathloss
        sx = np.asarray([site[0] for site in self.positions])
        sy = np.asarray([site[1] for site in self.positions])
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        distance = np.hypot(xs[:, None] - sx[None, :],
                            ys[:, None] - sy[None, :])
        clamped = np.maximum(distance, model.reference_m)
        scale = 10.0 * model.exponent
        return model.pl0_db + scale * np.log10(clamped / model.reference_m)

    def nearest_cells(self, xs: Any, ys: Any) -> Any:
        """Least-path-loss cell for many positions at once.

        Matches :meth:`best_cell` per row: loss is strictly
        increasing in distance beyond the reference distance and
        saturated below it, so ``argmin`` over the clamped *squared*
        distance (plain float arithmetic, no transcendentals)
        reproduces the scalar loss comparison, with ``argmin``'s
        first-occurrence rule matching the lowest-id tie break.
        """
        sx = np.asarray([site[0] for site in self.positions])
        sy = np.asarray([site[1] for site in self.positions])
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        dist_sq = ((xs[:, None] - sx[None, :]) ** 2
                   + (ys[:, None] - sy[None, :]) ** 2)
        reference_sq = self.pathloss.reference_m ** 2
        return np.argmin(np.maximum(dist_sq, reference_sq), axis=1)

    def neighbours_of(self, cell_id: int) -> tuple[int, ...]:
        """Ids of sites within ``neighbour_radius_m`` (excl. itself)."""
        site = self.site(cell_id)
        out = []
        for other in range(len(self.positions)):
            if other == cell_id:
                continue
            pos = self.positions[other]
            if math.hypot(pos[0] - site[0],
                          pos[1] - site[1]) <= self.neighbour_radius_m:
                out.append(other)
        return tuple(out)


def grid_site_plan(
    num_cells: int,
    isd_m: float = 500.0,
    pathloss: LogDistancePathLoss | None = None,
    link_budget: LinkBudget | None = None,
    neighbour_radius_m: float | None = None,
) -> SitePlan:
    """A near-square grid of sites with inter-site distance ``isd_m``.

    Sites sit at grid-square centres; the field is exactly the grid's
    bounding box, so every UE position has a nearest site at most
    ``isd_m / sqrt(2)`` away.  Default neighbour radius is 1.5 ISD —
    the 4-connected grid neighbours plus the diagonals.
    """
    require_positive("num_cells", num_cells)
    require_positive("isd_m", isd_m)
    cols = math.ceil(math.sqrt(num_cells))
    rows = math.ceil(num_cells / cols)
    positions = tuple(
        ((index % cols + 0.5) * isd_m, (index // cols + 0.5) * isd_m)
        for index in range(num_cells)
    )
    return SitePlan(
        positions=positions,
        bounds=Field(cols * isd_m, rows * isd_m),
        pathloss=pathloss if pathloss is not None else LogDistancePathLoss(),
        link_budget=(link_budget if link_budget is not None
                     else LinkBudget(tx_power_dbm=46.0)),
        neighbour_radius_m=(neighbour_radius_m
                            if neighbour_radius_m is not None
                            else 1.5 * isd_m),
    )


class PenaltyMap:
    """Per-cell interference penalties, frozen for one epoch.

    One instance is shared by every :class:`MetroChannel` in a shard;
    the network replaces its contents at each epoch boundary.  The
    ``epoch`` counter is part of the channels' cache key, so a
    replacement invalidates every cached iTbs without touching the
    channels themselves.
    """

    def __init__(self) -> None:
        self._db: dict[int, float] = {}
        self.epoch = 0

    def db_for(self, cell_id: int) -> float:
        """Interference penalty of ``cell_id`` in dB (0 when unset)."""
        return self._db.get(cell_id, 0.0)

    def replace(self, penalties: Mapping[int, float]) -> None:
        """Install the next epoch's penalties (invalidates caches)."""
        self._db = dict(penalties)
        self.epoch += 1


class MetroChannel(ChannelModel):
    """Full PHY chain against the *serving* site of a :class:`SitePlan`.

    Like :class:`~repro.phy.channel.FadingChannel` — mobility → path
    loss → fading → SINR → iTbs, cached at the fading resolution — but
    the eNodeB endpoint is whichever site currently serves the UE, and
    the epoch's interference penalty for that cell is subtracted from
    the SINR before link adaptation.  The TTI kernel classifies it
    into its primed-table mode (``_TABLE``, through the
    ``KERNEL_PRIMED_ITBS`` sentinel below): it reads each fading
    bucket's iTbs once from the table :func:`prime_metro_channels`
    installs for the epoch instead of calling :meth:`itbs_at` per
    slot per step.
    """

    def __init__(
        self,
        mobility: MobilityModel,
        sites: SitePlan,
        fading: FadingProcess,
        serving_cell: int,
        link_adaptation: LinkAdaptation | None = None,
        penalties: PenaltyMap | None = None,
    ) -> None:
        sites.site(serving_cell)  # validates the id
        self._mobility = mobility
        self._sites = sites
        self._fading = fading
        self._serving = serving_cell
        self._la = (link_adaptation if link_adaptation is not None
                    else LinkAdaptation())
        self._penalties = penalties if penalties is not None else PenaltyMap()
        self._period = fading._period  # fading resolution
        self._cache_key: tuple[int, int] | None = None
        self._cache_itbs = tbs.MIN_ITBS
        # Per-epoch primed iTbs table (see prime_metro_channels):
        # one value per fading bucket, valid for one penalty epoch.
        self._primed_first_bucket = 0
        self._primed_itbs: list[int] | None = None
        self._primed_epoch = -1

    @property
    def serving_cell(self) -> int:
        """Id of the cell currently serving this UE."""
        return self._serving

    @property
    def mobility(self) -> MobilityModel:
        """The UE's trajectory."""
        return self._mobility

    @property
    def fading_period_s(self) -> float:
        """The fading (and iTbs cache / primed table) resolution."""
        return self._period

    def handover(self, target_cell: int,
                 penalties: PenaltyMap | None = None) -> None:
        """Re-point the channel at ``target_cell``'s site.

        ``penalties`` rebinds the shared penalty map — required when
        the player was pickled across shards, because unpickling gave
        the channel a private *copy* of the source shard's map.
        """
        self._sites.site(target_cell)
        self._serving = target_cell
        if penalties is not None:
            self._penalties = penalties
        self._cache_key = None
        self._primed_itbs = None

    def prime(self, first_bucket: int, itbs_values: Sequence[int],
              penalty_epoch: int) -> None:
        """Install one epoch's precomputed per-bucket iTbs table.

        ``itbs_values[k]`` must be the scalar chain evaluated at the
        time of the first cell step (enumerated by step index, see
        :func:`prime_metro_channels`) falling inside fading bucket
        ``first_bucket + k`` — exactly the time at which the uncached
        scalar path evaluates that bucket — so a primed lookup is
        byte-identical to :meth:`itbs_at` without the table.  The
        table is only honoured while the penalty map still reports
        ``penalty_epoch``; a handover drops it.
        """
        self._primed_first_bucket = first_bucket
        self._primed_itbs = list(itbs_values)
        self._primed_epoch = penalty_epoch

    def primed_itbs(self, bucket: int) -> int | None:
        """The primed iTbs for fading ``bucket``, or None when stale."""
        values = self._primed_itbs
        if values is None or self._penalties.epoch != self._primed_epoch:
            return None
        offset = bucket - self._primed_first_bucket
        if 0 <= offset < len(values):
            return values[offset]
        return None

    def sinr_db_at(self, time_s: float) -> float:
        """SINR towards the serving site, minus its epoch penalty."""
        loss = self._sites.loss_db(
            self._serving, self._mobility.position_at(time_s))
        fade = self._fading.fading_db(time_s)
        sinr = self._sites.link_budget.sinr_db(loss, fade)
        return sinr - self._penalties.db_for(self._serving)

    def itbs_at(self, time_s: float) -> int:
        if self._primed_itbs is not None:
            primed = self.primed_itbs(math.floor(time_s / self._period))
            if primed is not None:
                return primed
        key = (math.floor(time_s / self._period), self._penalties.epoch)
        if self._cache_key != key:
            profiler = prof.PROFILER
            if profiler is not None:
                profiler.begin("phy.cqi")
            self._cache_itbs = self._la.itbs(self.sinr_db_at(time_s))
            self._cache_key = key
            if profiler is not None:
                profiler.end()
        return self._cache_itbs


#: Duck-typing sentinel the TTI kernel checks to classify a channel as
#: primed-table capable without importing this module.  The identity
#: comparison (``KERNEL_PRIMED_ITBS is type(channel).itbs_at``) means a
#: subclass overriding ``itbs_at`` no longer matches and falls back to
#: the per-step scalar path.
MetroChannel.KERNEL_PRIMED_ITBS = MetroChannel.itbs_at  # type: ignore[attr-defined]

#: iTbs per CQI index 0..15, precomputed for the vectorized priming
#: chain (``cqi_from_sinr`` reduces to a ``searchsorted`` against the
#: ascending thresholds; this table finishes the lookup).
_ITBS_BY_CQI = np.asarray([itbs_from_cqi(cqi) for cqi in range(16)],
                          dtype=np.int64)

_CQI_THRESHOLDS = np.asarray(CQI_SINR_THRESHOLDS_DB, dtype=np.float64)


def prime_metro_channels(channels: Sequence[MetroChannel], first_step: int,
                         stop_step: int, step_s: float) -> int:
    """Vectorize one epoch of every channel's iTbs chain.

    Enumerates the epoch's cell steps ``first_step .. stop_step - 1``
    by index, at the cells' own clock values
    (:func:`~repro.util.step_time`), to find, for each fading bucket
    the epoch touches, the first step time inside it; evaluates every
    channel's chain at those times; and installs the per-bucket tables
    via :meth:`MetroChannel.prime`.  Returns the number of buckets
    primed.  All channels must share one fading period (callers group
    by :attr:`MetroChannel.fading_period_s`).

    Exactness: positions, path loss and fading go through the same
    scalar calls the unprimed path makes (``numpy``'s ``hypot`` and
    ``log10`` can differ from ``libm`` by an ULP, and the byte-identity
    contract against the lockstep reference tolerates zero
    divergence); only the SINR arithmetic — elementwise ``+``/``-``,
    correctly rounded in both numpy and scalar float — and the CQI
    threshold scan (``searchsorted`` ≡ the break-on-first-fail loop)
    are batched.
    """
    if not channels:
        return 0
    period = channels[0]._period
    buckets: list[int] = []
    eval_times: list[float] = []
    last_bucket: int | None = None
    for step in range(first_step, stop_step):
        now = step_time(step, step_s)
        bucket = math.floor(now / period)
        if bucket != last_bucket:
            buckets.append(bucket)
            eval_times.append(now)
            last_bucket = bucket
    if not buckets:
        return 0
    loss_rows: list[float] = []
    fade_rows: list[float] = []
    hypot = math.hypot
    log10 = math.log10
    last = buckets[-1]
    for channel in channels:
        position_at = channel._mobility.position_at
        sites = channel._sites
        sx, sy = sites.positions[channel._serving]
        model = sites.pathloss
        pl0 = model.pl0_db
        ref = model.reference_m
        scale = 10.0 * model.exponent
        # Inlined SitePlan.loss_db / LogDistancePathLoss.loss_db with
        # the same operations in the same association order (``scale``
        # hoists ``10.0 * exponent``, the left-assoc prefix of the
        # scalar expression), so each row is the byte the scalar call
        # would produce.
        for time_s in eval_times:
            x, y = position_at(time_s)
            d = hypot(x - sx, y - sy)
            if d < ref:
                d = ref
            loss_rows.append(pl0 + scale * log10(d / ref))
        # One batched fading extension per channel: every bucket the
        # epoch touches is materialised by a single RNG draw (see
        # FadingProcess._extend_until), then indexed directly —
        # ``buckets`` already holds ``int(t / period)`` for each eval
        # time, which is what fading_db would compute.
        fading = channel._fading
        fading._extend_until(last)
        samples = fading._samples
        fade_rows += [samples[b] for b in buckets]
    count = len(channels)
    width = len(buckets)
    loss = np.asarray(loss_rows).reshape(count, width)
    fade = np.asarray(fade_rows).reshape(count, width)
    tx = np.asarray([c._sites.link_budget.tx_power_dbm
                     for c in channels])[:, None]
    noise = np.asarray([c._sites.link_budget.noise_floor_dbm()
                        for c in channels])[:, None]
    penalty = np.asarray([c._penalties.db_for(c._serving)
                          for c in channels])[:, None]
    backoff = np.asarray([c._la.backoff_db for c in channels])[:, None]
    # Same association order as the scalar chain: LinkBudget.sinr_db is
    # ((tx - loss) + fade) - noise, then the penalty, then the backoff
    # are subtracted one at a time.
    effective = (tx - loss + fade - noise) - penalty - backoff
    cqi = np.searchsorted(_CQI_THRESHOLDS, effective, side="right")
    itbs = _ITBS_BY_CQI[cqi]
    first = buckets[0]
    for index, channel in enumerate(channels):
        channel.prime(first, itbs[index].tolist(),
                      channel._penalties.epoch)
    return width


@dataclass(frozen=True)
class UePlan:
    """One UE of the metro: identity and starting cell.

    ``ue_id`` and ``flow_id`` are formula-based (assigned by the
    scenario builder), so a shard worker constructing only its own
    cells produces exactly the ids the parent planned.
    """

    ue_id: int
    flow_id: int
    cell_id: int


@dataclass
class BuiltCell:
    """One constructed cell plus its per-cell machinery."""

    cell: Cell
    system: FlareSystem | None
    players: dict[int, HasPlayer] = field(default_factory=dict)


@dataclass(frozen=True)
class NetworkPlan:
    """Complete, picklable description of a metro world.

    A plan must be constructible *identically* in the parent and in
    every shard worker: builders are module-level callables (pickled
    by reference) and all randomness is spawn-keyed off ids carried in
    ``params``.  ``cell_builder(plan, cell_id, penalties)`` returns a
    fully-wired :class:`BuiltCell`.

    Attributes:
        exchange_s: epoch length — the handover/interference exchange
            interval (default: one BAI).
        coupling_db: penalty per fully-loaded neighbour cell in dB
            (0 disables interference coupling).
        hysteresis_db: a candidate cell must beat the serving cell by
            this margin before a handover is issued.
        cell_prbs_per_second: per-cell air-interface capacity used to
            normalise PRB usage into utilisation.
    """

    sites: SitePlan
    ues: tuple[UePlan, ...]
    cell_builder: Callable[["NetworkPlan", int, PenaltyMap], BuiltCell]
    exchange_s: float = 2.0
    coupling_db: float = 0.0
    hysteresis_db: float = 3.0
    cell_prbs_per_second: float = PRB_PER_TTI_10MHZ / (TTI_MS / 1000.0)
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_positive("exchange_s", self.exchange_s)
        require_positive("cell_prbs_per_second", self.cell_prbs_per_second)
        require_non_negative("coupling_db", self.coupling_db)
        require_non_negative("hysteresis_db", self.hysteresis_db)
        num_cells = self.sites.num_cells
        seen: set[int] = set()
        for ue in self.ues:
            if not 0 <= ue.cell_id < num_cells:
                raise ValueError(
                    f"UE {ue.ue_id} starts in unknown cell {ue.cell_id}")
            if ue.ue_id in seen:
                raise ValueError(f"duplicate ue_id {ue.ue_id}")
            seen.add(ue.ue_id)


@cross_shard_message
@dataclass(frozen=True)
class WorkingPoints:
    """Per-UE radio working points a shard reports at a boundary.

    Parallel numpy arrays over the shard's resident UEs (arbitrary
    order): the serving cell, the overall-best cell, and the path
    losses toward both at the evaluation time.  This is everything the
    hysteresis rule needs — ~40 bytes per UE cross the process
    boundary instead of a UEs × cells loss matrix.

    Crossing the ShardPool pipe uses the blob contract (flarelint
    FL010): a fixed-layout byte string — UE count, then the int64 id /
    serving / best columns, then the float64 loss columns — instead of
    recursive object pickling, so the wire format is deterministic and
    version-independent.  Pickle delegates to the same blob.
    """

    ue_ids: Any
    serving: Any
    best: Any
    serving_loss_db: Any
    best_loss_db: Any

    _COLUMNS = ("ue_ids", "serving", "best",
                "serving_loss_db", "best_loss_db")
    _DTYPES = ("int64", "int64", "int64", "float64", "float64")

    def to_blob(self) -> bytes:
        """Serialize to the fixed-layout column blob."""
        count = int(np.asarray(self.ue_ids).shape[0])
        parts = [struct.pack("<q", count)]
        for name, dtype in zip(self._COLUMNS, self._DTYPES):
            column = np.ascontiguousarray(getattr(self, name),
                                          dtype=np.dtype(dtype))
            parts.append(column.tobytes())
        return b"".join(parts)

    @classmethod
    def from_blob(cls, blob: bytes) -> WorkingPoints:
        """Reconstruct from :meth:`to_blob` output."""
        (count,) = struct.unpack_from("<q", blob, 0)
        offset = struct.calcsize("<q")
        columns = {}
        for name, dtype in zip(cls._COLUMNS, cls._DTYPES):
            dt = np.dtype(dtype)
            columns[name] = np.frombuffer(
                blob, dtype=dt, count=count, offset=offset).copy()
            offset += count * dt.itemsize
        return cls(**columns)

    def __getstate__(self) -> bytes:
        return self.to_blob()

    def __setstate__(self, state: bytes) -> None:
        thawed = type(self).from_blob(state)
        for name in self._COLUMNS:
            object.__setattr__(self, name, getattr(thawed, name))


class NetworkShard:
    """A contiguous slice of the metro: some cells + their handovers.

    One instance runs per worker process (or a single instance
    in-process when ``shards=1``).  All cells of a shard share one
    :class:`PenaltyMap` and one
    :class:`~repro.workload.handover.HandoverManager`; handovers whose
    endpoints live on different shards arrive as pickle blobs.
    """

    def __init__(self, plan: NetworkPlan, cell_ids: Sequence[int]) -> None:
        self.plan = plan
        self.penalties = PenaltyMap()
        self.manager = HandoverManager()
        self._built: dict[int, BuiltCell] = {}
        for cell_id in cell_ids:
            self._built[cell_id] = plan.cell_builder(
                plan, cell_id, self.penalties)
        #: Telemetry cursors: flow_id -> stall count already reported,
        #: and cell_id -> (solves, infeasible, holds) lifetime counters
        #: already reported.  Only :meth:`epoch_telemetry` advances
        #: them; they never feed back into simulation state.
        self._stall_cursor: dict[int, int] = {}
        self._bai_cursor: dict[int, tuple[int, int, int]] = {}
        #: Fires every cell's due BAI boundary at each epoch start.
        self._bai_sweep = BatchBaiPlane()

    @property
    def cell_ids(self) -> tuple[int, ...]:
        """Ids of the cells this shard owns."""
        return tuple(self._built)

    def built(self, cell_id: int) -> BuiltCell:
        """The constructed cell bundle for ``cell_id``."""
        return self._built[cell_id]

    def _metro_channels(self) -> list[MetroChannel]:
        """Every resident UE's channel, in player-attachment order."""
        channels = []
        for built in self._built.values():
            for player in built.players.values():
                channel = player.flow.ue.channel
                if isinstance(channel, MetroChannel):
                    channels.append(channel)
        return channels

    def working_points(self, time_s: float) -> WorkingPoints:
        """Radio working points of every resident UE at ``time_s``.

        Positions come from each channel's own mobility object;
        trajectories are deterministic, so evaluating the *next*
        boundary time before the epoch runs yields exactly the
        positions the UEs will occupy when the handover lands.  The
        UEs × cells path-loss matrix is one numpy evaluation; only
        the per-UE argmin row leaves the shard.
        """
        ue_ids: list[int] = []
        serving: list[int] = []
        xs: list[float] = []
        ys: list[float] = []
        for built in self._built.values():
            for player in built.players.values():
                ue = player.flow.ue
                channel = ue.channel
                if not isinstance(channel, MetroChannel):
                    continue
                position = channel.mobility.position_at(time_s)
                ue_ids.append(ue.ue_id)
                serving.append(channel.serving_cell)
                xs.append(position[0])
                ys.append(position[1])
        ids = np.asarray(ue_ids, dtype=np.int64)
        serving_arr = np.asarray(serving, dtype=np.int64)
        if not ue_ids:
            empty = np.zeros(0)
            return WorkingPoints(ids, serving_arr,
                                 np.zeros(0, dtype=np.int64), empty,
                                 empty.copy())
        loss = self.plan.sites.loss_matrix_db(xs, ys)
        best = np.argmin(loss, axis=1)
        rows = np.arange(len(ue_ids))
        return WorkingPoints(ids, serving_arr, best,
                             loss[rows, serving_arr], loss[rows, best])

    def advance(self, epoch_end_s: float, penalties: Mapping[int, float],
                lockstep: bool = False) -> tuple[dict[int, float], int]:
        """Run every cell of the shard to the epoch boundary.

        Installs the epoch's frozen interference penalties, primes
        every channel's per-bucket iTbs table for the epoch (batched
        and sharded modes only — the lockstep reference keeps the pure
        scalar path), fires the BAI boundaries due at the epoch start (in
        every mode, through the scalar controller), advances all
        cells (one fused kernel invocation per cell, or the per-step
        lockstep reference schedule), and returns ``(cumulative PRBs
        per cell, cells that ran on the kernel fast path)``.
        """
        self.penalties.replace(penalties)
        cells = [built.cell for built in self._built.values()]
        if not lockstep and cells:
            self._prime_epoch(cells, epoch_end_s)
        self._bai_sweep.sweep(cells)
        if lockstep:
            advance_cells_lockstep(cells, epoch_end_s)
            fast = 0
        else:
            fast = run_cells(cells, epoch_end_s)
        usage = {
            cell_id: built.cell.trace.total_cumulative_prbs()
            for cell_id, built in self._built.items()
        }
        return usage, fast

    def _prime_epoch(self, cells: Sequence[Cell],
                     epoch_end_s: float) -> None:
        """Batch-evaluate every channel's iTbs tables for one epoch.

        All cells advance together, so they share a step count and a
        step size; the epoch's steps run from that count to the step
        at which a run to ``epoch_end_s`` stops.  Channels are grouped
        by fading period (the metro uses one) so each group shares a
        bucket grid.
        """
        cell = cells[0]
        first, stop = cell._steps, cell._stop_step(epoch_end_s)
        step_s = cell.config.step_s
        groups: dict[float, list[MetroChannel]] = {}
        for channel in self._metro_channels():
            groups.setdefault(channel.fading_period_s,
                              []).append(channel)
        for group in groups.values():
            prime_metro_channels(group, first, stop, step_s)

    def detach_blob(self, cell_id: int, flow_id: int) -> bytes:
        """Detach a flow from ``cell_id`` and freeze it for transport.

        The player and its plugin are pickled in *one* call so their
        shared references stay one object on the receiving side.
        """
        built = self._built[cell_id]
        player = built.cell.player_for(flow_id)
        plugin = self.manager.detach(player, built.cell, built.system)
        built.players.pop(flow_id, None)
        self._stall_cursor.pop(flow_id, None)
        return pickle.dumps((player, plugin),
                            protocol=pickle.HIGHEST_PROTOCOL)

    def attach_blob(self, cell_id: int, blob: bytes, source_cell_id: int,
                    time_s: float) -> None:
        """Thaw a handover blob and attach it to ``cell_id``."""
        player, plugin = pickle.loads(blob)
        channel = player.flow.ue.channel
        if isinstance(channel, MetroChannel):
            # The pickled channel carries a private copy of the source
            # shard's penalty map; rebind it to this shard's live one.
            channel.handover(cell_id, self.penalties)
        built = self._built[cell_id]
        self.manager.attach(player, plugin, built.cell, built.system)
        self.manager.record(time_s, player.flow.flow_id, source_cell_id,
                            cell_id)
        built.players[player.flow.flow_id] = player
        # Stalls up to the boundary were reported by the source shard;
        # start this shard's cursor at the player's current count so
        # they are not re-counted here.
        self._stall_cursor[player.flow.flow_id] = player.stall_events

    def migrate_local(self, source_cell_id: int, target_cell_id: int,
                      flow_id: int, time_s: float) -> None:
        """Intra-shard X2: move a flow without any serialization.

        State-equivalent to :meth:`detach_blob` + :meth:`attach_blob`
        (the pickle round trip is exact), but free — the common case
        under contiguous cell partitioning, where a UE's next cell
        usually lives on the same shard.
        """
        source = self._built[source_cell_id]
        player = source.cell.player_for(flow_id)
        plugin = self.manager.detach(player, source.cell, source.system)
        source.players.pop(flow_id, None)
        channel = player.flow.ue.channel
        if isinstance(channel, MetroChannel):
            channel.handover(target_cell_id, self.penalties)
        target = self._built[target_cell_id]
        self.manager.attach(player, plugin, target.cell, target.system)
        self.manager.record(time_s, flow_id, source_cell_id,
                            target_cell_id)
        target.players[flow_id] = player

    def migrate_many(
        self, items: Sequence[tuple[int, int, int, float]]) -> None:
        """Batch :meth:`migrate_local` (``source, target, flow, time``)."""
        for source_cell_id, target_cell_id, flow_id, time_s in items:
            self.migrate_local(source_cell_id, target_cell_id, flow_id,
                               time_s)

    def detach_many(self,
                    requests: Sequence[tuple[int, int]]) -> list[bytes]:
        """Batch :meth:`detach_blob` — one IPC round trip per epoch.

        ``requests`` is ``[(cell_id, flow_id), ...]``; blobs come back
        in request order.
        """
        return [self.detach_blob(cell_id, flow_id)
                for cell_id, flow_id in requests]

    def attach_many(
        self, items: Sequence[tuple[int, bytes, int, float]]) -> None:
        """Batch :meth:`attach_blob` (``cell, blob, source, time``)."""
        for cell_id, blob, source_cell_id, time_s in items:
            self.attach_blob(cell_id, blob, source_cell_id, time_s)

    def epoch_telemetry(
            self) -> list[tuple[int, int, int, int, int, int, float]]:
        """Per-cell health deltas since the previous call.

        Rows are ``(cell_id, flows, stalls, bai_solves,
        bai_infeasible, bai_holds, mean_bitrate_kbps)``.  Stall and
        BAI fields are deltas over the epoch — per-flow and per-cell
        cursors remember what earlier calls already reported (handover
        hand-off is cursor-aware, so a migrating player's stalls are
        counted exactly once, by the shard it stalled on).  The mean
        bitrate averages the current ladder rate of every flow with an
        active or pending segment.

        Collection is a read-only aggregation over simulator state:
        running it (or not) cannot change simulation results.
        """
        rows = []
        for cell_id, built in self._built.items():
            stalls = 0
            rate_total = 0.0
            rated = 0
            for flow_id, player in built.players.items():
                total = player.stall_events
                stalls += total - self._stall_cursor.get(flow_id, 0)
                self._stall_cursor[flow_id] = total
                index = player.current_ladder_index()
                if index is not None:
                    rate_total += player.mpd.ladder.rate(index)
                    rated += 1
            solves = infeasible = holds = 0
            if built.system is not None:
                # Lifetime counters (not record scans): exact deltas
                # even when the record ring wraps.
                server = built.system.server
                totals = (server.solve_count, server.infeasible_count,
                          server.hold_count)
                seen_counts = self._bai_cursor.get(cell_id, (0, 0, 0))
                solves = totals[0] - seen_counts[0]
                infeasible = totals[1] - seen_counts[1]
                holds = totals[2] - seen_counts[2]
                self._bai_cursor[cell_id] = totals
            mean_kbps = rate_total / rated / 1e3 if rated else 0.0
            rows.append((cell_id, len(built.players), stalls, solves,
                         infeasible, holds, mean_kbps))
        return rows

    def reports(self, duration_s: float) -> dict[int, CellReport]:
        """Per-cell reports for every cell of the shard."""
        return {
            cell_id: collect_cell_report(built.cell, duration_s=duration_s)
            for cell_id, built in self._built.items()
        }

    def handover_records(self) -> list[HandoverRecord]:
        """Handovers whose *target* cell lives on this shard."""
        return list(self.manager.records)


class LocalShards:
    """In-process shard transport with ``ShardPool``'s request protocol.

    Each request runs on its shard object when it is sent, and its
    reply queues per shard, first in, first out — the order contract
    the pool's pipes give.  :meth:`Network.run` drives ``shards=1``
    through it, so one epoch loop serves both transports.
    """

    #: In-process shards share the parent's profiler and tracer, so
    #: there is no worker-side observability to drain.
    observing = False

    def __init__(self, shards: Sequence[NetworkShard]) -> None:
        self._shards = shards
        self._replies: list[deque[Any]] = [deque() for _ in shards]

    def send(self, shard: int, method: str, *args: Any) -> None:
        """Run ``method(*args)`` on one shard now; queue its reply."""
        self._replies[shard].append(
            getattr(self._shards[shard], method)(*args))

    def recv(self, shard: int) -> Any:
        """The oldest queued reply of ``shard``."""
        return self._replies[shard].popleft()

    def broadcast(self, method: str,
                  per_shard_args: Sequence[tuple[Any, ...]]) -> list[Any]:
        """Run ``method`` on every shard, in shard order."""
        return [getattr(shard, method)(*args)
                for shard, args in zip(self._shards, per_shard_args)]

    def close(self) -> None:
        """Nothing to release: the shards live in this process."""


class Network:
    """The metro world: owns the cells, drives epochs, plans handovers.

    Attributes:
        plan: the immutable world description.
        handover_count: handovers executed so far.
        records: all :class:`HandoverRecord`\\ s, sorted by
            ``(time, flow)``, populated by :meth:`run`.
        kernel_cell_runs: cell-epochs that ran on the TTI kernel fast
            path (scaling-study diagnostic).
        pipeline: occupancy statistics for the last sharded
            :meth:`run` (empty for in-process runs): ``shards``,
            ``epochs``, the epoch loop's ``wall_s``, per-shard
            ``recv_wait_s`` (parent seconds blocked waiting on that
            shard's replies), ``recv_blocked_frac`` (the same as a
            fraction of the loop wall time — bubble detection for the
            ``k``/``k+1`` overlap) and ``occupancy`` (its
            complement).
    """

    def __init__(self, plan: NetworkPlan) -> None:
        self.plan = plan
        self._serving = {ue.ue_id: ue.cell_id for ue in plan.ues}
        self._flow_of = {ue.ue_id: ue.flow_id for ue in plan.ues}
        self._neighbours = {
            cell_id: plan.sites.neighbours_of(cell_id)
            for cell_id in range(plan.sites.num_cells)
        }
        self.handover_count = 0
        self.records: list[HandoverRecord] = []
        self.kernel_cell_runs = 0
        self.pipeline: dict[str, Any] = {}

    def serving_cell(self, ue_id: int) -> int:
        """The cell currently serving ``ue_id``."""
        return self._serving[ue_id]

    def _plan_handovers(
            self,
            points: Sequence[WorkingPoints]) -> list[tuple[int, int, int]]:
        """Handover directives ``(ue, source, target)`` for one boundary.

        Batched over the shard-reported working points: a UE moves
        when the overall-best site's path loss beats the serving
        site's by more than the hysteresis margin (the target ties to
        the lowest cell id, like :meth:`SitePlan.best_cell`).  The
        working points carry each UE's *post-exchange* serving cell —
        one argmin row per UE, evaluated against where it actually is
        — so a UE can receive at most one directive per boundary.
        Directives are ordered by UE id.
        """
        ue_ids = np.concatenate([p.ue_ids for p in points])
        if ue_ids.size == 0:
            return []
        serving = np.concatenate([p.serving for p in points])
        best = np.concatenate([p.best for p in points])
        advantage = (
            np.concatenate([p.serving_loss_db for p in points])
            - np.concatenate([p.best_loss_db for p in points]))
        move = (best != serving) & (advantage > self.plan.hysteresis_db)
        ids = ue_ids[move]
        sources = serving[move]
        targets = best[move]
        order = np.argsort(ids)
        return [(int(ids[i]), int(sources[i]), int(targets[i]))
                for i in order]

    def _apply_directives(self, directives: Sequence[tuple[int, int, int]],
                          now_s: float, shard_of: Mapping[int, int],
                          pool: Any) -> None:
        """Execute one boundary's X2 migrations, split by locality.

        Intra-shard moves go through the no-pickle migrate path;
        cross-shard moves cost one detach round trip per source shard
        plus one arrival round per target shard, with all requests of
        a round written before any reply is awaited.

        Arrival order is part of the byte-identity contract: a cell's
        flows sit in attachment order and the scheduler's float sums
        run in that order, so every cell must take its arrivals in
        directive (UE-id) order, as a one-shard run's single
        ``migrate_many`` does.  Cross-shard flows are therefore all
        detached first (flows are distinct, so one flow leaving and
        another arriving commute), then each target shard receives its
        arrivals in directive order as consecutive runs of
        ``migrate_many`` and ``attach_many`` requests, which the
        pool's per-shard FIFO delivers in order.
        """
        detach_of: dict[int, list[tuple[int, int]]] = {}
        for ue_id, source, target in directives:
            if shard_of[source] != shard_of[target]:
                detach_of.setdefault(shard_of[source], []).append(
                    (source, self._flow_of[ue_id]))
        for shard_index, requests in detach_of.items():
            pool.send(shard_index, "detach_many", requests)
        blobs: dict[tuple[int, int], bytes] = {}
        for shard_index, requests in detach_of.items():
            blobs.update(zip(requests, pool.recv(shard_index)))
        # Target shard -> runs of (method, items), in directive order.
        runs: dict[int, list[tuple[str, list[Any]]]] = {}
        for ue_id, source, target in directives:
            flow_id = self._flow_of[ue_id]
            if shard_of[source] == shard_of[target]:
                method = "migrate_many"
                item: Any = (source, target, flow_id, now_s)
            else:
                method = "attach_many"
                item = (target, blobs[source, flow_id], source, now_s)
            shard_runs = runs.setdefault(shard_of[target], [])
            if shard_runs and shard_runs[-1][0] == method:
                shard_runs[-1][1].append(item)
            else:
                shard_runs.append((method, [item]))
        for shard_index, shard_runs in runs.items():
            for method, items in shard_runs:
                pool.send(shard_index, method, items)
        for shard_index, shard_runs in runs.items():
            for _ in shard_runs:
                pool.recv(shard_index)
        for ue_id, source, target in directives:
            self._serving[ue_id] = target
            self.handover_count += 1
            tracer = obs.TRACER
            if tracer is not None:
                tracer.emit(obs_events.NET_HANDOVER, now_s,
                            flow=self._flow_of[ue_id], ue=ue_id,
                            source=source, target=target)

    def _exchange(self, usages: Mapping[int, float],
                  usage_prev: dict[int, float], util: dict[int, float],
                  epoch_s: float) -> dict[int, float]:
        """Turn this epoch's PRB usage into next epoch's penalties.

        Utilisation is the cell's PRB delta over its epoch capacity
        (clamped to 1); a cell's penalty is ``coupling_db`` times the
        summed utilisation of its neighbours.
        """
        capacity = self.plan.cell_prbs_per_second * epoch_s
        for cell_id in sorted(usages):
            used = usages[cell_id] - usage_prev[cell_id]
            usage_prev[cell_id] = usages[cell_id]
            util[cell_id] = min(used / capacity, 1.0)
        if self.plan.coupling_db <= 0.0:
            return dict.fromkeys(util, 0.0)
        penalties = {}
        for cell_id in sorted(util):
            load = 0.0
            for neighbour in self._neighbours[cell_id]:
                load += util[neighbour]
            penalties[cell_id] = self.plan.coupling_db * load
        return penalties

    def _emit_telemetry(
            self, collector: obs_telemetry.TelemetryCollector,
            epoch: int, time_s: float,
            rows: Sequence[tuple[int, int, int, int, int, int, float]],
            applied: Sequence[tuple[int, int, int]],
            util: Mapping[int, float]) -> None:
        """Assemble one epoch's :class:`CellEpochRecord` batch.

        Shard rows carry the cell-resident health deltas
        (:meth:`NetworkShard.epoch_telemetry`); the parent contributes
        what only it knows — the boundary's handover directives and
        the exchange's RB utilisation — and emits records in cell-id
        order, so the stream is identical across execution modes.
        """
        ho_in: dict[int, int] = {}
        ho_out: dict[int, int] = {}
        for _ue_id, source, target in applied:
            ho_out[source] = ho_out.get(source, 0) + 1
            ho_in[target] = ho_in.get(target, 0) + 1
        collector.extend(
            CellEpochRecord(
                epoch=epoch, time_s=time_s, cell=cell_id, flows=flows,
                handovers_in=ho_in.get(cell_id, 0),
                handovers_out=ho_out.get(cell_id, 0),
                stalls=stalls, bai_solves=solves,
                bai_infeasible=infeasible, bai_holds=holds,
                mean_bitrate_kbps=mean_kbps,
                rb_utilization=util.get(cell_id, 0.0))
            for cell_id, flows, stalls, solves, infeasible, holds,
            mean_kbps in sorted(rows))

    def run(self, duration_s: float, shards: int = 1,
            lockstep: bool = False) -> dict[int, CellReport]:
        """Run the metro for ``duration_s`` and return per-cell reports.

        Args:
            duration_s: simulated time to cover.
            shards: worker processes (1 = in-process; capped at the
                cell count; cells are assigned in contiguous blocks so
                grid neighbours usually share a shard).
            lockstep: use the per-step reference schedule instead of
                per-cell kernel batching (single-process only).

        Returns:
            ``{cell_id: CellReport}`` for every cell, regardless of
            which shard ran it.
        """
        require_positive("duration_s", duration_s)
        num_cells = self.plan.sites.num_cells
        shards = max(1, min(int(shards), num_cells))
        if lockstep and shards > 1:
            raise ValueError(
                "lockstep is the single-process reference mode; "
                "run it with shards=1")
        # Contiguous blocks: grid ids are row-major, so a block keeps
        # geographic neighbours together and most handovers stay
        # intra-shard (the no-pickle migrate_local path).
        base, extra = divmod(num_cells, shards)
        assignment = []
        start = 0
        for index in range(shards):
            size = base + (1 if index < extra else 0)
            assignment.append(list(range(start, start + size)))
            start += size
        shard_of = {}
        for index, cell_ids in enumerate(assignment):
            for cell_id in cell_ids:
                shard_of[cell_id] = index

        pool: Any
        if shards == 1:
            pool = LocalShards([NetworkShard(self.plan, assignment[0])])
        else:
            # Deferred import: repro.experiments pulls in workload
            # scenario modules, which must not load just because the
            # sim layer was imported.
            from repro.experiments.parallel import DRAIN_OBS, ShardPool
            pool = ShardPool(NetworkShard,
                             [(self.plan, cell_ids)
                              for cell_ids in assignment])

        self.pipeline = {}
        # Epochs are enumerated in whole TTIs of the cells' 1 ms TTI.
        tti_s = TTI_MS / 1000.0
        total = whole_ttis("duration_s", duration_s, tti_s)
        exchange = whole_ttis("exchange_s", self.plan.exchange_s, tti_s)
        start_tti = 0
        now = 0.0
        epoch_index = 0
        try:
            usage_prev = dict.fromkeys(range(num_cells), 0.0)
            util = dict.fromkeys(range(num_cells), 0.0)
            penalties = dict.fromkeys(range(num_cells), 0.0)
            profiler = prof.PROFILER
            collector = obs_telemetry.COLLECTOR
            # Shard-side profiler/trace data is drained every epoch
            # (bounded worker memory, per-shard Chrome tracks); the
            # always-on registry alone rides the single final drain in
            # ShardPool.close(), so an unarmed run adds no epoch IPC.
            drain_epochs = pool.observing
            clock = prof.clock
            recv_wait = [0.0] * shards
            # Boundary 0's working points, then one epoch per loop
            # iteration.  Subsequent boundaries are planned *inside*
            # the previous epoch (see below), so `directives` always
            # holds the plan for the boundary the loop is entering.
            if profiler is not None:
                profiler.begin("net.handover")
            for index in range(shards):
                pool.send(index, "working_points", 0.0)
            points = [pool.recv(index) for index in range(shards)]
            directives = self._plan_handovers(points)
            if profiler is not None:
                profiler.end()
            loop_started = clock()
            while start_tti < total:
                end_tti = min(start_tti + exchange, total)
                epoch_end = end_tti * tti_s
                final = end_tti == total
                applied = directives
                if profiler is not None:
                    profiler.begin("net.handover")
                self._apply_directives(directives, now, shard_of, pool)
                if profiler is not None:
                    profiler.switch("net.advance")
                tele_rows: list[
                    tuple[int, int, int, int, int, int, float]] = []
                # Pipelined epoch: all requests go out back to back per
                # shard; each worker answers the cheap working-points
                # probe first and then grinds through the epoch's TTIs,
                # so the parent plans the *next* boundary's handovers
                # while every shard is still simulating this epoch.
                # Mobility is deterministic, which is what makes probing
                # the boundary time before the epoch runs exact.  The
                # telemetry/obs requests ride the same batch after
                # ``advance`` — the worker answers them once the epoch
                # is done, so they add zero sync points.
                for index in range(shards):
                    if not final:
                        pool.send(index, "working_points", epoch_end)
                    pool.send(index, "advance", epoch_end, penalties,
                              lockstep)
                    if collector is not None:
                        pool.send(index, "epoch_telemetry")
                    if drain_epochs:
                        pool.send(index, DRAIN_OBS)
                directives = []
                if not final:
                    if profiler is not None:
                        profiler.begin("net.recv.points")
                    points = []
                    for index in range(shards):
                        started = clock()
                        points.append(pool.recv(index))
                        recv_wait[index] += clock() - started
                    if profiler is not None:
                        profiler.end()
                        profiler.switch("net.handover")
                    directives = self._plan_handovers(points)
                    if profiler is not None:
                        profiler.switch("net.advance")
                if profiler is not None:
                    profiler.begin("net.recv.usage")
                replies = []
                for index in range(shards):
                    started = clock()
                    replies.append(pool.recv(index))
                    recv_wait[index] += clock() - started
                if profiler is not None:
                    profiler.end()
                if collector is not None or drain_epochs:
                    if profiler is not None:
                        profiler.begin("net.recv.obs")
                    for index in range(shards):
                        started = clock()
                        if collector is not None:
                            tele_rows.extend(pool.recv(index))
                        if drain_epochs:
                            pool.merge_obs(pool.recv(index))
                        recv_wait[index] += clock() - started
                    if profiler is not None:
                        profiler.end()
                usages: dict[int, float] = {}
                for usage, fast in replies:
                    usages.update(usage)
                    self.kernel_cell_runs += fast
                if profiler is not None:
                    profiler.switch("net.exchange")
                penalties = self._exchange(usages, usage_prev, util,
                                           (end_tti - start_tti) * tti_s)
                if profiler is not None:
                    profiler.end()
                if collector is not None:
                    self._emit_telemetry(collector, epoch_index,
                                         epoch_end, tele_rows, applied,
                                         util)
                start_tti = end_tti
                now = epoch_end
                epoch_index += 1

            if shards > 1:
                loop_wall = clock() - loop_started
                blocked = [wait / loop_wall if loop_wall > 0.0 else 0.0
                           for wait in recv_wait]
                self.pipeline = {
                    "shards": shards,
                    "epochs": epoch_index,
                    "wall_s": loop_wall,
                    "recv_wait_s": recv_wait,
                    "recv_blocked_frac": blocked,
                    "occupancy": [1.0 - frac for frac in blocked],
                }

            report_maps = pool.broadcast("reports",
                                         [(duration_s,)] * shards)
            record_lists = pool.broadcast("handover_records",
                                          [()] * shards)
        except ShardPoolError as error:
            shard = error.shard
            if shard is None:
                raise
            raise ShardPoolError(
                f"epoch {epoch_index} (t={now:g} s), shard {shard} "
                f"(cells {assignment[shard]}): {error}",
                shard=shard) from error
        finally:
            pool.close()

        reports: dict[int, CellReport] = {}
        for report_map in report_maps:
            reports.update(report_map)
        records = [record for records_ in record_lists
                   for record in records_]
        records.sort(key=lambda record: (record.time_s, record.flow_id))
        self.records = records
        return {cell_id: reports[cell_id] for cell_id in sorted(reports)}
