"""MAC downlink schedulers: interface, proportional fair, round robin.

The scheduler is the resource-allocation heart of the cell: each
scheduling step it divides the PRB budget (``prb_per_tti`` times the
number of TTIs in the step) among flows with queued data, respecting
each flow's channel quality (bytes one PRB carries for that UE right
now) and bearer QoS (MBR caps; GBR handling lives in
:mod:`repro.mac.priority_set`).

The simulator runs the MAC in *fluid* mode: rather than enumerating
individual TTIs, a step of (say) 10 ms allocates fractional PRBs with
the same proportional-fair metric a per-TTI scheduler would converge
to.  This keeps the Python implementation fast enough for the paper's
1200-second, 20-run sweeps while preserving scheduling behaviour at
the timescales ABR decisions live on (hundreds of milliseconds).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.mac.gbr import BearerRegistry
from repro.net.flows import Flow
from repro.util import bytes_to_bits, require_positive


@dataclass
class Allocation:
    """Result of one scheduling step for one flow.

    Attributes:
        prbs: resource blocks granted (fractional, PRB x TTI units).
        bytes_delivered: bytes the grant carries.
        gbr_prbs: the share of ``prbs`` granted while honouring the
            flow's GBR guarantee (phase 1 of the Priority Set
            discipline; 0 for single-phase schedulers).
    """

    prbs: float = 0.0
    bytes_delivered: float = 0.0
    gbr_prbs: float = 0.0

    def merge(self, prbs: float, bytes_delivered: float) -> None:
        """Fold an additional grant into this allocation."""
        self.prbs += prbs
        self.bytes_delivered += bytes_delivered


@dataclass
class _Claim:
    """Internal: one flow's state within a scheduling step."""

    flow: Flow
    bytes_per_prb: float
    remaining_demand_bytes: float

    def max_prbs(self) -> float:
        """PRBs that would fully satisfy the remaining demand."""
        if self.bytes_per_prb <= 0:
            return 0.0
        return self.remaining_demand_bytes / self.bytes_per_prb


def waterfill_prbs(budget: float, claims: Sequence[_Claim],
                   weights: Sequence[float]) -> list[float]:
    """Divide ``budget`` PRBs proportionally to ``weights``.

    Flows whose proportional share exceeds the PRBs they can use are
    capped at their need and the surplus is re-divided among the rest
    (classic progressive filling).  Returns the per-claim grant in the
    order of ``claims``.
    """
    if len(claims) != len(weights):
        raise ValueError("claims and weights must align")
    grants = [0.0] * len(claims)
    # Demand is constant for the duration of the fill, so each claim's
    # PRB cap is computed exactly once up front instead of re-deriving
    # it (division included) on every progressive-filling round.
    caps = [c.max_prbs() for c in claims]
    active = [i for i in range(len(claims))
              if caps[i] > 0 and weights[i] > 0]
    remaining = budget
    while remaining > 1e-12 and active:
        total_weight = 0.0
        for i in active:
            total_weight += weights[i]
        if total_weight <= 0:
            break
        capped = False
        next_active: list[int] = []
        consumed = 0.0
        for i in active:
            share = remaining * weights[i] / total_weight
            room = caps[i] - grants[i]
            if share >= room - 1e-12:
                grants[i] += room
                consumed += room
                capped = True
            else:
                next_active.append(i)
        if not capped:
            # Nobody was capped: distribute the remainder in one pass.
            for i in next_active:
                share = remaining * weights[i] / total_weight
                grants[i] += share
                consumed += share
            remaining = 0.0
            break
        remaining -= consumed
        active = next_active
    return grants


class Scheduler:
    """Interface every downlink scheduler implements."""

    _claim_pool: list[_Claim]

    def allocate(self, now_s: float, step_s: float, flows: Sequence[Flow],
                 prb_budget: float,
                 registry: BearerRegistry) -> dict[int, Allocation]:
        """Divide ``prb_budget`` PRBs among ``flows`` for this step.

        Returns a mapping ``flow_id -> Allocation`` containing every
        flow that received a grant (flows with no grant may be absent).
        The scheduler does **not** call ``flow.on_scheduled``; the cell
        driver does, so allocation stays side-effect free with respect
        to the flows.
        """
        raise NotImplementedError

    def forget(self, flow_id: int) -> None:
        """Drop the per-flow state of a flow that left the cell."""

    def _gather_claims(self, now_s: float, step_s: float,
                       flows: Sequence[Flow],
                       registry: BearerRegistry) -> list[_Claim]:
        """Build per-flow claims: demand capped by MBR and the channel.

        ``_Claim`` objects are recycled from a per-scheduler scratch
        pool across steps (the profiler showed dataclass construction
        dominating ``mac.claims``); only the returned *list* is fresh,
        so callers may slice and filter it freely.
        """
        try:
            pool = self._claim_pool
        except AttributeError:
            pool = self._claim_pool = []
        claims: list[_Claim] = []
        for index, flow in enumerate(flows):
            bytes_per_prb = flow.ue.channel.bytes_per_prb_at(now_s)
            demand = flow.demand_bytes(step_s)
            mbr_cap = registry.mbr_bytes_for_step(flow.flow_id, step_s)
            if demand > mbr_cap:
                demand = mbr_cap
            if index < len(pool):
                claim = pool[index]
                claim.flow = flow
                claim.bytes_per_prb = bytes_per_prb
                claim.remaining_demand_bytes = demand
            else:
                claim = _Claim(flow, bytes_per_prb, demand)
                pool.append(claim)
            claims.append(claim)
        return claims


class ProportionalFairScheduler(Scheduler):
    """Fluid proportional-fair scheduler.

    The PF metric of flow ``u`` is ``rate_u / avg_u``: its currently
    achievable rate divided by its exponentially averaged served
    throughput.  Flows that have been starved therefore gain priority,
    and flows on good channels are preferred at equal histories —
    exactly the legacy scheduler the paper's femtocell runs in Phase 2.

    Attributes:
        time_constant_s: averaging horizon of the served-throughput
            EWMA (the ``T_c`` of the classic PF formulation).
    """

    def __init__(self, time_constant_s: float = 1.0) -> None:
        require_positive("time_constant_s", time_constant_s)
        self.time_constant_s = time_constant_s
        self._avg_rate_bps: dict[int, float] = {}

    def _pf_weight(self, claim: _Claim, step_s: float) -> float:
        """PF metric: achievable instantaneous rate over served average."""
        achievable_bps = bytes_to_bits(claim.bytes_per_prb) / step_s
        avg = self._avg_rate_bps.get(claim.flow.flow_id, 0.0)
        floor = 1e3  # avoids division blow-up for never-served flows
        return achievable_bps / max(avg, floor)

    def forget(self, flow_id: int) -> None:
        """A departed flow's served average leaves with it: a flow that
        returns restarts from no service history, like a new flow."""
        self._avg_rate_bps.pop(flow_id, None)

    def _update_averages(self, step_s: float, flows: Sequence[Flow],
                         grants: dict[int, Allocation],
                         active_ids: set | None = None) -> None:
        """EWMA update of served throughput.

        Only flows with queued data this step are updated: an idle HAS
        flow keeps (rather than decays) its served average, as per-TTI
        PF implementations do by skipping empty-queue flows.  Decaying
        idle flows would hand a returning flow near-infinite priority
        and serialise the cell into TDM bursts, inflating every HAS
        throughput sample far beyond the fair share.
        """
        decay = step_s / self.time_constant_s
        decay = min(decay, 1.0)
        averages = self._avg_rate_bps
        for flow in flows:
            if active_ids is not None and flow.flow_id not in active_ids:
                continue
            grant = grants.get(flow.flow_id)
            delivered = grant.bytes_delivered if grant is not None else 0.0
            rate = bytes_to_bits(delivered) / step_s
            old = averages.get(flow.flow_id, 0.0)
            averages[flow.flow_id] = (1 - decay) * old + decay * rate

    def allocate(self, now_s: float, step_s: float, flows: Sequence[Flow],
                 prb_budget: float,
                 registry: BearerRegistry) -> dict[int, Allocation]:
        claims = self._gather_claims(now_s, step_s, flows, registry)
        weights = [self._pf_weight(c, step_s) for c in claims]
        grants_prbs = waterfill_prbs(prb_budget, claims, weights)
        result: dict[int, Allocation] = {}
        active = {claim.flow.flow_id for claim in claims
                  if claim.remaining_demand_bytes > 0}
        for claim, prbs in zip(claims, grants_prbs):
            if prbs <= 0:
                continue
            delivered = min(prbs * claim.bytes_per_prb,
                            claim.remaining_demand_bytes)
            result[claim.flow.flow_id] = Allocation(prbs, delivered)
        self._update_averages(step_s, flows, result, active)
        return result


class MaxThroughputScheduler(Scheduler):
    """Serve the best channel first (max C/I discipline).

    Maximises cell throughput and tramples fairness: backlogged flows
    are served in decreasing bytes-per-PRB order, each taking all it
    can before the next is considered.  Included as the classic
    opposite pole to proportional fair — useful in scheduler-comparison
    studies and as a worst-case fairness reference.
    """

    def allocate(self, now_s: float, step_s: float, flows: Sequence[Flow],
                 prb_budget: float,
                 registry: BearerRegistry) -> dict[int, Allocation]:
        claims = self._gather_claims(now_s, step_s, flows, registry)
        order = sorted(claims, key=lambda c: c.bytes_per_prb, reverse=True)
        result: dict[int, Allocation] = {}
        remaining = prb_budget
        for claim in order:
            if remaining <= 1e-12 or claim.bytes_per_prb <= 0:
                continue
            prbs = min(claim.max_prbs(), remaining)
            if prbs <= 0:
                continue
            delivered = min(prbs * claim.bytes_per_prb,
                            claim.remaining_demand_bytes)
            result[claim.flow.flow_id] = Allocation(prbs, delivered)
            remaining -= prbs
        return result


class RoundRobinScheduler(Scheduler):
    """Equal-share scheduler: every backlogged flow gets the same PRBs.

    Kept as the simplest baseline discipline and as a test oracle for
    the water-filling helper (equal weights).
    """

    def allocate(self, now_s: float, step_s: float, flows: Sequence[Flow],
                 prb_budget: float,
                 registry: BearerRegistry) -> dict[int, Allocation]:
        claims = self._gather_claims(now_s, step_s, flows, registry)
        weights = [1.0 if c.max_prbs() > 0 else 0.0 for c in claims]
        grants_prbs = waterfill_prbs(prb_budget, claims, weights)
        result: dict[int, Allocation] = {}
        for claim, prbs in zip(claims, grants_prbs):
            if prbs <= 0:
                continue
            delivered = min(prbs * claim.bytes_per_prb,
                            claim.remaining_demand_bytes)
            result[claim.flow.flow_id] = Allocation(prbs, delivered)
        return result
