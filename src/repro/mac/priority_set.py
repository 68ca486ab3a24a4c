"""Priority Set Scheduler: two-phase GBR-aware downlink scheduling.

This is the scheduling discipline of both the paper's femtocell
Scheduler Module and the ns-3 "Priority Set Scheduler" [Monghal et
al., VTC 2008] that the simulation study modifies:

* **Phase 1** serves GBR bearers first: each flow with a guarantee is
  granted the PRBs required to carry ``GBR x step`` bytes (capped by
  its queued data), in bearer-priority order, until the budget runs
  out.
* **Phase 2** hands the remaining PRBs to *all* backlogged flows —
  video and data alike — with a legacy proportional-fair metric.

Phase 2 is why FLARE never wastes capacity on a static video/data
split: when the optimizer's guarantees lag the channel (or video
queues drain), data flows immediately absorb the slack, and vice
versa.  The paper credits this opportunism for FLARE's absence of
buffer underflows even in the worst channel conditions (Section IV-A).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.mac.gbr import BearerRegistry
from repro.mac.scheduler import (
    Allocation,
    ProportionalFairScheduler,
    Scheduler,
    _Claim,
    waterfill_prbs,
)
from repro.net.flows import Flow
from repro.obs import events as obs_events
from repro.obs import prof
from repro.obs import tracer as obs
from repro.util import require_positive


class PrioritySetScheduler(Scheduler):
    """Two-phase scheduler: GBR guarantees, then proportional fair.

    Attributes:
        pf: the phase-2 proportional-fair engine (shared averages, so
            phase-2 fairness accounts for phase-1 service too).
    """

    def __init__(self, pf_time_constant_s: float = 1.0) -> None:
        require_positive("pf_time_constant_s", pf_time_constant_s)
        self.pf = ProportionalFairScheduler(pf_time_constant_s)

    def forget(self, flow_id: int) -> None:
        self.pf.forget(flow_id)

    def allocate(self, now_s: float, step_s: float, flows: Sequence[Flow],
                 prb_budget: float,
                 registry: BearerRegistry) -> dict[int, Allocation]:
        profiler = prof.PROFILER
        if profiler is not None:
            profiler.begin("mac.claims")
        claims = self._gather_claims(now_s, step_s, flows, registry)
        active = {claim.flow.flow_id for claim in claims
                  if claim.remaining_demand_bytes > 0}
        by_id = {claim.flow.flow_id: claim for claim in claims}
        result: dict[int, Allocation] = {}
        remaining_budget = prb_budget
        if profiler is not None:
            # One span for both allocation phases: the ISSUE-level
            # phase is "GBR/PF scheduling"; a finer split costs more
            # to measure than the GBR pass takes.
            profiler.switch("mac.sched")

        # --- Phase 1: honour GBR guarantees in priority order. -------
        for flow_id, qos in registry.gbr_flows():
            claim = by_id.get(flow_id)
            if claim is None or claim.bytes_per_prb <= 0:
                continue
            if remaining_budget <= 1e-12:
                break
            guarantee_bytes = registry.gbr_bytes_for_step(flow_id, step_s)
            need_bytes = min(guarantee_bytes, claim.remaining_demand_bytes)
            if need_bytes <= 0:
                continue
            prbs_needed = need_bytes / claim.bytes_per_prb
            prbs = min(prbs_needed, remaining_budget)
            delivered = prbs * claim.bytes_per_prb
            remaining_budget -= prbs
            claim.remaining_demand_bytes -= delivered
            allocation = result.setdefault(flow_id, Allocation())
            allocation.merge(prbs, delivered)
            allocation.gbr_prbs += prbs

        # --- Phase 2: proportional fair over the remaining demand. ---
        if remaining_budget > 1e-12:
            phase2 = [claim for claim in claims
                      if claim.remaining_demand_bytes > 1e-9
                      and claim.bytes_per_prb > 0]
            weights = [self.pf._pf_weight(claim, step_s) for claim in phase2]
            grants = waterfill_prbs(remaining_budget, phase2, weights)
            for claim, prbs in zip(phase2, grants):
                if prbs <= 0:
                    continue
                delivered = min(prbs * claim.bytes_per_prb,
                                claim.remaining_demand_bytes)
                claim.remaining_demand_bytes -= delivered
                result.setdefault(claim.flow.flow_id,
                                  Allocation()).merge(prbs, delivered)

        # PF averages must reflect total service (phase 1 + phase 2) so
        # GBR-favoured flows do not also dominate phase 2.
        self.pf._update_averages(step_s, flows, result, active)
        if profiler is not None:
            profiler.end()
        if obs.TRACER is not None:
            gbr_prbs = sum(a.gbr_prbs for a in result.values())
            total_prbs = sum(a.prbs for a in result.values())
            obs.TRACER.emit(
                obs_events.MAC_SCHED, now_s,
                budget_prbs=prb_budget,
                gbr_prbs=gbr_prbs,
                pf_prbs=total_prbs - gbr_prbs,
                backlogged=len(active),
            )
        return result
