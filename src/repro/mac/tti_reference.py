"""Per-TTI reference scheduler for fluid-model validation.

The production scheduler runs in fluid mode (fractional PRBs per
multi-TTI step).  This module provides the ground-truth discipline it
approximates: a true per-TTI scheduler that, each 1 ms TTI,

1. serves GBR token debt first (phase 1, integer PRBs, priority
   order), then
2. gives every remaining PRB of the TTI to the flow maximising the
   proportional-fair metric (phase 2; classic single-user-per-TTI
   scheduling, which per-TTI LTE schedulers commonly reduce to for
   full-band allocations).

It is O(TTIs x flows) per step and therefore ~20x slower than the
fluid scheduler at the default step size — use it for validation runs
and cross-checks (see ``tests/mac/test_tti_reference.py``), not for
the 1200-second sweeps.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.mac.gbr import BearerRegistry
from repro.mac.scheduler import Allocation, Scheduler, _Claim
from repro.net.flows import Flow
from repro.util import bytes_to_bits, require_positive


class TtiReferenceScheduler(Scheduler):
    """Exact per-TTI two-phase scheduler (validation substrate).

    Attributes:
        tti_s: TTI duration (LTE: 1 ms).
        prb_per_tti: PRBs per TTI (50 = 10 MHz).
        time_constant_s: PF served-average horizon.
    """

    def __init__(self, tti_s: float = 0.001, prb_per_tti: int = 50,
                 time_constant_s: float = 1.0) -> None:
        require_positive("tti_s", tti_s)
        require_positive("prb_per_tti", prb_per_tti)
        require_positive("time_constant_s", time_constant_s)
        self.tti_s = tti_s
        self.prb_per_tti = prb_per_tti
        self.time_constant_s = time_constant_s
        self._avg_rate_bps: dict[int, float] = {}

    def forget(self, flow_id: int) -> None:
        self._avg_rate_bps.pop(flow_id, None)

    def _pf_metric(self, claim: _Claim) -> float:
        achievable = bytes_to_bits(claim.bytes_per_prb) / self.tti_s
        avg = self._avg_rate_bps.get(claim.flow.flow_id, 0.0)
        return achievable / max(avg, 1e3)

    def allocate(self, now_s: float, step_s: float, flows: Sequence[Flow],
                 prb_budget: float,
                 registry: BearerRegistry) -> dict[int, Allocation]:
        claims = self._gather_claims(now_s, step_s, flows, registry)
        by_id = {claim.flow.flow_id: claim for claim in claims}
        active_ids = {c.flow.flow_id for c in claims
                      if c.remaining_demand_bytes > 0}
        result: dict[int, Allocation] = {}
        num_ttis = max(1, int(round(step_s / self.tti_s)))
        decay = min(self.tti_s / self.time_constant_s, 1.0)

        # Per-TTI GBR token requirement (bytes).
        gbr_tokens = {
            flow_id: registry.gbr_bytes_for_step(flow_id, self.tti_s)
            for flow_id, _ in registry.gbr_flows()
        }

        for _ in range(num_ttis):
            prbs_left = self.prb_per_tti
            tti_delivered: dict[int, float] = {}

            # Phase 1: integer PRBs to cover GBR token debt.
            for flow_id, _qos in registry.gbr_flows():
                claim = by_id.get(flow_id)
                if (claim is None or claim.bytes_per_prb <= 0
                        or prbs_left == 0):
                    continue
                need = min(gbr_tokens.get(flow_id, 0.0),
                           claim.remaining_demand_bytes)
                if need <= 0:
                    continue
                prbs = min(int(math.ceil(need / claim.bytes_per_prb)),
                           prbs_left)
                granted = min(prbs * claim.bytes_per_prb,
                              claim.remaining_demand_bytes)
                claim.remaining_demand_bytes -= granted
                prbs_left -= prbs
                result.setdefault(flow_id, Allocation()).merge(prbs, granted)
                tti_delivered[flow_id] = (tti_delivered.get(flow_id, 0.0)
                                          + granted)

            # Phase 2: the full remaining band to the PF argmax flow.
            if prbs_left > 0:
                candidates = [c for c in claims
                              if c.remaining_demand_bytes > 1e-9
                              and c.bytes_per_prb > 0]
                if candidates:
                    best = max(candidates, key=self._pf_metric)
                    usable = min(
                        prbs_left,
                        int(math.ceil(best.remaining_demand_bytes
                                      / best.bytes_per_prb)))
                    granted = min(usable * best.bytes_per_prb,
                                  best.remaining_demand_bytes)
                    best.remaining_demand_bytes -= granted
                    result.setdefault(best.flow.flow_id,
                                      Allocation()).merge(usable, granted)
                    tti_delivered[best.flow.flow_id] = (
                        tti_delivered.get(best.flow.flow_id, 0.0) + granted)

            # PF average update, active flows only (see the fluid
            # scheduler's rationale for freezing idle flows).
            for claim in claims:
                flow_id = claim.flow.flow_id
                if flow_id not in active_ids:
                    continue
                rate = bytes_to_bits(tti_delivered.get(flow_id, 0.0)) \
                    / self.tti_s
                old = self._avg_rate_bps.get(flow_id, 0.0)
                self._avg_rate_bps[flow_id] = (1 - decay) * old + decay * rate

        return result
