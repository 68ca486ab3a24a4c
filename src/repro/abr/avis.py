"""AVIS network-side baseline [Chen et al., MOBICOM'13].

AVIS is the paper's representative *network-side* HAS scheme: an
in-network agent measures each video flow's channel, statically
partitions cell resources between video and data traffic, computes a
per-flow rate allocation inside the video partition, and enforces it
with GBR/MBR settings at the base station.  The UE keeps running its
own (simple) rate adaptation — the network never tells the client what
to request, which is exactly the mis-coordination FLARE removes:

* the UE's throughput estimate chases the MBR throttle with a lag, so
  requested bitrates oscillate around the enforced rate
  (paper Figure 6b), and
* the static video/data split under-utilises the cell whenever one
  side has slack (paper Section I-B).

Following the paper's evaluation setup: "For AVIS, we run a simple
rate adaptation algorithm on a UE that requests the highest possible
rate based on the estimated throughput, and set the GBR/MBR using the
scheduler in the BS instead of resource slicing techniques."
Parameters from Table IV: EWMA weight ``alpha = 0.01`` and scheduling
window ``W = 150`` (ms), which in the fluid MAC maps to the agent's
allocation epoch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.abr.base import AbrAlgorithm, AbrContext
from repro.util import Ewma, SlidingWindow, require_in_range, require_positive

if TYPE_CHECKING:
    from repro.mac.rb_trace import FlowUsage
    from repro.net.flows import VideoFlow
    from repro.sim.cell import Cell


class AvisUeAdapter(AbrAlgorithm):
    """AVIS's client half: request the highest rate the estimate allows.

    A short arithmetic-mean window with no hysteresis — deliberately
    naive, per the paper's description.  The MBR throttle at the MAC
    makes this estimator oscillate, reproducing AVIS's instability.
    """

    name = "avis-ue"

    def __init__(self, window: int = 3, safety: float = 1.0,
                 headroom: float = 0.05) -> None:
        require_in_range("safety", safety, 0.0, 1.0)
        require_in_range("headroom", headroom, 0.0, 1.0)
        self._samples = SlidingWindow(window)
        self.safety = safety
        self.headroom = headroom

    def reset(self) -> None:
        self._samples.clear()

    def on_segment_complete(self, ctx: AbrContext,
                            throughput_bps: float) -> None:
        self._samples.push(throughput_bps)

    def select_index(self, ctx: AbrContext) -> int:
        estimate = self._samples.mean()
        if estimate is None:
            return 0
        # "Requests the highest possible rate": an estimate sitting just
        # below a rung (the signature of an MBR throttle at that rung)
        # is rounded up by ``headroom``.  This is what real players do
        # with quantised estimates — and it is the engine of AVIS's
        # request/allocation oscillation: the rung is requested, the
        # throttled download erodes the buffer, the estimate dips, the
        # player falls back a rung, recovers, and repeats.
        budget = self.safety * estimate * (1.0 + self.headroom)
        return ctx.ladder.highest_at_most(budget)


class AvisNetworkAgent:
    """AVIS's network half: per-epoch GBR/MBR provisioning.

    The agent is an *interval controller* for
    :class:`repro.sim.cell.Cell`: the cell calls :meth:`on_interval`
    every ``interval_s`` seconds with itself as argument.

    Algorithm per epoch:

    1. Estimate each video flow's per-RB efficiency with an EWMA over
       the realised MAC usage (falling back to the CQI report when the
       flow was idle).
    2. Split the cell's RB budget *statically*: ``video_share`` of RBs
       to video flows, the rest to data flows.  The split is fixed at
       construction — AVIS's documented limitation.
    3. Divide the video partition equally among video flows and set
       each flow's GBR to the ladder rate below its achievable rate,
       with the MBR at the unsnapped achievable rate.
    4. Cap each data flow's MBR at an equal share of the data
       partition (resource slicing applied to the data side).

    Attributes:
        interval_s: allocation epoch (paper's W = 150 ms window).
        ewma_weight: capacity-estimator weight (paper's alpha = 0.01).
        video_share: fraction of cell RBs statically reserved for
            video; ``None`` freezes the population split seen at the
            first epoch.
    """

    name = "avis"

    def __init__(self, interval_s: float = 0.15, ewma_weight: float = 0.01,
                 video_share: float | None = None) -> None:
        require_positive("interval_s", interval_s)
        require_in_range("ewma_weight", ewma_weight, 0.0, 1.0)
        if video_share is not None:
            require_in_range("video_share", video_share, 0.0, 1.0)
        self.interval_s = interval_s
        self.ewma_weight = ewma_weight
        self._video_share = video_share
        self._efficiency: dict[int, Ewma] = {}

    def _estimate_efficiency(self, cell: Cell, flow: VideoFlow,
                             usage: FlowUsage | None) -> float:
        """EWMA'd bytes-per-RB estimate for one video flow."""
        estimator = self._efficiency.setdefault(
            flow.flow_id, Ewma(self.ewma_weight))
        sample = None
        if usage is not None and usage.prbs > 0:
            sample = usage.bytes_per_prb
        else:
            # Flow idle this epoch: fall back to its CQI report.
            sample = flow.ue.channel.bytes_per_prb_at(cell.now_s)
        if sample and sample > 0:
            estimator.update(sample)
        return estimator.value_or(
            flow.ue.channel.bytes_per_prb_at(cell.now_s))

    def on_interval(self, now_s: float, cell: Cell) -> None:
        """Run one provisioning epoch against ``cell``."""
        video_flows = cell.video_flows()
        data_flows = cell.data_flows()
        usage_report = cell.consume_usage_report(self)
        if self._video_share is None:
            total = len(video_flows) + len(data_flows)
            self._video_share = (len(video_flows) / total) if total else 1.0

        prbs_per_s = cell.prbs_per_second()
        video_prbs_per_s = prbs_per_s * self._video_share
        data_prbs_per_s = prbs_per_s - video_prbs_per_s

        if video_flows:
            per_flow_prbs = video_prbs_per_s / len(video_flows)
            for flow in video_flows:
                usage = usage_report.get(flow.flow_id)
                efficiency = self._estimate_efficiency(cell, flow, usage)
                achievable_bps = per_flow_prbs * efficiency * 8.0
                ladder = cell.ladder_for_flow(flow.flow_id)
                if ladder is not None:
                    gbr = ladder.rate(ladder.highest_at_most(achievable_bps))
                else:
                    gbr = achievable_bps
                # AVIS provisions the bearer for the *allocated* ladder
                # rate: GBR = MBR = the snapped allocation, enforced at
                # the MAC.  The UE can never stream above the
                # provisioned rate, so its own throughput estimate
                # hovers *at or just below* the rung it was given — the
                # indirect-enforcement mismatch the paper identifies:
                # the client keeps requesting a rung below (or, after an
                # unthrottled burst, above) what the network assigned.
                mbr = gbr
                cell.registry.update_gbr(flow.flow_id, gbr, mbr, now_s)

        if data_flows and data_prbs_per_s > 0:
            per_flow_prbs = data_prbs_per_s / len(data_flows)
            for flow in data_flows:
                efficiency = flow.ue.channel.bytes_per_prb_at(now_s)
                cap_bps = per_flow_prbs * efficiency * 8.0
                cell.registry.update_gbr(flow.flow_id, 0.0, cap_bps, now_s)
