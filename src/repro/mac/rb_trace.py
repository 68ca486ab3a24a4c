"""RB & Rate Trace Module and Statistics Reporter.

The paper's femtocell MAC layer traces, per video flow, the resource
blocks assigned and the bytes transmitted; a Statistics Reporter ships
those records to the OneAPI server each bitrate assignment interval
(BAI).  Algorithm 1 consumes them as ``n_u^{i-1}`` (RBs assigned in
the previous BAI) and ``b_u^{i-1}`` (bytes transmitted in the previous
BAI), which together estimate each flow's per-RB efficiency.

:class:`RbTraceModule` is that tracer: the cell records every grant
into per-flow cumulative counters.  The hand-off is
:meth:`~repro.sim.cell.Cell.consume_usage_report`, which turns the
counters into each consumer's per-interval :class:`FlowUsage` report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import bytes_to_bits, require_non_negative


@dataclass(frozen=True)
class FlowUsage:
    """Per-flow usage within one closed interval.

    Attributes:
        prbs: resource blocks assigned (fractional: the fluid scheduler
            may grant partial PRBs per step).
        bytes_tx: bytes transmitted.
        duration_s: interval length.
    """

    prbs: float
    bytes_tx: float
    duration_s: float

    @property
    def bytes_per_prb(self) -> float:
        """Realised per-RB efficiency (0 when no RBs were assigned)."""
        if self.prbs <= 0:
            return 0.0
        return self.bytes_tx / self.prbs

    @property
    def throughput_bps(self) -> float:
        """Average throughput over the interval in bits/second."""
        if self.duration_s <= 0:
            return 0.0
        return bytes_to_bits(self.bytes_tx) / self.duration_s


class RbTraceModule:
    """Per-flow cumulative RB and byte counters of the flows in the cell.

    A flow's counters start when it joins the cell and leave with it
    (:meth:`retire`); its PRBs stay in the cell's total.
    """

    def __init__(self) -> None:
        self._cumulative_bytes: dict[int, float] = {}
        self._cumulative_prbs: dict[int, float] = {}
        self._retired_prbs = 0.0

    def record(self, flow_id: int, prbs: float, num_bytes: float) -> None:
        """Record one scheduling grant.

        Args:
            flow_id: the granted flow.
            prbs: resource blocks assigned this step (may be
                fractional).
            num_bytes: bytes delivered this step.
        """
        require_non_negative("prbs", prbs)
        require_non_negative("num_bytes", num_bytes)
        self._cumulative_prbs[flow_id] = (
            self._cumulative_prbs.get(flow_id, 0.0) + prbs
        )
        self._cumulative_bytes[flow_id] = (
            self._cumulative_bytes.get(flow_id, 0.0) + num_bytes
        )

    def cumulative(self, flow_id: int) -> tuple[float, float]:
        """Total (prbs, bytes) for ``flow_id`` since it joined the cell."""
        return (
            self._cumulative_prbs.get(flow_id, 0.0),
            self._cumulative_bytes.get(flow_id, 0.0),
        )

    def retire(self, flow_id: int) -> None:
        """Drop a departed flow's counters, keeping its PRBs in the
        cell total."""
        self._retired_prbs += self._cumulative_prbs.pop(flow_id, 0.0)
        self._cumulative_bytes.pop(flow_id, None)

    def total_cumulative_prbs(self) -> float:
        """Total PRBs this cell granted since simulation start.

        Includes flows that have since departed (handover), so the
        total reflects what *this cell's* air interface transmitted —
        the quantity inter-cell interference coupling is driven by.
        The live flows are added to the departed flows' total in
        flow-id order, so the bits do not depend on the order in which
        flows got their first grant.
        """
        cumulative = self._cumulative_prbs
        total = self._retired_prbs
        for flow_id in sorted(cumulative):
            total += cumulative[flow_id]
        return total
