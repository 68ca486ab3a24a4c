"""RB & Rate Trace Module and Statistics Reporter.

The paper's femtocell MAC layer traces, per video flow, the resource
blocks assigned and the bytes transmitted; a Statistics Reporter ships
those records to the OneAPI server each bitrate assignment interval
(BAI).  Algorithm 1 consumes them as ``n_u^{i-1}`` (RBs assigned in
the previous BAI) and ``b_u^{i-1}`` (bytes transmitted in the previous
BAI), which together estimate each flow's per-RB efficiency.

:class:`RbTraceModule` is that tracer.  The scheduler records every
allocation into it; a controller calls :meth:`roll` at each BAI
boundary to obtain the closed interval's per-flow report.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

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
    """Accumulates per-flow RB and byte counts between BAI boundaries."""

    def __init__(self) -> None:
        self._prbs: dict[int, float] = {}
        self._bytes: dict[int, float] = {}
        self._interval_start_s = 0.0
        self._now_s = 0.0
        self._cumulative_bytes: dict[int, float] = {}
        self._cumulative_prbs: dict[int, float] = {}

    def record(self, flow_id: int, prbs: float, num_bytes: float,
               now_s: float) -> None:
        """Record one scheduling grant.

        Args:
            flow_id: the granted flow.
            prbs: resource blocks assigned this step (may be
                fractional).
            num_bytes: bytes delivered this step.
            now_s: simulation time at the end of the step.
        """
        require_non_negative("prbs", prbs)
        require_non_negative("num_bytes", num_bytes)
        self._prbs[flow_id] = self._prbs.get(flow_id, 0.0) + prbs
        self._bytes[flow_id] = self._bytes.get(flow_id, 0.0) + num_bytes
        self._cumulative_prbs[flow_id] = (
            self._cumulative_prbs.get(flow_id, 0.0) + prbs
        )
        self._cumulative_bytes[flow_id] = (
            self._cumulative_bytes.get(flow_id, 0.0) + num_bytes
        )
        self._now_s = max(self._now_s, now_s)

    def roll(self, now_s: float) -> dict[int, FlowUsage]:
        """Close the open interval and return its per-flow report.

        This is the Statistics Reporter hand-off: the returned mapping
        is what the Communication Module would ship to the OneAPI
        server.
        """
        duration = max(now_s - self._interval_start_s, 0.0)
        report = {
            flow_id: FlowUsage(
                prbs=self._prbs.get(flow_id, 0.0),
                bytes_tx=self._bytes.get(flow_id, 0.0),
                duration_s=duration,
            )
            for flow_id in set(self._prbs) | set(self._bytes)
        }
        self._prbs.clear()
        self._bytes.clear()
        self._interval_start_s = now_s
        return report

    def cumulative(self, flow_id: int) -> tuple[float, float]:
        """Total (prbs, bytes) for ``flow_id`` since simulation start."""
        return (
            self._cumulative_prbs.get(flow_id, 0.0),
            self._cumulative_bytes.get(flow_id, 0.0),
        )

    def total_cumulative_prbs(self) -> float:
        """Total PRBs this cell granted since simulation start.

        Includes flows that have since departed (handover), so the
        total reflects what *this cell's* air interface transmitted —
        the quantity inter-cell interference coupling is driven by.
        """
        total = 0.0
        for prbs in self._cumulative_prbs.values():
            total += prbs
        return total

    def tracked_flows(self) -> Iterable[int]:
        """Flow ids with any recorded activity since the last roll."""
        return sorted(set(self._prbs) | set(self._bytes))
