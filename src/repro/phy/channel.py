"""Per-UE channel models.

A channel model answers one question for the MAC layer: *at time t,
which TBS index does this UE support?*  Everything else (positions,
fading, the testbed's iTbs override) is internal to the model.

The paper uses three channel regimes, all reproduced here:

* ``StaticItbsChannel`` — the testbed static scenario: a fixed iTbs
  override per UE (paper sets iTbs = 2).
* ``CyclicItbsChannel`` — the testbed dynamic scenario: iTbs swept
  linearly from ``lo`` to ``hi`` over half a cycle and back down over
  the other half (paper: 1 -> 12 -> 1 over 4 minutes), with a per-UE
  phase offset to model heterogeneity.
* ``FadingChannel`` — the ns-3 scenarios: mobility -> path loss ->
  shadowing -> fast fading -> SINR -> CQI -> iTbs ("trace based model"
  in the paper's Table III; ns-3 implements fading via pre-computed
  traces, which is exactly what :class:`FadingProcess` generates).

``TraceItbsChannel`` additionally replays an explicit (time, iTbs)
trace, matching the paper's trace-driven option directly.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections.abc import Sequence

import numpy as np

from repro import check as chk
from repro.obs import prof
from repro.phy import tbs
from repro.phy.cqi import LinkAdaptation
from repro.phy.mobility import MobilityModel, Position
from repro.phy.pathloss import LinkBudget, LogDistancePathLoss
from repro.util import require_positive


class ChannelModel:
    """Interface: per-UE TBS index as a function of time."""

    def itbs_at(self, time_s: float) -> int:
        """TBS index supported by this UE at simulation time ``time_s``."""
        raise NotImplementedError

    def bytes_per_prb_at(self, time_s: float) -> float:
        """Bytes one PRB carries in one TTI at ``time_s``."""
        itbs = self.itbs_at(time_s)
        if chk.CHECKER is not None:
            chk.CHECKER.check_tbs_index(itbs, tbs.MIN_ITBS, tbs.MAX_ITBS)
        return tbs.bytes_per_prb(itbs)


class StaticItbsChannel(ChannelModel):
    """Fixed TBS index, as in the testbed static scenario."""

    def __init__(self, itbs: int) -> None:
        self._itbs = tbs.validate_itbs(itbs)

    @property
    def itbs(self) -> int:
        """The fixed TBS index."""
        return self._itbs

    def itbs_at(self, time_s: float) -> int:
        return self._itbs


class CyclicItbsChannel(ChannelModel):
    """Triangular iTbs sweep: ``lo -> hi -> lo`` over one cycle.

    The paper's dynamic scenario gradually increases iTbs from 1 to 12
    over two minutes, decreases it back over the next two minutes, and
    repeats; each UE starts the cycle at a different offset.

    Args:
        lo: lowest TBS index of the sweep.
        hi: highest TBS index of the sweep.
        cycle_s: full cycle duration (up and down) in seconds.
        offset_s: per-UE phase offset in seconds.
    """

    def __init__(self, lo: int = 1, hi: int = 12, cycle_s: float = 240.0,
                 offset_s: float = 0.0) -> None:
        tbs.validate_itbs(lo)
        tbs.validate_itbs(hi)
        if hi < lo:
            raise ValueError(f"hi must be >= lo ({hi} < {lo})")
        require_positive("cycle_s", cycle_s)
        self._lo = lo
        self._hi = hi
        self._cycle = cycle_s
        self._offset = offset_s

    def itbs_at(self, time_s: float) -> int:
        phase = ((time_s + self._offset) % self._cycle) / self._cycle
        span = self._hi - self._lo
        if phase < 0.5:
            level = self._lo + 2.0 * phase * span
        else:
            level = self._hi - 2.0 * (phase - 0.5) * span
        return int(round(level))


class TraceItbsChannel(ChannelModel):
    """Replay an explicit, piecewise-constant (time, iTbs) trace.

    The trace must start at time 0 and be sorted by time; the last
    entry holds forever (or the trace loops if ``loop_s`` is set).
    """

    def __init__(self, trace: Sequence[tuple[float, int]],
                 loop_s: float | None = None) -> None:
        if not trace:
            raise ValueError("trace must be non-empty")
        times = [t for t, _ in trace]
        if times[0] != 0.0:
            raise ValueError(f"trace must start at t=0, got {times[0]}")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace times must be non-decreasing")
        for _, itbs in trace:
            tbs.validate_itbs(itbs)
        if loop_s is not None:
            require_positive("loop_s", loop_s)
            if loop_s < times[-1]:
                raise ValueError("loop_s must cover the whole trace")
        self._times = times
        self._values = [itbs for _, itbs in trace]
        self._loop = loop_s

    def itbs_at(self, time_s: float) -> int:
        t = time_s % self._loop if self._loop else time_s
        index = bisect.bisect_right(self._times, t) - 1
        return self._values[max(index, 0)]


class OutageChannel(ChannelModel):
    """Failure-injection wrapper: total link loss during outage windows.

    During an outage the UE is out of range (CQI 0): it supports no
    transport block at all and the scheduler must skip it.  Outside the
    windows the wrapped channel is used unchanged.  Used by the
    failure-injection tests (radio blackouts, tunnel scenarios).
    """

    def __init__(self, inner: ChannelModel,
                 outages: Sequence[tuple[float, float]]) -> None:
        for start, end in outages:
            if end <= start:
                raise ValueError(f"empty outage window [{start}, {end})")
        self._inner = inner
        self._outages = tuple(outages)

    def in_outage(self, time_s: float) -> bool:
        """True while ``time_s`` falls inside an outage window."""
        return any(start <= time_s < end for start, end in self._outages)

    def itbs_at(self, time_s: float) -> int:
        if self.in_outage(time_s):
            return tbs.MIN_ITBS
        return self._inner.itbs_at(time_s)

    def bytes_per_prb_at(self, time_s: float) -> float:
        if self.in_outage(time_s):
            return 0.0  # CQI 0: unschedulable
        return self._inner.bytes_per_prb_at(time_s)


class FadingProcess:
    """Correlated fading samples (a pre-computed trace, ns-3 style).

    Generates a log-normal shadowing walk plus Rayleigh-like fast
    fading, discretised at ``sample_period_s``.  The process is fully
    determined by its RNG, so a seed reproduces the same trace.

    Attributes:
        sample_period_s: fading trace resolution.
        shadowing_std_db: standard deviation of the shadowing term.
        shadowing_corr: lag-1 autocorrelation of the shadowing walk.
        fast_fading_std_db: standard deviation of the residual
            fast-fading term.  True fast fading decorrelates at
            millisecond scale and averages out over a segment download;
            what this term models is the *residual* throughput
            variability a download actually experiences (per-TTI
            scheduling quantisation, HARQ/RLC retransmissions, CQI
            feedback lag), which decorrelates over seconds.
        fast_fading_corr: lag-1 autocorrelation of the residual term.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        sample_period_s: float = 0.5,
        shadowing_std_db: float = 4.0,
        shadowing_corr: float = 0.9,
        fast_fading_std_db: float = 2.0,
        fast_fading_corr: float = 0.85,
    ) -> None:
        require_positive("sample_period_s", sample_period_s)
        for name, corr in (("shadowing_corr", shadowing_corr),
                           ("fast_fading_corr", fast_fading_corr)):
            if not 0.0 <= corr < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {corr}")
        self._rng = rng
        self._period = sample_period_s
        self._shadow_std = shadowing_std_db
        self._corr = shadowing_corr
        self._fast_std = fast_fading_std_db
        self._fast_corr = fast_fading_corr
        # Packed doubles: 8 bytes a sample rather than a list slot and
        # a float object, for a trace that grows for the whole run.
        self._samples: array[float] = array("d")
        self._shadow_state = 0.0
        self._fast_state = 0.0

    def _extend_until(self, index: int) -> None:
        need = index + 1 - len(self._samples)
        if need <= 0:
            return
        innovation_std = self._shadow_std * math.sqrt(1.0 - self._corr ** 2)
        fast_innovation_std = (
            self._fast_std * math.sqrt(1.0 - self._fast_corr ** 2))
        # One batched draw for both innovation streams.  For a zero
        # mean, ``Generator.normal(0.0, std)`` is ``standard_normal()
        # * std`` draw-for-draw, so consuming ``2 * need`` standard
        # normals here yields a sample trace bit-identical to the
        # one-call-per-sample loop (see
        # ``tests/phy/test_channel.py::test_fading_batch_draws``).
        draws = self._rng.standard_normal(2 * need).tolist()
        shadow = self._shadow_state
        fast = self._fast_state
        corr = self._corr
        fast_corr = self._fast_corr
        samples = self._samples
        position = 0
        for _ in range(need):
            shadow = corr * shadow + draws[position] * innovation_std
            fast = (fast_corr * fast
                    + draws[position + 1] * fast_innovation_std)
            samples.append(shadow + fast)
            position += 2
        self._shadow_state = shadow
        self._fast_state = fast

    def fading_db(self, time_s: float) -> float:
        """Additive fading in dB at ``time_s`` (piecewise constant)."""
        if time_s < 0:
            raise ValueError(f"time must be >= 0, got {time_s}")
        index = int(time_s / self._period)
        self._extend_until(index)
        return self._samples[index]


class FadingChannel(ChannelModel):
    """Full PHY chain: mobility -> path loss -> fading -> SINR -> iTbs.

    This is the ns-3-equivalent channel used by the simulation-study
    scenarios.  The per-UE TBS index is constant over each bucket of
    the fading-process resolution: bucket ``b`` is evaluated at its
    start, ``b * period``, and cached.  The answer is a pure function
    of time as long as the mobility and fading models are (give them
    separate generators), whichever steps query it and in what order.
    """

    def __init__(
        self,
        mobility: MobilityModel,
        enb_position: Position,
        fading: FadingProcess,
        pathloss: LogDistancePathLoss | None = None,
        link_budget: LinkBudget | None = None,
        link_adaptation: LinkAdaptation | None = None,
    ) -> None:
        self._mobility = mobility
        self._enb = enb_position
        self._fading = fading
        self._pathloss = pathloss if pathloss is not None else LogDistancePathLoss()
        self._budget = link_budget if link_budget is not None else LinkBudget(
            tx_power_dbm=43.0
        )
        self._la = link_adaptation if link_adaptation is not None else LinkAdaptation()
        self._cache_time: float | None = None
        self._cache_itbs = tbs.MIN_ITBS
        self._cache_period = self._fading._period  # fading resolution

    def sinr_db_at(self, time_s: float) -> float:
        """Instantaneous SINR at ``time_s`` in dB."""
        dist = self._mobility.distance_to(self._enb, time_s)
        loss = self._pathloss.loss_db(dist)
        fade = self._fading.fading_db(time_s)
        return self._budget.sinr_db(loss, fade)

    def itbs_at(self, time_s: float) -> int:
        bucket = math.floor(time_s / self._cache_period)
        if self._cache_time != bucket:
            # Cache miss: the full mobility -> path loss -> fading ->
            # SINR -> link-adaptation chain runs (profiled as phy.cqi).
            profiler = prof.PROFILER
            if profiler is not None:
                profiler.begin("phy.cqi")
            self._cache_itbs = self._la.itbs(
                self.sinr_db_at(bucket * self._cache_period))
            self._cache_time = bucket
            if profiler is not None:
                profiler.end()
        return self._cache_itbs
