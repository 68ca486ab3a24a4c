"""Shared small utilities used across the FLARE reproduction.

This module deliberately stays dependency-light: unit helpers, running
statistics, exponentially weighted moving averages, and validation
helpers that the PHY/MAC/HAS layers all rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence
from typing import Any, TypeVar

#: Bits per byte, named to keep unit conversions greppable.
BITS_PER_BYTE = 8

_ReplayF = TypeVar("_ReplayF", bound=Callable[..., Any])
_MessageT = TypeVar("_MessageT")


class ShardPoolError(RuntimeError):
    """A shard worker failed (traceback text) or died (exit code).

    ``shard`` is the index of the failed shard.  Raised by
    :class:`repro.experiments.parallel.ShardPool`; defined here so the
    sim layer can catch it without importing the experiments package.
    """

    def __init__(self, message: str, shard: int | None = None) -> None:
        super().__init__(message)
        self.shard = shard


def sequential_replay(func: _ReplayF) -> _ReplayF:
    """Mark a sanctioned order-sensitive sequential-replay helper.

    The byte-identity contract (see docs/development.md) forbids
    order-sensitive reductions (``np.sum``, ``np.dot``, ``cumsum``…)
    over registered accumulators anywhere in the hot path, because
    pairwise/blocked summation orders differ between numpy versions
    and array layouts.  The sanctioned alternative is a *sequential
    replay*: a helper that walks the accumulator as an exact chain of
    python-float operations, reproducing the reference order
    bit-for-bit.  Decorating such a helper with ``@sequential_replay``
    exempts its body from flarelint rule FL008; the decorator itself
    is a no-op at runtime.
    """
    return func


def cross_shard_message(cls: type[_MessageT]) -> type[_MessageT]:
    """Mark a class whose instances cross a ShardPool pipe.

    Cross-shard messages must not rely on default pickling of live
    simulation objects (object identity, RNG state and channel wiring
    do not survive a naive round-trip).  flarelint rule FL010 requires
    every decorated class to implement the pickle-free blob contract:
    either ``to_blob()``/``from_blob()`` or an explicit
    ``__getstate__``/``__setstate__`` pair.  The decorator itself is a
    no-op at runtime; it exists so the contract is greppable and
    statically checkable.
    """
    return cls

#: Milliseconds per second.
MS_PER_S = 1000.0


def kbps(value: float) -> float:
    """Convert kilobits/second to bits/second."""
    return value * 1e3


def mbps(value: float) -> float:
    """Convert megabits/second to bits/second."""
    return value * 1e6


def to_kbps(bits_per_second: float) -> float:
    """Convert bits/second to kilobits/second."""
    return bits_per_second / 1e3


def to_mbps(bits_per_second: float) -> float:
    """Convert bits/second to megabits/second."""
    return bits_per_second / 1e6


def bytes_to_bits(num_bytes: float) -> float:
    """Convert a byte count to bits."""
    return num_bytes * BITS_PER_BYTE


def bits_to_bytes(num_bits: float) -> float:
    """Convert a bit count to bytes."""
    return num_bits / BITS_PER_BYTE


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval ``[lo, hi]``.

    Raises:
        ValueError: if ``lo > hi``.
    """
    if lo > hi:
        raise ValueError(f"empty clamp interval: [{lo}, {hi}]")
    return max(lo, min(hi, value))


def require_positive(name: str, value: float) -> float:
    """Validate that a configuration value is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(name: str, value: float) -> float:
    """Validate that a configuration value is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Validate that ``value`` lies in ``[lo, hi]``."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value


def whole_ttis(name: str, value_s: float, tti_s: float) -> int:
    """``value_s`` as a whole number of ``tti_s``-long TTIs.

    Every timing input of the simulator passes through here once, so
    clock arithmetic after it is on integers.  The check absorbs only
    the rounding of the division: the one tolerance on a time.

    Raises:
        ValueError: if ``value_s`` is not a whole number of TTIs.
    """
    ratio = value_s / tti_s
    ttis = round(ratio)
    if abs(ratio - ttis) > 1e-6:
        raise ValueError(f"{name} ({value_s!r} s) is not a whole number "
                         f"of {tti_s!r} s TTIs")
    return ttis


def step_time(step: int, step_s: float) -> float:
    """Simulated time after ``step`` fluid steps: the cell clock.

    Every path that derives a time from a step count uses this one
    expression, so they agree to the last bit.
    """
    return step * step_s


class Ewma:
    """Exponentially weighted moving average.

    The convention follows classic TCP/AVIS-style estimators:
    ``estimate <- (1 - weight) * estimate + weight * sample``.

    An :class:`Ewma` that has received no samples reports ``None`` from
    :attr:`value` so callers can distinguish "no information yet" from a
    genuine zero estimate.
    """

    def __init__(self, weight: float) -> None:
        require_in_range("weight", weight, 0.0, 1.0)
        self._weight = weight
        self._value: float | None = None

    @property
    def weight(self) -> float:
        """The smoothing weight applied to each new sample."""
        return self._weight

    @property
    def value(self) -> float | None:
        """Current estimate, or ``None`` before the first sample."""
        return self._value

    def update(self, sample: float) -> float:
        """Fold ``sample`` into the average and return the new estimate."""
        if self._value is None:
            self._value = float(sample)
        else:
            self._value = (1.0 - self._weight) * self._value + self._weight * sample
        return self._value

    def value_or(self, default: float) -> float:
        """Return the estimate, or ``default`` if no samples were seen."""
        return default if self._value is None else self._value

    def reset(self) -> None:
        """Discard all history."""
        self._value = None


class RunningStat:
    """Numerically stable running mean/variance (Welford's algorithm)."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    @property
    def count(self) -> int:
        """Number of samples folded in so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean

    @property
    def variance(self) -> float:
        """Population variance (0.0 for fewer than two samples)."""
        if self._count < 2:
            return 0.0
        return self._m2 / self._count

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def update(self, sample: float) -> None:
        """Fold one sample into the statistics."""
        self._count += 1
        delta = sample - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (sample - self._mean)

    def extend(self, samples: Iterable[float]) -> None:
        """Fold many samples into the statistics."""
        for sample in samples:
            self.update(sample)


class SlidingWindow:
    """Fixed-capacity window of the most recent float samples."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._samples: list[float] = []

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def capacity(self) -> int:
        """Maximum number of retained samples."""
        return self._capacity

    @property
    def samples(self) -> Sequence[float]:
        """The retained samples, oldest first."""
        return tuple(self._samples)

    def push(self, sample: float) -> None:
        """Append ``sample``, evicting the oldest if at capacity."""
        self._samples.append(float(sample))
        if len(self._samples) > self._capacity:
            del self._samples[0]

    def is_full(self) -> bool:
        """True once :attr:`capacity` samples have been retained."""
        return len(self._samples) == self._capacity

    def mean(self) -> float | None:
        """Arithmetic mean of retained samples, ``None`` when empty."""
        if not self._samples:
            return None
        return sum(self._samples) / len(self._samples)

    def harmonic_mean(self) -> float | None:
        """Harmonic mean of retained samples (FESTIVE's estimator).

        Samples that are zero or negative are ignored because a harmonic
        mean is undefined for them; if every sample is non-positive the
        result is ``None``.
        """
        positives = [s for s in self._samples if s > 0]
        if not positives:
            return None
        return len(positives) / sum(1.0 / s for s in positives)

    def clear(self) -> None:
        """Drop all samples."""
        self._samples.clear()


def harmonic_mean(samples: Sequence[float]) -> float:
    """Harmonic mean of strictly positive samples.

    Raises:
        ValueError: if ``samples`` is empty or any sample is <= 0.
    """
    if not samples:
        raise ValueError("harmonic_mean of empty sequence")
    if any(s <= 0 for s in samples):
        raise ValueError("harmonic_mean requires strictly positive samples")
    return len(samples) / sum(1.0 / s for s in samples)


@dataclass
class IntervalAccumulator:
    """Accumulates a byte count over a reporting interval.

    Used by the MAC tracing modules to turn per-step deliveries into
    per-interval throughput reports.
    """

    total_bytes: float = 0.0
    elapsed_s: float = 0.0
    _history: list[float] = field(default_factory=list)

    def add(self, num_bytes: float, duration_s: float) -> None:
        """Record ``num_bytes`` delivered over ``duration_s`` seconds."""
        require_non_negative("num_bytes", num_bytes)
        require_non_negative("duration_s", duration_s)
        self.total_bytes += num_bytes
        self.elapsed_s += duration_s

    def throughput_bps(self) -> float:
        """Average throughput over the open interval, in bits/second."""
        if self.elapsed_s <= 0:
            return 0.0
        return bytes_to_bits(self.total_bytes) / self.elapsed_s

    def roll(self) -> float:
        """Close the interval: return its throughput and reset."""
        throughput = self.throughput_bps()
        self._history.append(throughput)
        self.total_bytes = 0.0
        self.elapsed_s = 0.0
        return throughput

    @property
    def history(self) -> Sequence[float]:
        """Throughputs of all closed intervals, oldest first."""
        return tuple(self._history)
