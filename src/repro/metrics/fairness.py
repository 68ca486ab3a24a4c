"""Fairness metrics.

The paper reports Jain's fairness index of the clients' average video
rates (Tables I/II) and of actually transmitted bitrates (Section
IV-B).  Jain's index for allocations ``x_1..x_n`` is

    J = (sum x_i)^2 / (n * sum x_i^2)

and lies in ``[1/n, 1]``: 1 when everyone gets the same, ``1/n`` when
one client gets everything.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index of ``values``.

    Raises:
        ValueError: if ``values`` is empty or any value is negative.
    """
    if not values:
        raise ValueError("jain_index of empty sequence")
    if any(v < 0 for v in values):
        raise ValueError("jain_index requires non-negative values")
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares < sys.float_info.min and total > 0:
        # The squares underflowed to subnormals or zero.  The index is
        # scale-invariant, so rescale by the maximum and square again.
        peak = max(values)
        values = [v / peak for v in values]
        total = sum(values)
        squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0  # everyone got exactly zero: perfectly (vacuously) fair
    return (total * total) / (len(values) * squares)


def max_min_ratio(values: Sequence[float]) -> float:
    """Max/min ratio, a second fairness lens (1.0 is perfectly fair).

    Returns ``inf`` if the minimum is zero while the maximum is not.

    Raises:
        ValueError: if ``values`` is empty or any value is negative.
    """
    if not values:
        raise ValueError("max_min_ratio of empty sequence")
    if any(v < 0 for v in values):
        raise ValueError("max_min_ratio requires non-negative values")
    lo, hi = min(values), max(values)
    if lo == 0:
        return 1.0 if hi == 0 else float("inf")
    return hi / lo
