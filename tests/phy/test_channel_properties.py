"""Property: every channel model answers as a pure function of time.

The object path queries every flow's channel every step; the fused
kernel step queries it only while the flow is backlogged.  Both must
see the same iTbs, so querying any subset of a 20 ms time grid, in any
order, must return for each time what a fresh instance queried in time
order returns.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.channel import (
    CyclicItbsChannel,
    StaticItbsChannel,
    TraceItbsChannel,
)
from repro.phy.mobility import Field
from repro.workload.scenarios import _fading_channel

STEP_S = 0.02
GRID_STEPS = 30000  # 600 s: several random-waypoint legs

FACTORIES = {
    "static": lambda: StaticItbsChannel(9),
    "cyclic": lambda: CyclicItbsChannel(lo=1, hi=12, cycle_s=20.0,
                                        offset_s=3.0),
    "trace": lambda: TraceItbsChannel([(0.0, 3), (7.5, 11), (31.0, 5)],
                                      loop_s=45.0),
    "fading-static": lambda: _fading_channel(
        np.random.default_rng([7, 101, 0]), Field(2000.0, 2000.0),
        mobile=False),
    "fading-mobile": lambda: _fading_channel(
        np.random.default_rng([7, 101, 0]), Field(2000.0, 2000.0),
        mobile=True),
}


@functools.lru_cache(maxsize=None)
def in_order(kind):
    """A fresh channel's answers, queried at every grid time in order."""
    channel = FACTORIES[kind]()
    return tuple(channel.itbs_at(step * STEP_S)
                 for step in range(GRID_STEPS))


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@settings(max_examples=30, deadline=None)
@given(steps=st.lists(st.integers(0, GRID_STEPS - 1), min_size=1,
                      max_size=200, unique=True))
def test_any_query_subset_and_order(kind, steps):
    expected = in_order(kind)
    channel = FACTORIES[kind]()
    assert [channel.itbs_at(step * STEP_S) for step in steps] == [
        expected[step] for step in steps]
