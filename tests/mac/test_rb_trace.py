"""Tests for the RB & Rate Trace module."""

import pytest

from repro.mac.rb_trace import FlowUsage, RbTraceModule


class TestFlowUsage:
    def test_bytes_per_prb(self):
        usage = FlowUsage(prbs=10.0, bytes_tx=170.0, duration_s=1.0)
        assert usage.bytes_per_prb == pytest.approx(17.0)

    def test_zero_prbs(self):
        usage = FlowUsage(prbs=0.0, bytes_tx=0.0, duration_s=1.0)
        assert usage.bytes_per_prb == 0.0

    def test_throughput(self):
        usage = FlowUsage(prbs=1.0, bytes_tx=1250.0, duration_s=2.0)
        assert usage.throughput_bps == pytest.approx(5000.0)

    def test_zero_duration(self):
        assert FlowUsage(1.0, 100.0, 0.0).throughput_bps == 0.0


class TestRbTraceModule:
    def test_cumulative_survives_rolls(self):
        trace = RbTraceModule()
        trace.record(1, 5.0, 85.0)
        trace.record(1, 3.0, 51.0)
        assert trace.cumulative(1) == (pytest.approx(8.0),
                                       pytest.approx(136.0))

    def test_total_independent_of_flow_order(self):
        # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit:
        # the total must not depend on which flow was granted first.
        grants = [(1, 0.1), (2, 0.2), (3, 0.3)]
        forward, backward = RbTraceModule(), RbTraceModule()
        for flow_id, prbs in grants:
            forward.record(flow_id, prbs, 17.0 * prbs)
        for flow_id, prbs in reversed(grants):
            backward.record(flow_id, prbs, 17.0 * prbs)
        assert (forward.total_cumulative_prbs().hex()
                == backward.total_cumulative_prbs().hex())

    def test_retired_flow_restarts_but_stays_in_total(self):
        trace = RbTraceModule()
        trace.record(1, 5.0, 85.0)
        trace.record(2, 3.0, 51.0)
        trace.retire(1)
        assert trace.cumulative(1) == (0.0, 0.0)
        assert trace.total_cumulative_prbs() == pytest.approx(8.0)
        trace.record(1, 2.0, 34.0)
        assert trace.cumulative(1) == (2.0, 34.0)
        assert trace.total_cumulative_prbs() == pytest.approx(10.0)

    def test_negative_rejected(self):
        trace = RbTraceModule()
        with pytest.raises(ValueError):
            trace.record(1, -1.0, 0.0)

    def test_unknown_flow_cumulative_zero(self):
        assert RbTraceModule().cumulative(9) == (0.0, 0.0)
