"""Tests for the PF / RR schedulers and the water-filling helper."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.gbr import BearerQos, BearerRegistry
from repro.mac.scheduler import (
    MaxThroughputScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    _Claim,
    waterfill_prbs,
)
from repro.mac.tti_reference import TtiReferenceScheduler
from repro.net.flows import DataFlow, UserEquipment, VideoFlow
from repro.net.tcp import FluidTcp
from repro.phy.channel import StaticItbsChannel


def make_ue(itbs=9):
    return UserEquipment(StaticItbsChannel(itbs))


def make_data_flow(itbs=9):
    """A data flow whose TCP window never binds (tests the MAC alone)."""
    return DataFlow(make_ue(itbs), tcp=FluidTcp(initial_cwnd_bytes=1e12,
                                                max_cwnd_bytes=1e13))


def make_claim(demand_bytes, bytes_per_prb=17.0):
    flow = DataFlow(make_ue())
    return _Claim(flow, bytes_per_prb, demand_bytes)


class TestWaterfill:
    def test_equal_split_unbounded(self):
        claims = [make_claim(math.inf), make_claim(math.inf)]
        grants = waterfill_prbs(100.0, claims, [1.0, 1.0])
        assert grants == pytest.approx([50.0, 50.0])

    def test_weighted_split(self):
        claims = [make_claim(math.inf), make_claim(math.inf)]
        grants = waterfill_prbs(90.0, claims, [1.0, 2.0])
        assert grants == pytest.approx([30.0, 60.0])

    def test_capped_claim_redistributes(self):
        claims = [make_claim(17.0), make_claim(math.inf)]  # 1 PRB cap
        grants = waterfill_prbs(100.0, claims, [1.0, 1.0])
        assert grants[0] == pytest.approx(1.0)
        assert grants[1] == pytest.approx(99.0)

    def test_zero_weight_gets_nothing(self):
        claims = [make_claim(math.inf), make_claim(math.inf)]
        grants = waterfill_prbs(100.0, claims, [0.0, 1.0])
        assert grants[0] == 0.0
        assert grants[1] == pytest.approx(100.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            waterfill_prbs(10.0, [make_claim(1.0)], [1.0, 2.0])

    @given(st.lists(st.floats(1.0, 1e6), min_size=1, max_size=8),
           st.lists(st.floats(0.1, 10.0), min_size=8, max_size=8),
           st.floats(1.0, 1e4))
    @settings(max_examples=50)
    def test_never_exceeds_budget_or_demand(self, demands, weights, budget):
        claims = [make_claim(d) for d in demands]
        grants = waterfill_prbs(budget, claims, weights[:len(claims)])
        assert sum(grants) <= budget + 1e-6
        for claim, grant in zip(claims, grants):
            assert grant <= claim.max_prbs() + 1e-6
            assert grant >= 0.0

    @given(st.floats(10.0, 1e4))
    @settings(max_examples=25)
    def test_work_conserving(self, budget):
        # With unbounded demand, the whole budget is handed out.
        claims = [make_claim(math.inf) for _ in range(3)]
        grants = waterfill_prbs(budget, claims, [1.0, 2.0, 3.0])
        assert sum(grants) == pytest.approx(budget)


class TestProportionalFair:
    def test_single_backlogged_flow_gets_all(self):
        scheduler = ProportionalFairScheduler()
        registry = BearerRegistry()
        flow = make_data_flow()
        registry.register(flow.flow_id)
        grants = scheduler.allocate(0.0, 0.01, [flow], 500.0, registry)
        assert grants[flow.flow_id].prbs == pytest.approx(500.0)

    def test_long_run_throughput_equalises_equal_channels(self):
        scheduler = ProportionalFairScheduler(time_constant_s=0.5)
        registry = BearerRegistry()
        flows = [make_data_flow() for _ in range(3)]
        for flow in flows:
            registry.register(flow.flow_id)
        totals = {flow.flow_id: 0.0 for flow in flows}
        for step in range(500):
            grants = scheduler.allocate(step * 0.01, 0.01, flows, 500.0,
                                        registry)
            for flow in flows:
                delivered = grants.get(flow.flow_id)
                if delivered:
                    totals[flow.flow_id] += delivered.bytes_delivered
                    flow.on_scheduled(delivered.bytes_delivered, 0.01)
                else:
                    flow.on_scheduled(0.0, 0.01)
        values = list(totals.values())
        assert max(values) / min(values) < 1.1

    def test_mbr_cap_respected(self):
        scheduler = ProportionalFairScheduler()
        registry = BearerRegistry()
        flow = make_data_flow()
        registry.register(flow.flow_id,
                          BearerQos(gbr_bps=0.0, mbr_bps=8e5))
        grants = scheduler.allocate(0.0, 0.1, [flow], 5000.0, registry)
        # 0.8 Mbps over 100 ms = 10 KB max
        assert grants[flow.flow_id].bytes_delivered <= 10000.0 + 1e-6

    def test_idle_flow_average_not_decayed(self):
        scheduler = ProportionalFairScheduler(time_constant_s=1.0)
        registry = BearerRegistry()
        busy = DataFlow(make_ue())
        idle = VideoFlow(make_ue())
        for flow in (busy, idle):
            registry.register(flow.flow_id)
        for step in range(100):
            grants = scheduler.allocate(step * 0.01, 0.01, [busy, idle],
                                        500.0, registry)
            for flow in (busy, idle):
                delivered = grants.get(flow.flow_id)
                flow.on_scheduled(
                    delivered.bytes_delivered if delivered else 0.0, 0.01)
        # The idle video flow never demanded: its PF average must not
        # have been dragged to zero-versus-undefined asymmetry; it was
        # simply never updated.
        assert idle.flow_id not in scheduler._avg_rate_bps

    @pytest.mark.parametrize("make_scheduler", [
        ProportionalFairScheduler, TtiReferenceScheduler])
    def test_forget_drops_served_average(self, make_scheduler):
        scheduler = make_scheduler()
        registry = BearerRegistry()
        flow = make_data_flow()
        registry.register(flow.flow_id)
        scheduler.allocate(0.0, 0.01, [flow], 500.0, registry)
        assert scheduler._avg_rate_bps[flow.flow_id] > 0
        scheduler.forget(flow.flow_id)
        assert flow.flow_id not in scheduler._avg_rate_bps


class TestRoundRobin:
    def test_equal_share(self):
        scheduler = RoundRobinScheduler()
        registry = BearerRegistry()
        flows = [make_data_flow() for _ in range(4)]
        for flow in flows:
            registry.register(flow.flow_id)
        grants = scheduler.allocate(0.0, 0.01, flows, 400.0, registry)
        for flow in flows:
            assert grants[flow.flow_id].prbs == pytest.approx(100.0)

    def test_cqi0_flow_not_scheduled(self):
        scheduler = RoundRobinScheduler()
        registry = BearerRegistry()
        good = make_data_flow(9)
        flows = [good]
        registry.register(good.flow_id)
        grants = scheduler.allocate(0.0, 0.01, flows, 100.0, registry)
        assert good.flow_id in grants


class TestMaxThroughput:
    def test_best_channel_served_first(self):
        scheduler = MaxThroughputScheduler()
        registry = BearerRegistry()
        good = make_data_flow(20)
        bad = make_data_flow(2)
        for flow in (good, bad):
            registry.register(flow.flow_id)
        grants = scheduler.allocate(0.0, 0.01, [bad, good], 500.0,
                                    registry)
        # The good channel takes the whole budget; the bad one starves.
        assert grants[good.flow_id].prbs == pytest.approx(500.0)
        assert bad.flow_id not in grants

    def test_spillover_when_best_is_satisfied(self):
        scheduler = MaxThroughputScheduler()
        registry = BearerRegistry()
        good = VideoFlow(make_ue(20))
        good.begin_download(170.0, on_complete=lambda: None)  # tiny
        bad = make_data_flow(2)
        for flow in (good, bad):
            registry.register(flow.flow_id)
        grants = scheduler.allocate(0.0, 0.01, [good, bad], 500.0,
                                    registry)
        assert grants[bad.flow_id].prbs > 400.0

    def test_beats_pf_on_cell_throughput_but_not_fairness(self):
        from repro.metrics.fairness import jain_index

        def run(scheduler):
            registry = BearerRegistry()
            flows = [make_data_flow(20), make_data_flow(4)]
            for flow in flows:
                registry.register(flow.flow_id)
            totals = {f.flow_id: 0.0 for f in flows}
            for step in range(200):
                grants = scheduler.allocate(step * 0.01, 0.01, flows,
                                            500.0, registry)
                for flow in flows:
                    got = grants.get(flow.flow_id)
                    delivered = got.bytes_delivered if got else 0.0
                    totals[flow.flow_id] += delivered
                    flow.on_scheduled(delivered, 0.01)
            return totals

        mt = run(MaxThroughputScheduler())
        pf = run(ProportionalFairScheduler())
        assert sum(mt.values()) >= sum(pf.values())
        assert (jain_index(list(mt.values()))
                < jain_index(list(pf.values())))
