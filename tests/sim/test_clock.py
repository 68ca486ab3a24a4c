"""The integer cell clock: every periodic controller fires on its grid.

A cell counts its completed steps and derives ``now_s`` from the
count, and every timing input is a whole number of TTIs, so a
controller fires exactly when the cell's TTI count reaches its due
TTI: FLARE's 2 s BAIs and the 1 s metrics sampler on a 600 s testbed
run, the BAIs of a metro in lockstep and in-process, and AVIS's 150 ms
window on 20 ms steps.
"""

import math

import pytest

from repro.abr.avis import AvisNetworkAgent
from repro.core.oneapi import OneApiServer
from repro.metrics.collector import MetricsSampler
from repro.sim import Cell, CellConfig
from repro.sim.network import Network
from repro.workload.metro import build_metro_plan
from repro.workload.scenarios import build_testbed_scenario


def record_firings(monkeypatch, controller_type):
    """Record the ``now_s`` of every ``on_interval`` of a type."""
    calls = []
    original = controller_type.on_interval

    def recording(self, now_s, cell):
        calls.append(now_s)
        return original(self, now_s, cell)

    monkeypatch.setattr(controller_type, "on_interval", recording)
    return calls


def test_testbed_bais_and_ticks_on_grid(monkeypatch):
    # Table I's FLARE run at the paper's 600 s: 299 BAIs at 2, 4, ...,
    # 598 s and 599 sampler ticks at 1, 2, ..., 599 s, none a step late.
    ticks = record_firings(monkeypatch, MetricsSampler)
    scenario = build_testbed_scenario("flare", seed=1, duration_s=600.0)
    scenario.run()
    bais = [record.time_s for record in scenario.flare.server.records]
    assert bais == [2.0 * n for n in range(1, 300)]
    assert ticks == [float(n) for n in range(1, 600)]


@pytest.mark.parametrize("lockstep", [True, False],
                         ids=["lockstep", "in-process"])
def test_metro_bais_on_grid(monkeypatch, lockstep):
    bais = record_firings(monkeypatch, OneApiServer)
    plan = build_metro_plan(num_cells=4, ues_per_cell=4, seed=0)
    Network(plan).run(120.0, lockstep=lockstep)
    assert len(bais) == 4 * 59
    assert all(time_s == 2.0 * round(time_s / 2.0) for time_s in bais)


def test_avis_window_fires_at_ceiling_steps(monkeypatch):
    # W = 150 ms is 7.5 steps of 20 ms: the n-th window closes at the
    # start of step ceil(7.5 n) — 0.16, 0.30, 0.46, 0.60 s, ...
    calls = record_firings(monkeypatch, AvisNetworkAgent)
    cell = Cell(CellConfig(step_s=0.02))
    cell.add_controller(AvisNetworkAgent())
    cell.run(600.0)
    assert calls[:4] == [0.16, 0.30, 0.46, 0.60]
    assert calls == [math.ceil(7.5 * n) * 0.02
                     for n in range(1, 4000)]
