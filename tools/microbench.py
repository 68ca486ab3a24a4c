"""Micro-benchmarks for the TTI hot-loop stages.

Five micro-kernels:

* ``sched`` — ``PrioritySetScheduler.allocate`` over N backlogged
  data flows: the GBR phase, the proportional-fair waterfill and the
  EWMA update, with no channel or delivery work.
* ``chain`` — the kernel's channel→iTbs→TBS evaluation for N cyclic
  channels (``TtiKernel._fill_cyclic`` plus the TBS-table gather);
  N = 16 exercises the scalar per-slot loop, the larger populations
  the batched numpy sweep.
* ``itbs`` — the metro's batched per-epoch channel priming
  (``prime_metro_channels``: scalar loss/fade collection plus the
  vectorised SINR→CQI→iTbs sweep) over N roaming ``MetroChannel``
  UEs at the scaling-study populations N = 1k / 10k / 100k.
* ``telemetry`` — ``NetworkShard.epoch_telemetry`` over an advanced
  16-cell metro shard with N attached UEs: the per-epoch health
  rollup the telemetry plane collects (stall/BAI cursors, ladder
  lookups), at N = 256 / 1024 / 4096.
* ``bai_scalar`` — one BAI controller boundary (usage consumption,
  FlowSpec assembly, the MCKP solve, hysteresis and enforcement) over
  N FLARE flows spread across 1 or 16 cells, through the scalar
  controller.  N = 16 / 256 / 2048; result keys are ``NxC``.

``sched`` and ``chain`` run at N = 16 / 256 / 2048.  Each
(kernel, N) cell runs a fixed amount of total work (the step count
scales inversely with N) and reports the best of ``--repeats``
timings.  The artifact is a standard ``BENCH_micro.json`` written to
``REPRO_BENCH_DIR``; its ``wall_time_s`` is the sum of the best
timings — the quantity ``tools/perf_gate.py`` gates in CI — and the
full per-kernel breakdown lands under the ``micro`` key.

The artifact also carries a ``telemetry_overhead`` section comparing
one ``epoch_telemetry`` call (what arming ``--telemetry`` adds per
cell-epoch) against one epoch of actual simulation on the same
shard; ``tools/perf_gate.py --telemetry-overhead 0.02`` fails CI when
collection exceeds that fraction of epoch work.

Usage::

    PYTHONPATH=src python tools/microbench.py [--repeats 3]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.controller import FlareSystem
from repro.experiments.bench import measure, write_bench_json
from repro.has.mpd import SIMULATION_LADDER, MediaPresentation
from repro.has.player import PlayerConfig
from repro.mac.gbr import BearerRegistry
from repro.mac.priority_set import PrioritySetScheduler
from repro.net.flows import DataFlow, UserEquipment, reset_entity_ids
from repro.net.tcp import FluidTcp
from repro.phy.channel import CyclicItbsChannel, FadingProcess, StaticItbsChannel
from repro.phy.mobility import RandomWaypointMobility
from repro.phy.tbs import BYTES_PER_PRB_TABLE
from repro.sim.cell import Cell, CellConfig
from repro.sim.kernel import TtiKernel
from repro.sim.network import (
    MetroChannel,
    NetworkShard,
    PenaltyMap,
    grid_site_plan,
    prime_metro_channels,
)
from repro.workload.metro import build_metro_plan

#: UE populations the TTI-loop micro-kernels run at.
POPULATIONS = (16, 256, 2048)

#: UE populations the metro priming kernel runs at (the scaling
#: study's --ues ladder).
ITBS_POPULATIONS = (1_000, 10_000, 100_000)

#: UE populations the telemetry rollup kernel runs at.
TELEMETRY_POPULATIONS = (256, 1024, 4096)

#: Total flow-rollups per ``telemetry`` measurement (calls × N).
TELEMETRY_WORK_UNITS = 200_000

#: Cells in the telemetry kernel's metro shard.
TELEMETRY_CELLS = 16

#: Total flow-steps per (kernel, N) measurement; the per-N step count
#: is this divided by N, so every cell times a comparable amount of
#: work regardless of population.
WORK_UNITS = 81_920

#: Total channel-epochs per ``itbs`` measurement (epochs × N).
ITBS_WORK_UNITS = 100_000

#: (total flows, cells) shapes the BAI boundary kernel runs at.
BAI_SHAPES = ((16, 1), (256, 1), (2048, 1),
              (16, 16), (256, 16), (2048, 16))

#: Total flow-boundaries per ``bai_scalar`` measurement
#: (boundaries × N).
BAI_WORK_UNITS = 8_192

STEP_S = 0.02

#: Metro epoch the ``itbs`` kernel primes per step (the network's
#: default ``exchange_s``).
EPOCH_S = 2.0


def _data_flow(itbs: int) -> DataFlow:
    return DataFlow(UserEquipment(StaticItbsChannel(itbs)),
                    tcp=FluidTcp(initial_cwnd_bytes=1e9,
                                 max_cwnd_bytes=1e10))


def bench_sched(n: int, steps: int) -> float:
    """Scheduler-only: allocate over N always-backlogged flows."""
    reset_entity_ids()
    registry = BearerRegistry()
    flows = [_data_flow(3 + i % 22) for i in range(n)]
    for flow in flows:
        registry.register(flow.flow_id)
    scheduler = PrioritySetScheduler()
    budget = 50.0 * n
    started = time.perf_counter()
    now = 0.0
    for _ in range(steps):
        grants = scheduler.allocate(now, STEP_S, flows, budget, registry)
        for flow in flows:
            grant = grants.get(flow.flow_id)
            if grant is not None:
                flow.on_scheduled(grant.bytes_delivered, STEP_S)
        now += STEP_S
    return time.perf_counter() - started


def bench_chain(n: int, steps: int) -> float:
    """Channel-chain-only: cyclic sweep -> iTbs -> TBS bytes/PRB."""
    reset_entity_ids()
    cell = Cell(CellConfig(step_s=STEP_S))
    for i in range(n):
        cell.add_data_flow(UserEquipment(CyclicItbsChannel(
            lo=1, hi=12, cycle_s=240.0, offset_s=i * 240.0 / n)))
    kernel = TtiKernel(cell)
    if not kernel._enter():
        raise SystemExit("microbench: kernel refused the chain cell")
    table = BYTES_PER_PRB_TABLE
    sink = 0.0
    started = time.perf_counter()
    now = 0.0
    for _ in range(steps):
        kernel._fill_cyclic(now)
        for itbs in kernel._cyc_itbs:
            sink += table[itbs]
        now += STEP_S
    elapsed = time.perf_counter() - started
    assert sink > 0.0
    return elapsed


def bench_itbs(n: int, steps: int) -> float:
    """Batched metro channel priming: N UEs, ``steps`` epochs."""
    sites = grid_site_plan(100)
    num_cells = sites.num_cells
    penalties = PenaltyMap()
    channels = []
    for i in range(n):
        mobility = RandomWaypointMobility(
            sites.bounds, np.random.default_rng([7, 611, i]))
        fading = FadingProcess(np.random.default_rng([7, 612, i]))
        channels.append(MetroChannel(mobility, sites, fading,
                                     i % num_cells, penalties=penalties))
    started = time.perf_counter()
    start_s = 0.0
    buckets = 0
    for _ in range(steps):
        penalties.replace({cell: 1.5 for cell in range(num_cells)})
        buckets += prime_metro_channels(channels, start_s,
                                        start_s + EPOCH_S, STEP_S)
        start_s += EPOCH_S
    elapsed = time.perf_counter() - started
    assert buckets > 0
    return elapsed


def _bai_world(total: int, num_cells: int) -> list[tuple]:
    """``num_cells`` FLARE cells holding ``total`` video flows."""
    reset_entity_ids()
    mpd = MediaPresentation(SIMULATION_LADDER, segment_duration_s=4.0)
    pairs = []
    per_cell = max(1, total // num_cells)
    fid = 0
    for cell_id in range(num_cells):
        cell = Cell(CellConfig(cell_id=cell_id, step_s=STEP_S))
        flare = FlareSystem(bai_s=EPOCH_S)
        flare.install(cell)
        for _ in range(per_cell):
            flare.attach_client(
                cell, UserEquipment(StaticItbsChannel(3 + fid % 22)),
                mpd, PlayerConfig(request_threshold_s=12.0), flow_id=fid)
            fid += 1
        pairs.append((flare.server, cell))
    return pairs


def bench_bai_scalar(shape: tuple[int, int], steps: int) -> float:
    """Scalar BAI boundaries: per-flow build/solve/hysteresis loops.

    The cells never advance, so each boundary measures pure controller
    work: the usage hand-off is empty and every cost falls back to the
    flow's channel estimate.
    """
    total, num_cells = shape
    pairs = _bai_world(total, num_cells)
    started = time.perf_counter()
    now = EPOCH_S
    for _ in range(steps):
        for server, cell in pairs:
            server.on_interval(now, cell)
        now += EPOCH_S
    return time.perf_counter() - started


def _advanced_shard(n: int) -> NetworkShard:
    """A 16-cell metro shard with N UEs, one epoch into the run."""
    plan = build_metro_plan(num_cells=TELEMETRY_CELLS,
                            ues_per_cell=max(1, n // TELEMETRY_CELLS),
                            scheme="flare", seed=0, total_ues=n)
    shard = NetworkShard(plan, list(range(TELEMETRY_CELLS)))
    shard.advance(EPOCH_S, dict.fromkeys(range(TELEMETRY_CELLS), 0.0),
                  False)
    return shard


def bench_telemetry(n: int, steps: int) -> float:
    """Per-epoch health rollup over an advanced metro shard."""
    shard = _advanced_shard(n)
    started = time.perf_counter()
    rows = ()
    for _ in range(steps):
        rows = shard.epoch_telemetry()
    elapsed = time.perf_counter() - started
    assert len(rows) == TELEMETRY_CELLS
    return elapsed


def measure_telemetry_overhead(repeats: int) -> dict[str, float]:
    """One rollup call vs one epoch of simulation, best-of-repeats.

    ``frac`` is what arming ``--telemetry`` adds to each epoch of a
    metro run (collection cost over simulation cost); the CI perf
    gate budgets it at 2%.  Collection is timed over many calls and
    averaged so the per-call figure is stable.
    """
    n = TELEMETRY_POPULATIONS[-1]
    calls = 50
    epoch_s = collect_s = float("inf")
    for _ in range(repeats):
        shard = _advanced_shard(n)
        started = time.perf_counter()
        shard.advance(2 * EPOCH_S,
                      dict.fromkeys(range(TELEMETRY_CELLS), 0.0), False)
        epoch_s = min(epoch_s, time.perf_counter() - started)
        started = time.perf_counter()
        for _ in range(calls):
            shard.epoch_telemetry()
        collect_s = min(collect_s,
                        (time.perf_counter() - started) / calls)
    return {"ues": float(n), "epoch_s": epoch_s,
            "collect_s": collect_s, "frac": collect_s / epoch_s}


#: kernel name -> (function, populations, total work units).  A
#: population may be an int N or an ``(N, cells)`` shape tuple; shapes
#: key their result cell as ``NxC`` and scale steps by N.
KERNELS = {
    "sched": (bench_sched, POPULATIONS, WORK_UNITS),
    "chain": (bench_chain, POPULATIONS, WORK_UNITS),
    "itbs": (bench_itbs, ITBS_POPULATIONS, ITBS_WORK_UNITS),
    "telemetry": (bench_telemetry, TELEMETRY_POPULATIONS,
                  TELEMETRY_WORK_UNITS),
    "bai_scalar": (bench_bai_scalar, BAI_SHAPES, BAI_WORK_UNITS),
}


def run_micro(repeats: int) -> dict[str, dict[str, float]]:
    """Best-of-``repeats`` seconds for every (kernel, N) cell."""
    results: dict[str, dict[str, float]] = {}
    for name, (fn, populations, work_units) in KERNELS.items():
        per_n: dict[str, float] = {}
        for n in populations:
            if isinstance(n, tuple):
                total, key = n[0], f"{n[0]}x{n[1]}"
            else:
                total, key = n, str(n)
            steps = max(1, work_units // total)
            per_n[key] = min(fn(n, steps) for _ in range(repeats))
        results[name] = per_n
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="TTI hot-loop micro-benchmarks")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timings per cell; the best is kept")
    args = parser.parse_args(argv)
    with measure("micro", populations=list(POPULATIONS),
                 work_units=WORK_UNITS,
                 itbs_populations=list(ITBS_POPULATIONS),
                 itbs_work_units=ITBS_WORK_UNITS,
                 bai_shapes=[list(shape) for shape in BAI_SHAPES],
                 bai_work_units=BAI_WORK_UNITS,
                 repeats=args.repeats) as record:
        results = run_micro(args.repeats)
        overhead = measure_telemetry_overhead(args.repeats)
    record.extra["micro"] = results
    record.extra["telemetry_overhead"] = overhead
    # The gate compares wall_time_s; the measured region above also
    # includes cell construction, so replace it with the sum of the
    # best-of timings (construction noise would dominate otherwise).
    record.wall_time_s = sum(seconds for per_n in results.values()
                             for seconds in per_n.values())
    path = write_bench_json(record)
    for name, per_n in results.items():
        for n, seconds in per_n.items():
            print(f"{name:>9} N={n:>6}  {seconds * 1e3:8.2f} ms")
    print(f"telemetry overhead: {overhead['collect_s'] * 1e6:.0f} us "
          f"per rollup vs {overhead['epoch_s']:.3f} s per epoch "
          f"({overhead['frac']:.2%}) at N={overhead['ues']:.0f}")
    print(f"[bench] {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
