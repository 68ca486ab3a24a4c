"""Telemetry-overhead budget: one health rollup against one epoch.

Arming ``--telemetry`` on a metro run adds one
``NetworkShard.epoch_telemetry`` call (the per-epoch health rollup:
stall/BAI cursors, ladder lookups) to each epoch.  This check times
that call against one epoch of simulation on the same advanced
16-cell, 4096-UE shard, prints the ratio, and exits 1 when it exceeds
:data:`TELEMETRY_BUDGET`.

Usage::

    PYTHONPATH=src python tools/microbench.py
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.sim.network import NetworkShard
from repro.workload.metro import build_metro_plan

#: Largest allowed rollup cost, as a fraction of one epoch's work.
TELEMETRY_BUDGET = 0.02

#: Timings per quantity; the best is kept.
REPEATS = 3

#: Cells and UEs of the measured metro shard.
TELEMETRY_CELLS = 16
TELEMETRY_UES = 4096

#: Rollup calls averaged per timing, so the per-call figure is stable.
ROLLUP_CALLS = 50

#: Metro epoch (the network's default ``exchange_s``).
EPOCH_S = 2.0


def _advanced_shard() -> NetworkShard:
    """The measured metro shard, one epoch into the run."""
    plan = build_metro_plan(num_cells=TELEMETRY_CELLS,
                            ues_per_cell=TELEMETRY_UES // TELEMETRY_CELLS,
                            scheme="flare", seed=0)
    shard = NetworkShard(plan, list(range(TELEMETRY_CELLS)))
    shard.advance(EPOCH_S, dict.fromkeys(range(TELEMETRY_CELLS), 0.0),
                  False)
    return shard


def measure_telemetry_overhead() -> dict[str, float]:
    """One rollup call vs one epoch of simulation, best of ``REPEATS``.

    ``frac`` is what arming ``--telemetry`` adds to each epoch of a
    metro run: collection cost over simulation cost.
    """
    epoch_s = collect_s = float("inf")
    for _ in range(REPEATS):
        shard = _advanced_shard()
        started = time.perf_counter()
        shard.advance(2 * EPOCH_S,
                      dict.fromkeys(range(TELEMETRY_CELLS), 0.0), False)
        epoch_s = min(epoch_s, time.perf_counter() - started)
        started = time.perf_counter()
        for _ in range(ROLLUP_CALLS):
            shard.epoch_telemetry()
        collect_s = min(collect_s,
                        (time.perf_counter() - started) / ROLLUP_CALLS)
    return {"ues": float(TELEMETRY_UES), "epoch_s": epoch_s,
            "collect_s": collect_s, "frac": collect_s / epoch_s}


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]
                            ).parse_args(argv)
    overhead = measure_telemetry_overhead()
    within = overhead["frac"] <= TELEMETRY_BUDGET
    print(f"telemetry overhead: {overhead['collect_s'] * 1e6:.0f} us "
          f"per rollup vs {overhead['epoch_s']:.3f} s per epoch "
          f"({overhead['frac']:.2%}) at N={overhead['ues']:.0f}; budget "
          f"{TELEMETRY_BUDGET:.0%} -- {'OK' if within else 'OVER BUDGET'}")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
