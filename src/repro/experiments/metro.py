"""Metro scaling study: cells × shards → wall time, UE-s/s.

Drives the multi-cell :class:`~repro.sim.network.Network` over a range
of shard counts on the *same* plan, so the resulting
``BENCH_metro.json`` answers the deployment questions the single-cell
benchmarks cannot: how wall time scales with worker processes, the
throughput (``ues_per_s``, simulated UE-seconds per wall-clock
second) at each shard count, how many handovers the mobility model
generates, and whether per-cell QoE is stable across execution modes
(it must be — the sharded path is byte-identical to the reference,
see ``tests/sim/test_network.py``).  The artifact records the host's
``cpu_count``, which bounds what the shard axis can show.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.bench import measure
from repro.experiments.parallel import LEDGER
from repro.obs import telemetry as obs_telemetry
from repro.sim.network import Network
from repro.workload.metro import build_metro_plan


def _run_row(plan: Any, shards: int, duration_s: float,
             num_cells: int) -> dict[str, Any]:
    """One study row: run the network once and tabulate it.

    Sharded rows carry the epoch loop's pipeline stats
    (:attr:`repro.sim.network.Network.pipeline` — per-shard recv wait
    and occupancy); single-process rows carry ``pipeline: None``.

    When an ambient telemetry collector is armed, each row *restarts*
    the rollup stream, so after the study the collector holds the
    final row's records — one coherent run, not a concatenation that
    would double-count epochs under ``analyze --metro``.
    """
    collector = obs_telemetry.COLLECTOR
    if collector is not None:
        collector.records.clear()
    network = Network(plan)
    with measure(f"metro_{shards}shards") as record:
        reports = network.run(duration_s, shards=shards)
        for report in reports.values():
            LEDGER.record(report, cached=False)
    per_cell = {
        str(cell_id): {
            "bitrate_kbps": report.average_bitrate_kbps,
            "rebuffer_s": report.total_rebuffer_s,
            "clients": len(report.clients),
        }
        for cell_id, report in reports.items()
    }
    wall = record.wall_time_s
    return {
        "shards": shards,
        "cells": num_cells,
        "ues": len(plan.ues),
        "duration_s": duration_s,
        "wall_time_s": wall,
        "ues_per_s": (len(plan.ues) * duration_s / wall
                      if wall > 0 else 0.0),
        "handovers": network.handover_count,
        "kernel_cell_runs": network.kernel_cell_runs,
        "pipeline": network.pipeline or None,
        "per_cell": per_cell,
    }


def run_metro_scaling(
    num_cells: int = 16,
    ues_per_cell: int = 4,
    duration_s: float = 60.0,
    shard_counts: tuple[int, ...] = (1, 2),
    scheme: str = "flare",
    seed: int = 0,
    **plan_kwargs: Any,
) -> dict[str, Any]:
    """Run one metro plan at each shard count and tabulate.

    The same ``num_cells × ues_per_cell`` plan runs once per shard
    count for ``duration_s``.  Every row carries ``speedup`` relative
    to the 1-shard run and ``ues_per_s`` — simulated UE-seconds per
    wall-clock second, the study's throughput metric.
    """
    plan = build_metro_plan(num_cells=num_cells,
                            ues_per_cell=ues_per_cell,
                            scheme=scheme, seed=seed, **plan_kwargs)
    rows = [_run_row(plan, shards, duration_s, num_cells)
            for shards in shard_counts]
    baseline = next((row for row in rows if row["shards"] == 1), rows[0])
    for row in rows:
        wall = row["wall_time_s"]
        row["speedup"] = (baseline["wall_time_s"] / wall
                          if wall > 0 else 0.0)
    return {
        "cells": num_cells,
        "ues": len(plan.ues),
        "duration_s": duration_s,
        "scheme": scheme,
        "seed": seed,
        "rows": rows,
    }
