#!/usr/bin/env python3
"""Dynamic populations and multi-cell FLARE deployments.

Part 1 — client arrivals (paper Section II-B): four FLARE clients
stream alone, then four more join mid-run.  Algorithm 1's stability
constraint only limits *increases*; the optimizer is free to drop the
incumbents' rates to re-fit the cell, which this example shows in the
OneAPI server's BAI audit trail.

Part 2 — one OneAPI deployment across two cells (paper Section II-A:
"A single OneAPI server can manage multiple BSs, though the bitrates
are calculated independently for each network cell"): a strong cell
and a weak cell are optimized independently under shared
configuration.

Run:  python examples/cell_dynamics.py
"""

from repro.metrics.stats import compare_with_ci
from repro.workload.dynamics import build_arrival_scenario
from repro.workload.multicell import build_multicell_scenario


def arrivals_demo() -> None:
    print("=== Part 1: four clients join at t=200s ===")
    scenario = build_arrival_scenario(
        initial_clients=4, late_clients=4, arrival_time_s=200.0,
        duration_s=500.0, itbs=15)
    scenario.run()

    records = scenario.flare.server.records
    incumbents = [p.flow.flow_id for p in scenario.players]

    def mean_assigned_kbps(t0, t1):
        values = [flow.rate_bps
                  for record in records if t0 <= record.time_s <= t1
                  for flow in record.flows if flow.flow_id in incumbents]
        return sum(values) / len(values) / 1e3

    print(f"incumbents' mean assigned bitrate 150-200 s: "
          f"{mean_assigned_kbps(150, 200):7.0f} kbps")
    print(f"incumbents' mean assigned bitrate 420-500 s: "
          f"{mean_assigned_kbps(420, 500):7.0f} kbps  "
          "(yielded to the newcomers)")
    late = scenario.late_players()
    print(f"late clients streamed {sum(len(p.log) for p in late)} "
          f"segments after arriving")


def multicell_demo() -> None:
    print("\n=== Part 2: one OneAPI server, two cells ===")
    scenario = build_multicell_scenario(
        num_cells=2, clients_per_cell=4, itbs_per_cell=[20, 6],
        duration_s=300.0, delta=2)
    reports = scenario.run()
    for cell_id, report in reports.items():
        label = "strong" if cell_id == 0 else "weak"
        print(f"cell {cell_id} ({label:6s}): "
              f"avg bitrate {report.average_bitrate_kbps:6.0f} kbps, "
              f"changes {report.mean_changes:.1f}, "
              f"Jain {report.jain_video_rates:.3f}")
    populations = {
        f"cell {cell_id}": [c.average_bitrate_kbps
                            for c in report.clients]
        for cell_id, report in reports.items()
    }
    print()
    print(compare_with_ci(populations, label="per-client avg bitrate (kbps)"))


if __name__ == "__main__":
    arrivals_demo()
    multicell_demo()
