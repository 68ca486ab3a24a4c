#!/usr/bin/env python3
"""Quickstart: run FLARE in a simulated LTE cell in ~20 lines.

Builds the paper's default simulation workload (8 HAS video clients,
random placement in a 2000 m x 2000 m cell, 10 s segments, the
100-3000 kbps ladder), runs it for five simulated minutes, and prints
the per-client quality-of-experience summary.

Run:  python examples/quickstart.py
"""

from repro import build_cell_scenario


def main() -> None:
    scenario = build_cell_scenario(
        scheme="flare",   # also: "avis", "festive", "google", ...
        mobile=False,
        seed=42,
        duration_s=300.0,
    )
    report = scenario.run()

    print(f"scheme: {scenario.scheme}")
    print(f"{'client':>7s} {'avg kbps':>9s} {'changes':>8s} "
          f"{'rebuffer s':>11s} {'segments':>9s}")
    for client in report.clients:
        print(f"{client.flow_id:7d} {client.average_bitrate_kbps:9.0f} "
              f"{client.num_bitrate_changes:8d} "
              f"{client.rebuffer_time_s:11.1f} "
              f"{client.segments_downloaded:9d}")
    print(f"\ncell mean bitrate : {report.average_bitrate_kbps:.0f} kbps")
    print(f"mean changes      : {report.mean_changes:.1f}")
    print(f"Jain fairness     : {report.jain_video_rates:.3f}")

    # The OneAPI server's BAI audit trail is available for inspection:
    records = scenario.flare.server.records
    last = records[-1]
    print(f"\nBAIs executed     : {len(records)}")
    print(f"last BAI at t={last.time_s:.0f}s assigned ladder indices "
          f"{sorted(last.indices.values())}")


if __name__ == "__main__":
    main()
