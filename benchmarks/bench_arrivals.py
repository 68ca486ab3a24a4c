"""Extension bench: bitrate re-fitting when new clients arrive.

Section II-B's stability constraint only limits *increases*: "We do,
however, permit large drops in the flow's bitrate if necessary to
maximize (2), e.g., several new clients enter the system."  This bench
doubles a FLARE cell's population mid-run and verifies the adjustment:
incumbents yield capacity promptly, the newcomers converge, nobody
stalls, and the cell's capacity constraint holds throughout.
"""

from conftest import save_artifact

from repro.workload.dynamics import build_arrival_scenario

ITBS = 15  # 14 Mbps cell
ARRIVAL_S = 200.0


def test_arrival_refit(benchmark, output_dir):
    def run():
        scenario = build_arrival_scenario(
            initial_clients=4, late_clients=4, arrival_time_s=ARRIVAL_S,
            duration_s=500.0, itbs=ITBS)
        scenario.run()
        return scenario

    scenario = benchmark.pedantic(run, rounds=1, iterations=1)
    records = scenario.flare.server.records
    incumbents = [p.flow.flow_id for p in scenario.players]

    def mean_assigned_kbps(t0, t1, flow_ids):
        values = [flow.rate_bps
                  for record in records if t0 <= record.time_s <= t1
                  for flow in record.flows if flow.flow_id in flow_ids]
        return sum(values) / len(values) / 1e3 if values else 0.0

    late_ids = [p.flow.flow_id for p in scenario.late_players()]
    before = mean_assigned_kbps(150.0, ARRIVAL_S, incumbents)
    after = mean_assigned_kbps(420.0, 500.0, incumbents)
    newcomers = mean_assigned_kbps(420.0, 500.0, late_ids)

    rows = ["Arrival re-fit: 4 clients join a 4-client cell at t=200 s",
            f"incumbents' mean assignment 150-200 s : {before:7.0f} kbps",
            f"incumbents' mean assignment 420-500 s : {after:7.0f} kbps",
            f"newcomers'  mean assignment 420-500 s : {newcomers:7.0f} kbps"]
    rebuffer = sum(p.rebuffer_time_s
                   for p in list(scenario.cell.players.values()))
    rows.append(f"total rebuffering across all 8 clients: {rebuffer:.1f} s")
    save_artifact(output_dir, "arrivals", "\n".join(rows))

    # Incumbents yield; newcomers actually stream.
    assert after < before
    assert newcomers > 100.0
    # The re-fit happens without destabilising playback.
    assert rebuffer < 5.0
    # Capacity holds at the end state.
    cell_capacity_bps = 50_000 * 35 * 8
    total = sum(flow.rate_bps for flow in records[-1].flows)
    assert total <= cell_capacity_bps * 1.05
