"""Metric names and units the benchmark reports (kept in step with
``BENCHMARK.json``; ``selftest.py`` checks that they agree)."""

#: End-to-end metrics (``--trace 0``), in output order.
END_TO_END = {
    "sim_ue_s_per_s": "client-s/s",
    "sim_ue_s_per_cpu_s": "client-s/CPU-s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "served_frac": "ratio",
    "mean_bitrate_kbps": "kbps",
    "jain_fairness": "ratio",
}

#: QoE numbers recorded with every result (and covered by the report
#: digest) but not reported as end-to-end metrics: mean_changes is 0 on
#: metro_dense, and both move by more than any bound from one seed to
#: the next at these sizes.
QOE_RECORDED = ("mean_changes", "mean_rebuffer_s")

#: Per-layer metrics (``--trace 1``), in output order.
LAYERS = {
    "workload.build_s": "s",
    "phy.prime_s": "s", "phy.primed_channels": "count",
    "sim.kernel_s": "s", "sim.kernel_runs": "count",
    "sim.kernel_fallbacks": "count", "sim.kernel_invalidations": "count",
    "has.issue_requests_s": "s", "has.issue_requests": "count",
    "has.segments": "count",
    "core.bai_sweep_s": "s", "core.bai_sweeps": "count",
    "core.bai_scalar_s": "s", "core.bai_scalar": "count",
    "core.solve_s.p50": "s", "core.solve_s.p90": "s", "core.solves": "count",
    "net.epoch_s.p50": "s", "net.epoch_s.p90": "s", "net.epochs": "count",
    "net.working_points_s": "s", "net.migrate_s": "s",
    "net.handovers": "count", "net.cross_shard_handovers": "count",
    "net.detach_s": "s", "net.attach_s": "s",
    "net.handover_blob_bytes": "bytes",
    "net.shard_build_s": "s", "net.shard_other_s": "s",
    "net.shard_busy_s.max": "s", "net.shard_imbalance": "ratio",
    "net.parent_s": "s",
    "ipc.spawn_s": "s", "ipc.recv_wait_s": "s", "ipc.recvs": "count",
    "ipc.send_s": "s", "ipc.broadcast_s": "s", "ipc.close_s": "s",
    "fanout.run_tasks_s": "s", "fanout.tasks": "count",
    "metrics.collect_s": "s",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}
