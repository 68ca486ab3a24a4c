"""Outside-in layer trace: spans around each layer's public callables.

The traced run wraps only public entry points (the table below); the
library's own profiler, tracer and checker stay disarmed, because each
of them pins the TTI kernel to its reference step.  A span records
name, start, end, parent span, epoch and shard; spans stay in memory
and each process writes its own JSONL file when it ends.

Forked workers (``ShardPool`` shards and the ``run_tasks`` pool)
inherit the wrappers.  Their per-span aggregates travel back through
the always-on metrics registry, which the pool already drains into the
parent (``ShardPool.close`` and the ``run_tasks`` result path), so the
trace adds no sync point to the epoch loop.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import statistics
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

from names import LAYERS
from repro.obs.registry import REGISTRY

PREFIX = "perfbench."

#: Wrapped callable -> (self-time metric, call-count metric).  Every
#: span's self time lands in exactly one metric, so the self-time
#: metrics of the parent process sum to what the trace covers.
SPANS: dict[str, tuple[str, str | None]] = {
    "build_metro_plan": ("workload.build_s", None),
    "build_testbed_scenario": ("workload.build_s", None),
    "prime_metro_channels": ("phy.prime_s", None),
    "run_cells": ("sim.kernel_s", None),
    "TtiKernel.run": ("sim.kernel_s", "sim.kernel_runs"),
    "TtiKernel.invalidate": ("sim.kernel_s", "sim.kernel_invalidations"),
    "HasPlayer.issue_requests": ("has.issue_requests_s",
                                 "has.issue_requests"),
    "BatchBaiPlane.sweep": ("core.bai_sweep_s", "core.bai_sweeps"),
    "OneApiServer.on_interval": ("core.bai_scalar_s", "core.bai_scalar"),
    "Network.run": ("net.parent_s", None),
    "NetworkShard.__init__": ("net.shard_build_s", None),
    "NetworkShard.working_points": ("net.working_points_s", None),
    "NetworkShard.advance": ("net.shard_other_s", "net.epochs"),
    "NetworkShard.migrate_many": ("net.migrate_s", None),
    "NetworkShard.detach_many": ("net.detach_s", None),
    "NetworkShard.attach_many": ("net.attach_s", None),
    "NetworkShard.epoch_telemetry": ("net.shard_other_s", None),
    "NetworkShard.reports": ("net.shard_other_s", None),
    "NetworkShard.handover_records": ("net.shard_other_s", None),
    "ShardPool.__init__": ("ipc.spawn_s", None),
    "ShardPool.send": ("ipc.send_s", None),
    "ShardPool.recv": ("ipc.recv_wait_s", "ipc.recvs"),
    "ShardPool.broadcast": ("ipc.broadcast_s", None),
    "ShardPool.close": ("ipc.close_s", None),
    "run_tasks": ("fanout.run_tasks_s", None),
    "collect_cell_report": ("metrics.collect_s", None),
}

#: Counters a wrapper takes from arguments or results.
COUNTERS = ("sim.kernel_fallbacks", "phy.primed_channels",
            "net.cross_shard_handovers", "net.handover_blob_bytes",
            "fanout.tasks")


class SpanTrace:
    """In-memory span recorder shared by every wrapper of one run.

    Attributes:
        workload: label written with every span.
        spans: ``(id, name, start, end, parent, epoch, shard)`` tuples
            of this process, in end order.
        home_self_s: self time of the spans recorded in the process
            that installed the trace, since :meth:`start_run`.
    """

    def __init__(self, workload: str, out_dir: Path) -> None:
        self.workload = workload
        self.out_dir = out_dir
        self.spans: list[tuple[Any, ...]] = []
        self.home_self_s = 0.0
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._epoch: int | None = None
        self._shard: int | None = None
        self._pid = os.getpid()
        self._home_pid = self._pid
        self._undo: list[tuple[Any, str, Any]] = []
        multiprocessing.util.register_after_fork(self, SpanTrace._forked)

    # -- per-process state ---------------------------------------------
    def _forked(self) -> None:
        """In a forked worker: start an empty trace, dump it at exit."""
        self.spans = []
        self._stack = []
        self._epoch = None
        self._pid = os.getpid()
        multiprocessing.util.Finalize(self, self.write, exitpriority=10)

    def start_run(self) -> None:
        """Count home-process self time from here on (the run phase)."""
        self.home_self_s = 0.0

    def write(self) -> None:
        """Write this process's spans as JSONL (one file per process)."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with path.open("w") as sink:
            for span_id, name, start, end, parent, epoch, shard in self.spans:
                sink.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "pid": self._pid,
                    "workload": self.workload, "epoch": epoch,
                    "shard": shard}) + "\n")

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             before: Callable[[tuple[Any, ...]], None] | None = None,
             after: Callable[[tuple[Any, ...], Any], None] | None = None,
             ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Module-level functions are also replaced in every ``repro``
        module that imported them by name, so callers that bound the
        name at import time reach the wrapper too.
        """
        original = owner.__dict__[attr]
        trace = self
        clock = time.perf_counter
        self_hist = REGISTRY.histogram(PREFIX + "self_s." + name)
        busy = name.startswith("NetworkShard.")
        epoch_span = name == "NetworkShard.advance"

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args)
            stack = trace._stack
            span_id = trace._next_id
            trace._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s = duration - frame[1]
                trace.spans.append((span_id, name, start, end, parent,
                                    trace._epoch, trace._shard))
                self_hist.observe(self_s)
                if trace._pid == trace._home_pid:
                    trace.home_self_s += self_s
                if busy:
                    REGISTRY.histogram(
                        f"{PREFIX}busy_s.{trace._shard}").observe(duration)
                if epoch_span:
                    REGISTRY.histogram(PREFIX + "epoch_s").observe(duration)
            if after is not None:
                after(args, result)
            return result

        self._replace(owner, attr, original, wrapper)

    def _replace(self, owner: Any, attr: str, original: Any,
                 wrapper: Any) -> None:
        targets = [owner]
        if not isinstance(owner, type):
            targets += [module for key, module in list(sys.modules.items())
                        if key.startswith("repro") and module is not owner
                        and getattr(module, attr, None) is original]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped callable."""
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo = []

    # -- hooks ---------------------------------------------------------
    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to counter ``name`` (drained like the spans)."""
        REGISTRY.counter(PREFIX + "count." + name).inc(amount)

    def set_shard(self, cell_ids: Any) -> None:
        """Label this process's spans with its shard's first cell id."""
        self._shard = int(cell_ids[0]) if len(cell_ids) else None

    def next_epoch(self) -> None:
        """Advance the epoch label of subsequent spans."""
        self._epoch = 0 if self._epoch is None else self._epoch + 1


def install(workload: str, out_dir: Path) -> SpanTrace:
    """Wrap every public callable in :data:`SPANS`; returns the trace."""
    from repro.core.batch import BatchBaiPlane
    from repro.core.oneapi import OneApiServer
    from repro.experiments import parallel
    from repro.experiments.parallel import ShardPool
    from repro.has.player import HasPlayer
    from repro.metrics import collector
    from repro.sim import kernel, network
    from repro.sim.kernel import TtiKernel
    from repro.sim.network import Network, NetworkShard
    from repro.workload import metro, scenarios

    trace = SpanTrace(workload, out_dir)
    wrap = trace.wrap
    wrap(metro, "build_metro_plan", "build_metro_plan")
    wrap(scenarios, "build_testbed_scenario", "build_testbed_scenario")
    wrap(network, "prime_metro_channels", "prime_metro_channels",
         before=lambda a: trace.count("phy.primed_channels", len(a[0])))
    wrap(kernel, "run_cells", "run_cells")
    wrap(TtiKernel, "run", "TtiKernel.run",
         after=lambda a, ok: ok or trace.count("sim.kernel_fallbacks", 1))
    wrap(TtiKernel, "invalidate", "TtiKernel.invalidate")
    wrap(HasPlayer, "issue_requests", "HasPlayer.issue_requests")
    wrap(BatchBaiPlane, "sweep", "BatchBaiPlane.sweep")
    wrap(OneApiServer, "on_interval", "OneApiServer.on_interval")
    wrap(Network, "run", "Network.run")
    wrap(NetworkShard, "__init__", "NetworkShard.__init__",
         before=lambda a: trace.set_shard(a[2]))
    wrap(NetworkShard, "advance", "NetworkShard.advance",
         before=lambda a: trace.next_epoch())
    for method in ("working_points", "migrate_many", "attach_many",
                   "epoch_telemetry", "reports", "handover_records"):
        wrap(NetworkShard, method, f"NetworkShard.{method}")

    def detached(args: tuple[Any, ...], blobs: list[bytes]) -> None:
        trace.count("net.cross_shard_handovers", len(blobs))
        trace.count("net.handover_blob_bytes", sum(map(len, blobs)))

    wrap(NetworkShard, "detach_many", "NetworkShard.detach_many",
         after=detached)

    def sent(args: tuple[Any, ...]) -> None:
        if args[1] == 0 and args[2] == "advance":
            trace.next_epoch()

    wrap(ShardPool, "__init__", "ShardPool.__init__")
    wrap(ShardPool, "send", "ShardPool.send", before=sent)
    for method in ("recv", "broadcast", "close"):
        wrap(ShardPool, method, f"ShardPool.{method}")
    wrap(parallel, "run_tasks", "run_tasks",
         before=lambda a: trace.count("fanout.tasks", len(a[0])))
    wrap(collector, "collect_cell_report", "collect_cell_report")
    return trace


def _quantile(values: list[float], q: float) -> float:
    """Same rule as the registry's Histogram.quantile (0.0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def layer_metrics(delta: dict[str, Any], trace: SpanTrace,
                  run_wall_s: float, outcome: Any,
                  segments: int) -> dict[str, float]:
    """Per-layer metrics from one traced run's registry delta.

    ``delta`` is a ``snapshot_delta`` spanning set-up and run, with
    every worker's contribution already merged in.
    """
    histograms = delta.get("histograms", {})
    counters = delta.get("counters", {})
    metrics = dict.fromkeys(LAYERS, 0.0)
    for name, (metric, count) in SPANS.items():
        state = histograms.get(PREFIX + "self_s." + name)
        if state is None:
            continue
        metrics[metric] += state["total"]
        if count is not None:
            metrics[count] += state["count"]
    for name in COUNTERS:
        metrics[name] = float(counters.get(PREFIX + "count." + name, 0))
    epochs = histograms.get(PREFIX + "epoch_s", {}).get("values", [])
    metrics["net.epoch_s.p50"] = _quantile(epochs, 0.5)
    metrics["net.epoch_s.p90"] = _quantile(epochs, 0.9)
    busy = [state["total"] for key, state in histograms.items()
            if key.startswith(PREFIX + "busy_s.")]
    if busy:
        metrics["net.shard_busy_s.max"] = max(busy)
        metrics["net.shard_imbalance"] = max(busy) / statistics.fmean(busy)
    solves = histograms.get("solver.exact.solve_s")
    if solves is not None:
        metrics["core.solves"] = float(solves["count"])
        metrics["core.solve_s.p50"] = _quantile(solves["values"], 0.5)
        metrics["core.solve_s.p90"] = _quantile(solves["values"], 0.9)
    metrics["net.handovers"] = float(outcome.handovers)
    metrics["has.segments"] = float(segments)
    metrics["trace.coverage"] = (trace.home_self_s / run_wall_s
                                 if run_wall_s > 0 else 0.0)
    return metrics
