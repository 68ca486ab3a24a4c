"""Parallel, cached execution of the experiment matrix.

Every figure of the paper aggregates an embarrassingly parallel grid —
20 seeds x 8 clients per scheme (Table III) — that the serial loop in
:func:`repro.experiments.runner.run_comparison` used to grind through
one cell at a time.  This module is the execution substrate underneath
it:

* :class:`ExperimentTask` names one cell (builder + scheme + seed +
  kwargs); each cell is deterministic, so cells can run anywhere in
  any order.
* :func:`run_tasks` executes a task list with an optional
  ``concurrent.futures`` process pool and an optional
  :class:`~repro.experiments.cache.ResultCache`, returning reports in
  task order — callers pooling client populations get *byte-identical*
  results to a serial loop regardless of worker count.
* :func:`run_matrix` fans out the scheme x seed grid and regroups the
  reports per scheme.
* :data:`LEDGER` tallies runs executed vs served from cache plus
  aggregate QoE metrics, feeding the ``BENCH_*.json`` artifacts.

Worker count resolution order: explicit argument, the active
:func:`execution_defaults` context (set by the CLI's ``--jobs``), the
``REPRO_JOBS`` environment variable, then 1 (serial).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Mapping, Sequence
from multiprocessing.connection import Connection
from typing import Any

from repro.experiments.cache import (
    ResultCache,
    cache_enabled_by_env,
    cell_key,
)
from repro.metrics.collector import CellReport
from repro.obs import prof
from repro.obs import tracer as obs
from repro.obs.registry import REGISTRY, snapshot_delta
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer, merge_shards

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"


@dataclass
class ExperimentTask:
    """One deterministic cell of the experiment matrix.

    Attributes:
        builder: a module-level scenario builder (must be picklable by
            reference for process-pool dispatch).
        scheme: scheme name passed to the builder.
        seed: RNG seed passed to the builder.
        kwargs: remaining builder keywords.
    """

    builder: Callable[..., Any]
    scheme: str
    seed: int
    kwargs: dict[str, Any] = field(default_factory=dict)

    def key(self) -> str:
        """The task's content-addressed cache key."""
        return cell_key(self.builder, self.scheme, self.seed, self.kwargs)


def _execute(task: ExperimentTask) -> CellReport:
    """Run one cell to completion (also the process-pool entry point)."""
    scenario = task.builder(scheme=task.scheme, seed=task.seed,
                            **task.kwargs)
    return scenario.run()


def _execute_observed(
    payload: tuple[ExperimentTask, str | None, int, float | None]
) -> tuple[CellReport, dict[str, Any], dict[str, Any] | None]:
    """Pool entry point that also ships observability back to the parent.

    The worker runs the cell with a private JSONL tracer writing to
    ``shard_path`` (when tracing is on; every event carries the task's
    submission index as ``task``) and returns, alongside the report,
    what the cell contributed to the worker's metrics registry — pool
    processes are reused across tasks, so the cumulative registry is
    differenced per task rather than cleared.  When ``event_min_s`` is
    not ``None`` the parent is profiling: a private
    :class:`~repro.obs.prof.Profiler` (Chrome track ``index + 1``;
    track 0 is the parent) collects the cell's phase timings with the
    parent's timeline-event duration floor, and its snapshot travels
    back for deterministic merging.
    """
    task, shard_path, index, event_min_s = payload
    before = REGISTRY.snapshot()
    # Forked workers inherit the parent's ambient tracer/profiler (and
    # the tracer's open file handle); discard both — the worker's
    # events go to its shard, its timings to its own snapshot.
    obs.uninstall()
    prof.uninstall()
    tracer: Tracer | None = None
    if shard_path is not None:
        tracer = obs.install(Tracer([JsonlSink(shard_path)],
                                    static={"task": index}))
    profiler: prof.Profiler | None = None
    if event_min_s is not None:
        profiler = prof.install(prof.Profiler(task=index + 1,
                                              event_min_s=event_min_s))
        profiler.begin("run")
    try:
        report = _execute(task)
    finally:
        if profiler is not None:
            profiler.end()
            prof.uninstall()
        if tracer is not None:
            obs.uninstall()
            tracer.close()
    prof_snapshot = profiler.snapshot() if profiler is not None else None
    return (report, snapshot_delta(before, REGISTRY.snapshot()),
            prof_snapshot)


# ----------------------------------------------------------------------
# Run ledger: feeds BENCH_*.json artifacts
# ----------------------------------------------------------------------
@dataclass
class RunLedger:
    """Monotonic counters over every cell executed in this process.

    Consumers (:mod:`repro.experiments.bench`) snapshot before and
    after a measured region and report the difference, so the ledger
    itself never resets.
    """

    runs_executed: int = 0
    cache_hits: int = 0
    cache_stores: int = 0
    clients: int = 0
    sum_bitrate_kbps: float = 0.0
    sum_changes: float = 0.0
    sum_rebuffer_s: float = 0.0
    max_jobs: int = 0

    def record(self, report: CellReport, cached: bool) -> None:
        """Tally one finished cell."""
        if cached:
            self.cache_hits += 1
        else:
            self.runs_executed += 1
        for client in report.clients:
            self.clients += 1
            self.sum_bitrate_kbps += client.average_bitrate_kbps
            self.sum_changes += client.num_bitrate_changes
            self.sum_rebuffer_s += client.rebuffer_time_s

    def snapshot(self) -> dict[str, float]:
        """A copyable view of the counters."""
        return dataclasses.asdict(self)


#: Process-wide ledger of executed/cached cells.
LEDGER = RunLedger()


# ----------------------------------------------------------------------
# Execution defaults (set by the CLI, consulted by library calls)
# ----------------------------------------------------------------------
@dataclass
class ExecutionDefaults:
    """Ambient jobs/cache policy for code that can't thread kwargs."""

    jobs: int | None = None
    use_cache: bool | None = None
    cache_dir: os.PathLike | None = None


_DEFAULTS = ExecutionDefaults()


@contextmanager
def execution_defaults(jobs: int | None = None,
                       use_cache: bool | None = None,
                       cache_dir: os.PathLike | None = None,
                       ) -> Iterator[ExecutionDefaults]:
    """Scoped override of the ambient execution policy.

    The CLI wraps command dispatch in this so ``--jobs``/``--no-cache``
    reach every ``run_comparison`` call without threading arguments
    through each figure function.
    """
    # Parent-process execution defaults; workers receive explicit
    # task arguments and never consult this module global.
    global _DEFAULTS  # flarelint: disable=FL009
    previous = _DEFAULTS
    _DEFAULTS = ExecutionDefaults(jobs=jobs, use_cache=use_cache,
                                  cache_dir=cache_dir)
    try:
        yield _DEFAULTS
    finally:
        _DEFAULTS = previous


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count (>= 1)."""
    if jobs is None:
        jobs = _DEFAULTS.jobs
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = None
    if jobs is None:
        jobs = 1
    return max(1, jobs)


def resolve_use_cache(use_cache: bool | None = None) -> bool:
    """Effective cache policy.

    Explicit argument wins, then the ambient defaults, then the
    environment: ``REPRO_NO_CACHE=1`` disables, an explicit
    ``REPRO_CACHE_DIR`` enables, and otherwise library calls run
    uncached (the CLI opts in for its commands).
    """
    if use_cache is not None:
        return use_cache and cache_enabled_by_env()
    if _DEFAULTS.use_cache is not None:
        return _DEFAULTS.use_cache and cache_enabled_by_env()
    if not cache_enabled_by_env():
        return False
    return os.environ.get("REPRO_CACHE_DIR") is not None


def _resolve_cache(use_cache: bool | None,
                   cache: ResultCache | None) -> ResultCache | None:
    if cache is not None:
        return cache
    if not resolve_use_cache(use_cache):
        return None
    return ResultCache(_DEFAULTS.cache_dir)


# ----------------------------------------------------------------------
# Task execution
# ----------------------------------------------------------------------
def run_tasks(tasks: Sequence[ExperimentTask],
              jobs: int | None = None,
              use_cache: bool | None = None,
              cache: ResultCache | None = None) -> list[CellReport]:
    """Execute ``tasks`` and return their reports in task order.

    Cached cells are served without touching the pool; misses fan out
    over up to ``jobs`` worker processes.  Because every cell is
    deterministic and results are reassembled in submission order, the
    returned list is identical whether ``jobs`` is 1 or 100 and
    whether the cache is cold, warm, or disabled.

    Args:
        tasks: cells to run.
        jobs: worker processes (default: ambient/env/1).
        use_cache: cache policy override (default: ambient/env).
        cache: explicit cache instance (overrides ``use_cache``).

    Returns:
        One :class:`CellReport` per task, in order.
    """
    jobs = resolve_jobs(jobs)
    LEDGER.max_jobs = max(LEDGER.max_jobs, jobs)
    store = _resolve_cache(use_cache, cache)
    results: list[CellReport | None] = [None] * len(tasks)
    pending: list[int] = []
    keys: dict[int, str] = {}
    for index, task in enumerate(tasks):
        if store is None:
            pending.append(index)
            continue
        key = task.key()
        keys[index] = key
        hit = store.get(key)
        if hit is None:
            pending.append(index)
        else:
            results[index] = hit
            LEDGER.record(hit, cached=True)

    if pending:
        # Never fan out beyond the machine's cores: on an oversubscribed
        # host the extra workers only add fork/IPC overhead and
        # scheduler contention (reports are identical at any worker
        # count, so this is purely a wall-time matter).  With a tracer
        # or profiler installed the pool is kept regardless — worker
        # shards tag events with their task index and the merged Chrome
        # trace carries one track per worker, and that shard/track
        # shape is observable behaviour the clamp must not change.
        observed = obs.TRACER is not None or prof.PROFILER is not None
        usable = jobs if observed else min(jobs, os.cpu_count() or 1)
        if usable > 1 and len(pending) > 1:
            workers = min(usable, len(pending))
            tracer = obs.TRACER
            parent_profiler = prof.PROFILER
            # Worker shards only make sense when the parent traces to
            # a file; serial runs emit into the parent tracer inline.
            shard_base = tracer.jsonl_path if tracer is not None else None
            event_min_s = (parent_profiler.event_min_s
                           if parent_profiler is not None else None)
            payloads: list[tuple[ExperimentTask, str | None, int,
                                 float | None]] = []
            for rank, index in enumerate(pending):
                shard = (f"{shard_base}.shard{rank:04d}"
                         if shard_base is not None else None)
                payloads.append((tasks[index], shard, index, event_min_s))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_execute_observed, payloads))
            fresh = []
            # Outcomes arrive in submission order, so folding worker
            # profiler snapshots here keeps the merged aggregate
            # deterministic regardless of worker count.
            for report, obs_delta, prof_snapshot in outcomes:
                fresh.append(report)
                REGISTRY.merge(obs_delta)
                if parent_profiler is not None and prof_snapshot is not None:
                    parent_profiler.merge(prof_snapshot)
            if shard_base is not None and tracer is not None:
                merge_shards([p[1] for p in payloads], tracer)
        else:
            fresh = [_execute(tasks[i]) for i in pending]
        for index, report in zip(pending, fresh):
            results[index] = report
            LEDGER.record(report, cached=False)
            if store is not None:
                store.put(keys[index], report)
                LEDGER.cache_stores += 1
    return [report for report in results if report is not None]


def run_matrix(builder: Callable[..., Any],
               schemes: Sequence[str],
               seeds: Sequence[int],
               jobs: int | None = None,
               use_cache: bool | None = None,
               cache: ResultCache | None = None,
               **builder_kwargs: Any) -> dict[str, list[CellReport]]:
    """Fan the scheme x seed grid out and regroup reports per scheme.

    The task order is scheme-major, seed-minor — exactly the order the
    historical serial loop used — so pooled client populations match
    it byte for byte.
    """
    tasks = [ExperimentTask(builder=builder, scheme=scheme, seed=seed,
                            kwargs=dict(builder_kwargs))
             for scheme in schemes for seed in seeds]
    reports = run_tasks(tasks, jobs=jobs, use_cache=use_cache, cache=cache)
    grouped: dict[str, list[CellReport]] = {}
    for task, report in zip(tasks, reports):
        grouped.setdefault(task.scheme, []).append(report)
    return grouped


# ----------------------------------------------------------------------
# Persistent shard workers (stateful, unlike the stateless task pool)
# ----------------------------------------------------------------------
class ShardPoolError(RuntimeError):
    """A shard worker failed; carries the worker's traceback text."""


#: Reserved request name served by the worker loop itself (never
#: dispatched to the shard state): reply with the worker's
#: observability contribution since the previous drain and reset it.
DRAIN_OBS = "drain_obs"


@dataclass(frozen=True)
class _ShardObserve:
    """Per-shard observability instructions, pickled at spawn time.

    Built by :class:`ShardPool` from the parent's *ambient* tracer and
    profiler; passing the configuration explicitly (rather than relying
    on fork inheritance) keeps the worker install identical under any
    multiprocessing start method.
    """

    index: int
    trace_shard: str | None
    event_min_s: float | None
    origin_s: float | None


def _shard_worker(conn: Connection, factory: Callable[..., Any],
                  args: tuple[Any, ...],
                  observe: _ShardObserve | None = None) -> None:
    """Worker loop: build the shard state, then serve method calls.

    Protocol (parent -> worker): ``(method_name, args_tuple)`` per
    request, ``None`` to shut down.  Worker -> parent: ``("ok",
    result)`` or ``("err", traceback_text)`` per request (errors keep
    the worker alive so the parent can decide what to do).

    The reserved :data:`DRAIN_OBS` request is served by the loop
    itself: it returns the worker's registry delta (plus the private
    profiler's drained snapshot, when profiling) and resets both, so
    the parent can fold shard-side observability in at epoch
    boundaries without unbounded worker-side growth.
    """
    # Forked workers inherit the parent's ambient tracer/profiler (and
    # the tracer's open file handle); drop the inherited handles and,
    # when the parent is observing, install private per-shard
    # replacements instead.  Their data is drained back over the Pipe
    # (DRAIN_OBS) and merged by the parent; trace shards are folded in
    # at :meth:`ShardPool.close` (see docs/network.md).
    obs.uninstall()
    prof.uninstall()
    registry_base = REGISTRY.snapshot()
    tracer: Tracer | None = None
    profiler: prof.Profiler | None = None
    if observe is not None:
        if observe.trace_shard is not None:
            # Events carry ``task = index + 1`` (track 0 is the
            # parent), matching the profiler's Chrome track numbering.
            tracer = obs.install(Tracer(
                [JsonlSink(observe.trace_shard)],
                static={"task": observe.index + 1}))
        if observe.event_min_s is not None:
            profiler = prof.install(prof.Profiler(
                task=observe.index + 1,
                event_min_s=observe.event_min_s,
                origin_s=observe.origin_s))
    try:
        state = factory(*args)
    except BaseException:
        conn.send(("err", traceback.format_exc()))
        conn.close()
        if tracer is not None:
            obs.uninstall()
            tracer.close()
        return
    conn.send(("ok", None))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message is None:
            break
        method, call_args = message
        if method == DRAIN_OBS:
            snapshot = REGISTRY.snapshot()
            payload = {
                "registry": snapshot_delta(registry_base, snapshot),
                "profile": (profiler.drain()
                            if profiler is not None else None),
            }
            registry_base = snapshot
            conn.send(("ok", payload))
            continue
        try:
            conn.send(("ok", getattr(state, method)(*call_args)))
        except BaseException:
            conn.send(("err", traceback.format_exc()))
    if tracer is not None:
        obs.uninstall()
        tracer.close()
    conn.close()


class ShardPool:
    """Long-lived worker processes hosting *stateful* shard objects.

    :func:`run_tasks` fans out stateless, order-independent cells;
    the multi-cell network needs the opposite: each worker owns
    mutable simulator state (its cells) that must stay on the same
    process across many small exchange-epoch calls.  A
    ``ProcessPoolExecutor`` offers no task-to-worker affinity, so this
    pool speaks a tiny Pipe protocol to one dedicated process per
    shard instead.

    Each worker builds its own state by calling ``factory(*args)``
    (the factory must be a module-level callable, picklable by
    reference — the same spawn-safe contract as
    :class:`ExperimentTask`), so no simulator objects cross the
    process boundary at startup.

    When the parent has an ambient tracer and/or profiler installed at
    construction time, every worker gets a private per-shard
    replacement (see :class:`_ShardObserve`): profiler snapshots and
    registry deltas travel back over :data:`DRAIN_OBS` requests and
    merge into the parent's ambient instances (:meth:`merge_obs` /
    :meth:`drain_obs`), and per-shard JSONL trace files are folded
    into the parent tracer at :meth:`close`.  The always-on metrics
    registry is drained once at close even when nothing else is armed.

    Usage::

        with ShardPool(build_shard, [(plan, ids0), (plan, ids1)]) as pool:
            usages = pool.broadcast("advance", [(2.0, {}), (2.0, {})])
    """

    def __init__(self, factory: Callable[..., Any],
                 shard_args: Sequence[tuple[Any, ...]]) -> None:
        context = multiprocessing.get_context()
        self._conns: list[Connection] = []
        self._procs: list[multiprocessing.process.BaseProcess] = []
        #: Replies owed per shard (requests sent minus replies read);
        #: :meth:`close` drains this before the shutdown sentinel.
        self._pending: list[int] = []
        self._parent_tracer = obs.TRACER
        self._parent_profiler = prof.PROFILER
        self._trace_shards: list[str] = []
        shard_base = (self._parent_tracer.jsonl_path
                      if self._parent_tracer is not None else None)
        profiler = self._parent_profiler
        for index, args in enumerate(shard_args):
            trace_shard: str | None = None
            if shard_base is not None:
                trace_shard = f"{shard_base}.netshard{index:04d}"
                self._trace_shards.append(trace_shard)
            observe: _ShardObserve | None = None
            if trace_shard is not None or profiler is not None:
                observe = _ShardObserve(
                    index=index,
                    trace_shard=trace_shard,
                    event_min_s=(profiler.event_min_s
                                 if profiler is not None else None),
                    origin_s=(profiler.origin_s
                              if profiler is not None else None))
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker,
                args=(child_conn, factory, args, observe),
                daemon=True)
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)
            self._pending.append(1)  # the construction ack below
        # Construction barrier: surface builder failures immediately.
        for index in range(len(self._conns)):
            self._receive(index)

    def __len__(self) -> int:
        return len(self._conns)

    @property
    def observing(self) -> bool:
        """True when workers carry a private profiler or trace shard."""
        return (self._parent_profiler is not None
                or bool(self._trace_shards))

    def _receive(self, shard: int) -> Any:
        status, payload = self._conns[shard].recv()
        self._pending[shard] -= 1
        if status != "ok":
            raise ShardPoolError(
                f"shard {shard} worker failed:\n{payload}")
        return payload

    def send(self, shard: int, method: str, *args: Any) -> None:
        """Dispatch ``method(*args)`` to one shard without waiting.

        Requests pipeline: a worker serves them strictly in arrival
        order, one reply each, so interleaving ``send``\\ s across
        shards (or several to one shard) overlaps their compute with
        the parent's own work.  Every ``send`` must be paired with
        exactly one :meth:`recv` on the same shard, in send order.
        """
        self._conns[shard].send((method, args))
        self._pending[shard] += 1

    def recv(self, shard: int) -> Any:
        """Collect ``shard``'s next pending reply (blocking).

        Replies come back in the order the requests were sent to that
        shard; a worker-side exception surfaces here as
        :class:`ShardPoolError`.
        """
        return self._receive(shard)

    def broadcast(self, method: str,
                  per_shard_args: Sequence[tuple[Any, ...]]) -> list[Any]:
        """Invoke ``method`` on every shard concurrently.

        All requests are written before any response is awaited, so
        the shards genuinely run in parallel; results come back in
        shard order.
        """
        if len(per_shard_args) != len(self._conns):
            raise ValueError(
                f"need one args tuple per shard "
                f"({len(per_shard_args)} != {len(self._conns)})")
        for index, (conn, args) in enumerate(zip(self._conns,
                                                 per_shard_args)):
            conn.send((method, args))
            self._pending[index] += 1
        return [self._receive(index) for index in range(len(self._conns))]

    # -- observability drain -------------------------------------------
    def merge_obs(self, payload: Mapping[str, Any] | None) -> None:
        """Fold one :data:`DRAIN_OBS` reply into the parent's obs.

        Registry deltas merge into the process-global :data:`REGISTRY`;
        profiler snapshots merge into the parent's ambient profiler
        captured at construction.  Call in shard order so the merged
        aggregates stay deterministic for a fixed shard layout.
        """
        if not payload:
            return
        delta = payload.get("registry")
        if delta is not None:
            REGISTRY.merge(delta)
        snapshot = payload.get("profile")
        if snapshot is not None and self._parent_profiler is not None:
            self._parent_profiler.merge(snapshot)

    def drain_obs(self) -> None:
        """Drain and merge every worker's observability (blocking).

        A pipelined caller can do the same thing manually —
        ``send(i, DRAIN_OBS)`` ... ``merge_obs(recv(i))`` — to overlap
        the drain with its own work; this convenience form is for
        barrier points (end of run).
        """
        for index in range(len(self._conns)):
            self.send(index, DRAIN_OBS)
        for index in range(len(self._conns)):
            self.merge_obs(self.recv(index))

    # -- shutdown ------------------------------------------------------
    def _drain_pending(self, timeout_s: float = 10.0) -> None:
        """Consume in-flight replies so workers aren't left mid-write.

        A worker blocked writing a large reply into a full pipe never
        reaches the shutdown sentinel; closing after a mid-epoch
        :class:`ShardPoolError` used to wedge exactly that way.  The
        drained replies (results or error reports) are discarded —
        this runs only on the way down.
        """
        for index, conn in enumerate(self._conns):
            while self._pending[index] > 0:
                try:
                    if not conn.poll(timeout_s):
                        break  # pragma: no cover - wedged worker
                    conn.recv()
                except (EOFError, OSError):
                    break
                self._pending[index] -= 1

    def _final_obs_drain(self, timeout_s: float = 10.0) -> None:
        """Best-effort :data:`DRAIN_OBS` sweep before shutdown.

        Guarantees shard-side contributions to the always-on metrics
        registry (and any profiler tail since the last epoch drain)
        survive even for callers that never drain mid-run.  Workers
        that already died are skipped.
        """
        payloads: list[Any] = []
        for index, conn in enumerate(self._conns):
            payload = None
            try:
                conn.send((DRAIN_OBS, ()))
                self._pending[index] += 1
                if conn.poll(timeout_s):
                    status, reply = conn.recv()
                    self._pending[index] -= 1
                    if status == "ok":
                        payload = reply
            except (BrokenPipeError, EOFError, OSError):
                pass
            payloads.append(payload)
        for payload in payloads:
            self.merge_obs(payload)

    def close(self) -> None:
        """Shut every worker down and reap the processes.

        In order: drain in-flight pipelined replies, collect a final
        observability drain, send the shutdown sentinel, reap, then
        fold per-shard trace files into the parent tracer (shard
        order).  Idempotent.
        """
        self._drain_pending()
        if self._conns:
            self._final_obs_drain()
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for process in self._procs:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        if self._parent_tracer is not None and self._trace_shards:
            merge_shards(self._trace_shards, self._parent_tracer)
        self._conns = []
        self._procs = []
        self._pending = []
        self._trace_shards = []

    def __enter__(self) -> ShardPool:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
