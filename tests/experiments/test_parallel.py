"""Tests for the parallel, cached experiment-execution layer."""

import dataclasses
import os
import time

import pytest

from repro.experiments.cache import (
    ResultCache,
    canonicalize,
    cell_key,
    code_version,
)
from repro.experiments.parallel import (
    LEDGER,
    ExperimentTask,
    ShardPool,
    ShardPoolError,
    execution_defaults,
    resolve_jobs,
    resolve_use_cache,
    run_tasks,
)
from repro.experiments.runner import ExperimentScale, run_comparison
from repro.metrics.serialize import dump_cell_report
from repro.obs import REGISTRY, prof, snapshot_delta
from repro.workload.scenarios import FlareParams, build_cell_scenario

# Small enough to keep the suite quick, big enough to exercise real
# player/scheduler dynamics.
TINY = dict(num_video=2, duration_s=30.0)
TINY_SCALE = ExperimentScale(duration_s=30.0, num_runs=2, num_clients=2)


def tiny_tasks(seeds=(1, 2), scheme="flare"):
    return [ExperimentTask(builder=build_cell_scenario, scheme=scheme,
                           seed=seed, kwargs=dict(TINY))
            for seed in seeds]


class TestSerialParallelEquivalence:
    def test_run_comparison_byte_identical(self):
        serial = run_comparison(build_cell_scenario, ["flare"],
                                scale=TINY_SCALE, jobs=1, use_cache=False,
                                num_video=2)
        fanned = run_comparison(build_cell_scenario, ["flare"],
                                scale=TINY_SCALE, jobs=2, use_cache=False,
                                num_video=2)
        assert serial["flare"].clients == fanned["flare"].clients
        for left, right in zip(serial["flare"].reports,
                               fanned["flare"].reports):
            assert dump_cell_report(left) == dump_cell_report(right)

    def test_run_tasks_preserves_task_order(self):
        tasks = tiny_tasks(seeds=(2, 1))
        reports = run_tasks(tasks, jobs=1, use_cache=False)
        expected = [run_tasks([task], jobs=1, use_cache=False)[0]
                    for task in tasks]
        assert [dump_cell_report(r) for r in reports] == \
            [dump_cell_report(r) for r in expected]

    def test_repeated_runs_deterministic(self):
        # Entity-ID counters reset per scenario build, so a cell's
        # report can't depend on what ran earlier in the process.
        first = run_tasks(tiny_tasks(seeds=(1,)), jobs=1, use_cache=False)
        second = run_tasks(tiny_tasks(seeds=(1,)), jobs=1, use_cache=False)
        assert dump_cell_report(first[0]) == dump_cell_report(second[0])


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        [report] = run_tasks(tiny_tasks(seeds=(1,)), jobs=1, use_cache=False)
        key = tiny_tasks(seeds=(1,))[0].key()
        assert cache.get(key) is None
        cache.put(key, report)
        cached = cache.get(key)
        assert dump_cell_report(cached) == dump_cell_report(report)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("not json at all {")
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_stale_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text('{"schema_version": 999}')
        assert cache.get(key) is None

    def test_clear_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        [report] = run_tasks(tiny_tasks(seeds=(1,)), jobs=1, use_cache=False)
        key = tiny_tasks(seeds=(1,))[0].key()
        cache.put(key, report)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(key) is None

    def test_run_tasks_second_pass_fully_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = tiny_tasks(seeds=(1, 2))

        before = LEDGER.snapshot()
        cold = run_tasks(tasks, jobs=1, cache=cache)
        mid = LEDGER.snapshot()
        warm = run_tasks(tasks, jobs=1, cache=cache)
        after = LEDGER.snapshot()

        assert mid["runs_executed"] - before["runs_executed"] == 2
        assert mid["cache_stores"] - before["cache_stores"] == 2
        # Second pass: everything served from cache, nothing executed.
        assert after["runs_executed"] == mid["runs_executed"]
        assert after["cache_hits"] - mid["cache_hits"] == 2
        assert [dump_cell_report(r) for r in warm] == \
            [dump_cell_report(r) for r in cold]


class TestCellKey:
    def test_stable_for_equal_inputs(self):
        assert tiny_tasks(seeds=(1,))[0].key() == \
            tiny_tasks(seeds=(1,))[0].key()

    def test_sensitive_to_scheme_seed_and_kwargs(self):
        base = cell_key(build_cell_scenario, "flare", 1, dict(TINY))
        assert cell_key(build_cell_scenario, "festive", 1,
                        dict(TINY)) != base
        assert cell_key(build_cell_scenario, "flare", 2, dict(TINY)) != base
        other = dict(TINY, duration_s=31.0)
        assert cell_key(build_cell_scenario, "flare", 1, other) != base

    def test_dataclass_kwargs_hash_by_fields(self):
        left = cell_key(build_cell_scenario, "flare", 1,
                        {"flare_params": FlareParams()})
        right = cell_key(build_cell_scenario, "flare", 1,
                         {"flare_params": FlareParams()})
        assert left == right
        changed = dataclasses.replace(FlareParams(),
                                      alpha=FlareParams().alpha + 0.1)
        assert cell_key(build_cell_scenario, "flare", 1,
                        {"flare_params": changed}) != left

    def test_code_version_in_key(self):
        assert len(code_version()) == 16
        int(code_version(), 16)  # hex digest

    def test_canonicalize_sorts_dicts(self):
        assert canonicalize({"b": 2, "a": 1}) == {"a": 1, "b": 2}
        encoded = canonicalize(FlareParams())
        assert encoded["__type__"] == "FlareParams"


class SlowEcho:
    """Shard-state stand-in: replies carry the shard id and call rank.

    ``delay_s`` skews how long each shard grinds per request, so a
    fast shard's replies are ready long before a slow shard's — the
    exact condition under which pipelined ``send``/``recv`` must still
    deliver every reply to the right request.
    """

    def __init__(self, shard_id, delay_s):
        self.shard_id = shard_id
        self.delay_s = delay_s
        self.calls = 0

    def compute(self, tag):
        time.sleep(self.delay_s)
        self.calls += 1
        return (self.shard_id, self.calls, tag)

    def boom(self):
        raise RuntimeError("deliberate shard failure")

    def die(self, code):
        os._exit(code)

    def big(self, size):
        # A reply large enough that the worker's pipe write blocks
        # until the parent reads it (OS pipe buffers are ~64 KiB).
        return bytes(size)

    def instrumented(self, value):
        REGISTRY.counter("echo.calls").inc()
        profiler = prof.PROFILER
        if profiler is not None:
            with profiler.span("echo.work"):
                pass
        return value


class TestShardPoolPipelining:
    def test_out_of_order_recv_across_skewed_shards(self):
        # Shard 0 is slow, shard 1 fast.  Dispatch two requests to
        # each before collecting anything, then drain the fast shard
        # first: replies must match (shard, send-rank) regardless of
        # which worker finished first.
        with ShardPool(SlowEcho, [(0, 0.05), (1, 0.0)]) as pool:
            pool.send(0, "compute", "a")
            pool.send(0, "compute", "b")
            pool.send(1, "compute", "c")
            pool.send(1, "compute", "d")
            assert pool.recv(1) == (1, 1, "c")
            assert pool.recv(1) == (1, 2, "d")
            assert pool.recv(0) == (0, 1, "a")
            assert pool.recv(0) == (0, 2, "b")

    def test_per_shard_fifo_over_many_pipelined_sends(self):
        with ShardPool(SlowEcho, [(0, 0.0)]) as pool:
            for tag in range(8):
                pool.send(0, "compute", tag)
            replies = [pool.recv(0) for _ in range(8)]
        assert replies == [(0, rank + 1, rank) for rank in range(8)]

    def test_worker_error_surfaces_on_recv_and_worker_survives(self):
        with ShardPool(SlowEcho, [(0, 0.0)]) as pool:
            pool.send(0, "boom")
            pool.send(0, "compute", "after")
            with pytest.raises(ShardPoolError, match="deliberate"):
                pool.recv(0)
            # The worker stays alive: the pipelined follow-up still
            # runs, and the failed call did not bump the state.
            assert pool.recv(0) == (0, 1, "after")

    def test_dead_worker_raises_with_shard_and_exit_code(self):
        pool = ShardPool(SlowEcho, [(0, 0.0), (1, 0.0)])
        pool.send(1, "die", 3)
        with pytest.raises(ShardPoolError,
                           match=r"shard 1 worker died \(exit code 3") as info:
            pool.recv(1)
        assert info.value.shard == 1
        # Its pipe stays broken; the other shard keeps serving.
        with pytest.raises(ShardPoolError, match="shard 1") as info:
            pool.send(1, "compute", "late")
        assert info.value.shard == 1
        pool.send(0, "compute", "a")
        assert pool.recv(0) == (0, 1, "a")
        procs = list(pool._procs)
        pool.close()
        assert not any(proc.is_alive() for proc in procs)

    def test_close_drains_unconsumed_pipelined_replies(self):
        # Replies big enough to fill the OS pipe buffer: the worker
        # blocks mid-write until the parent reads them.  close() must
        # drain those in-flight replies before sending the shutdown
        # sentinel — otherwise the worker never sees it and close()
        # falls back to terminating a perfectly healthy process.
        pool = ShardPool(SlowEcho, [(0, 0.0)])
        procs = list(pool._procs)
        for _ in range(4):
            pool.send(0, "big", 1 << 20)
        # Timing the shutdown from outside the deterministic core.
        started = time.perf_counter()  # flarelint: disable=FL001
        pool.close()
        elapsed = time.perf_counter() - started  # flarelint: disable=FL001
        assert all(proc.exitcode == 0 for proc in procs)
        assert elapsed < 5.0  # graceful exit, not the join timeout


class TestShardPoolObservability:
    def test_drain_obs_merges_worker_registry_and_spans(self):
        base = REGISTRY.snapshot()
        with prof.profiling() as profiler:
            with ShardPool(SlowEcho, [(0, 0.0), (1, 0.0)]) as pool:
                assert pool.observing
                for index in range(2):
                    pool.send(index, "instrumented", index)
                for index in range(2):
                    pool.recv(index)
                pool.drain_obs()
                # Worker-side spans land in the parent profiler on
                # shard tracks 1..N (track 0 is the parent itself).
                stats = profiler.snapshot()["stats"]
                assert "echo.work" in stats
                pids = {event["pid"]
                        for event in profiler.chrome_events()}
                assert {1, 2} <= pids
        delta = snapshot_delta(base, REGISTRY.snapshot())
        assert delta["counters"].get("echo.calls") == 2

    def test_unobserved_pool_ships_registry_on_close(self):
        # With no parent profiler or tracer the epoch loop never
        # drains, but the always-on registry still merges back once,
        # at close().
        base = REGISTRY.snapshot()
        pool = ShardPool(SlowEcho, [(0, 0.0)])
        assert not pool.observing
        pool.send(0, "instrumented", 0)
        pool.recv(0)
        pool.close()
        delta = snapshot_delta(base, REGISTRY.snapshot())
        assert delta["counters"].get("echo.calls") == 1


class TestExecutionDefaults:
    def test_explicit_jobs_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        with execution_defaults(jobs=3):
            assert resolve_jobs(5) == 5
            assert resolve_jobs() == 3

    def test_env_jobs_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4
        monkeypatch.setenv("REPRO_JOBS", "junk")
        assert resolve_jobs() == 1

    def test_defaults_restored_on_exit(self):
        with execution_defaults(jobs=9):
            assert resolve_jobs() == 9
        assert resolve_jobs() == 1

    def test_no_cache_env_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert resolve_use_cache(True) is False
        with execution_defaults(use_cache=True):
            assert resolve_use_cache() is False

    def test_cache_dir_env_enables_library_caching(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_use_cache() is False
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_use_cache() is True
