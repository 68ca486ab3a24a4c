"""Machine-readable ``BENCH_<name>.json`` run artifacts.

Every figure/table command of the CLI and every benchmark in
``benchmarks/`` emits one JSON artifact recording how the run
executed (wall time, worker count, the host's core count, cells
executed vs served from cache) and what it produced (aggregate QoE
metrics).  An artifact describes one run on one host: comparing wall
times across hosts measures the hosts.  Speed is compared by
``tools/bench_pair.py``, which runs the ``perfbench/`` benchmark on
two checkouts on the same host.

Usage::

    with measure("fig6") as record:
        ...run the experiment...
    path = write_bench_json(record)
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import Any, Union

from repro.experiments.parallel import LEDGER, resolve_jobs
from repro.obs.registry import REGISTRY, registry_delta

#: Environment variable selecting where artifacts are written.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

#: Artifact schema version (bump on shape changes).
BENCH_SCHEMA_VERSION = 3

#: Fields that vary run-to-run/machine-to-machine by construction.
#: Artifact-diffing must ignore these and compare the rest — see
#: :func:`comparable_dict`.
VOLATILE_BENCH_FIELDS = frozenset({
    "timestamp", "git_rev", "host", "cpu_count", "python",
    "wall_time_s", "obs", "profile",
})

PathLike = Union[str, pathlib.Path]

_GIT_REV: str | None = None


def _git_revision() -> str:
    """The repo's short commit hash, or ``"unknown"`` (cached)."""
    # Parent-process provenance cache; never read inside a worker.
    global _GIT_REV  # flarelint: disable=FL009
    if _GIT_REV is None:
        try:
            _GIT_REV = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=pathlib.Path(__file__).parent,
                capture_output=True, text=True, timeout=5.0,
                check=True).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_REV = "unknown"
    return _GIT_REV


def comparable_dict(payload: dict[str, Any]) -> dict[str, Any]:
    """A BENCH payload with the volatile fields stripped.

    Use this when diffing artifacts across runs or machines; the
    remaining fields (cell counts, cache behaviour, QoE metrics)
    are expected to be stable for identical inputs.
    """
    return {key: value for key, value in payload.items()
            if key not in VOLATILE_BENCH_FIELDS}


def bench_dir() -> pathlib.Path:
    """Artifact directory (default: the current directory)."""
    return pathlib.Path(os.environ.get(BENCH_DIR_ENV, "."))


@dataclass
class BenchRecord:
    """One measured run, ready to serialize.

    Attributes:
        name: artifact name (file becomes ``BENCH_<name>.json``).
        wall_time_s: elapsed wall-clock seconds.
        jobs: resolved worker count of the run.
        runs_executed: cells actually simulated.
        cache_hits: cells served from the result cache.
        cache_stores: cells persisted to the cache.
        metrics: aggregate QoE metrics over every finished cell.
        obs: the :data:`repro.obs.REGISTRY` delta accrued inside the
            measured region — solver-time histogram summaries, cache
            hit counters (see :func:`repro.obs.registry_delta`).
        extra: caller-supplied context (scale, command line, ...).
    """

    name: str
    wall_time_s: float = 0.0
    jobs: int = 1
    runs_executed: int = 0
    cache_hits: int = 0
    cache_stores: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    obs: dict[str, Any] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def total_cells(self) -> int:
        """Executed plus cached cells."""
        return self.runs_executed + self.cache_hits

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cells served from cache (0.0 when none ran)."""
        total = self.total_cells
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> dict[str, Any]:
        """The serialized artifact payload."""
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "name": self.name,
            "timestamp": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "git_rev": _git_revision(),
            "host": platform.node(),
            "cpu_count": os.cpu_count(),
            "wall_time_s": self.wall_time_s,
            "jobs": self.jobs,
            "runs_executed": self.runs_executed,
            "cache_hits": self.cache_hits,
            "cache_stores": self.cache_stores,
            "total_cells": self.total_cells,
            "cache_hit_rate": self.cache_hit_rate,
            "metrics": self.metrics,
            "obs": self.obs,
            "python": platform.python_version(),
            **self.extra,
        }


def _metrics_from_delta(before: dict[str, float],
                        after: dict[str, float]) -> dict[str, float]:
    """Aggregate QoE means over the cells finished between snapshots."""
    clients = after["clients"] - before["clients"]
    if clients <= 0:
        return {}
    return {
        "clients": clients,
        "mean_bitrate_kbps": (after["sum_bitrate_kbps"]
                              - before["sum_bitrate_kbps"]) / clients,
        "mean_changes": (after["sum_changes"]
                         - before["sum_changes"]) / clients,
        "mean_rebuffer_s": (after["sum_rebuffer_s"]
                            - before["sum_rebuffer_s"]) / clients,
    }


@contextmanager
def measure(name: str, jobs: int | None = None,
            **extra: Any) -> Iterator[BenchRecord]:
    """Measure a region and fill a :class:`BenchRecord` for it.

    Wall time plus the :data:`~repro.experiments.parallel.LEDGER`
    delta (cells executed, cache hits, pooled QoE metrics) accrued
    inside the ``with`` block are recorded; the record is complete
    once the block exits.
    """
    record = BenchRecord(name=name, jobs=resolve_jobs(jobs), extra=extra)
    before = LEDGER.snapshot()
    obs_before = REGISTRY.snapshot()
    started = time.perf_counter()
    try:
        yield record
    finally:
        record.wall_time_s = time.perf_counter() - started
        after = LEDGER.snapshot()
        record.runs_executed = int(after["runs_executed"]
                                   - before["runs_executed"])
        record.cache_hits = int(after["cache_hits"] - before["cache_hits"])
        record.cache_stores = int(after["cache_stores"]
                                  - before["cache_stores"])
        record.metrics = _metrics_from_delta(before, after)
        record.obs = registry_delta(obs_before, REGISTRY.snapshot())


def write_bench_json(record: BenchRecord,
                     directory: PathLike | None = None) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` and return its path."""
    target = pathlib.Path(directory) if directory is not None else bench_dir()
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"BENCH_{record.name}.json"
    path.write_text(json.dumps(record.to_dict(), indent=2, sort_keys=True)
                    + "\n")
    return path
