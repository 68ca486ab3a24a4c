"""Multi-run experiment orchestration.

The paper's simulation study aggregates 20 runs of 8 clients per data
point (160-client CDFs).  :func:`run_comparison` executes a scenario
builder across schemes and seeds and collects per-client summaries;
:class:`ExperimentScale` centralises the full-fidelity vs quick-mode
knobs (benchmarks default to a reduced scale so the suite stays
runnable; set ``REPRO_FULL=1`` for paper-scale runs).

Execution goes through :mod:`repro.experiments.parallel`: pass
``jobs=N`` (or run under the CLI's ``--jobs``) to fan the scheme x
seed matrix over a process pool, and enable the result cache to skip
cells that already ran — pooled populations are byte-identical to a
serial, uncached run either way.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import run_matrix
from repro.metrics.collector import CellReport
from repro.metrics.qoe import ClientSummary
from repro.workload.scenarios import Scenario


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run an experiment.

    Attributes:
        duration_s: simulated seconds per run.
        num_runs: independent seeds per scheme.
        num_clients: video clients per run.
    """

    duration_s: float
    num_runs: int
    num_clients: int = 8

    def seeds(self) -> list[int]:
        """The seed list used for this scale."""
        return list(range(1, self.num_runs + 1))


#: Paper-fidelity scale: Table III (1200 s, 20 runs x 8 clients).
FULL_SCALE = ExperimentScale(duration_s=1200.0, num_runs=20)

#: Reduced scale for CI/benchmark runs.
QUICK_SCALE = ExperimentScale(duration_s=240.0, num_runs=2)

#: Scale used by the testbed experiments (10-minute runs in the paper).
TESTBED_FULL = ExperimentScale(duration_s=600.0, num_runs=3, num_clients=3)
TESTBED_QUICK = ExperimentScale(duration_s=180.0, num_runs=1, num_clients=3)


#: In-process override of the REPRO_FULL environment selection; used
#: by the CLI's --full flag so scale selection never leaks through
#: process-global environment mutation.
_FORCED_FULL: bool | None = None


@contextmanager
def full_mode(enabled: bool) -> Iterator[None]:
    """Scoped override of the full-scale selection.

    Inside the context, :func:`is_full_run` reports ``enabled``
    regardless of ``REPRO_FULL``; on exit the previous selection is
    restored, so in-process callers (CLI tests, notebooks) can't leak
    paper-scale mode into later work.
    """
    # Parent-process scale toggle: the scale is resolved here and
    # handed to workers in each task's arguments, so this module
    # global never has to reach them.
    global _FORCED_FULL  # flarelint: disable=FL009
    previous = _FORCED_FULL
    _FORCED_FULL = enabled
    try:
        yield
    finally:
        _FORCED_FULL = previous


def is_full_run() -> bool:
    """True when paper-scale experiments are requested.

    An active :func:`full_mode` context wins; otherwise the
    ``REPRO_FULL=1`` environment convention applies.
    """
    if _FORCED_FULL is not None:
        return _FORCED_FULL
    return os.environ.get("REPRO_FULL", "0") == "1"


def default_scale() -> ExperimentScale:
    """The cell-experiment scale selected by the environment."""
    return FULL_SCALE if is_full_run() else QUICK_SCALE


def testbed_scale() -> ExperimentScale:
    """The testbed-experiment scale selected by the environment."""
    return TESTBED_FULL if is_full_run() else TESTBED_QUICK


@dataclass
class SchemeResult:
    """Aggregated outcome of one scheme across runs.

    Attributes:
        scheme: scheme name.
        clients: per-client summaries pooled over every run (the
            paper's 160-client CDF population).
        reports: one :class:`CellReport` per run.
    """

    scheme: str
    clients: list[ClientSummary]
    reports: list[CellReport]

    def average_bitrates_kbps(self) -> list[float]:
        """Per-client average bitrates in kbps."""
        return [c.average_bitrate_kbps for c in self.clients]

    def change_counts(self) -> list[int]:
        """Per-client bitrate-change counts."""
        return [c.num_bitrate_changes for c in self.clients]

    def mean_bitrate_kbps(self) -> float:
        """Population mean of the per-client average bitrates."""
        rates = self.average_bitrates_kbps()
        return sum(rates) / len(rates) if rates else 0.0

    def mean_changes(self) -> float:
        """Population mean of the per-client change counts."""
        counts = self.change_counts()
        return sum(counts) / len(counts) if counts else 0.0

    def mean_data_throughput_bps(self) -> float:
        """Mean data-flow throughput across runs (0 when no data flows)."""
        values = [r.mean_data_throughput_bps for r in self.reports
                  if r.data_throughput_bps]
        return sum(values) / len(values) if values else 0.0

    def mean_rebuffer_s(self) -> float:
        """Mean per-client rebuffering time in seconds."""
        if not self.clients:
            return 0.0
        return (sum(c.rebuffer_time_s for c in self.clients)
                / len(self.clients))


ScenarioBuilder = Callable[..., Scenario]


def run_comparison(
    builder: ScenarioBuilder,
    schemes: Sequence[str],
    scale: ExperimentScale | None = None,
    seeds: Iterable[int] | None = None,
    jobs: int | None = None,
    use_cache: bool | None = None,
    cache: ResultCache | None = None,
    **builder_kwargs: Any,
) -> dict[str, SchemeResult]:
    """Run ``builder`` for every scheme x seed and pool the clients.

    The matrix executes through
    :func:`repro.experiments.parallel.run_matrix`: cells fan out over
    ``jobs`` worker processes and, when caching is enabled, completed
    cells are served from the on-disk result cache.  Reports are
    pooled in scheme-major, seed-minor order, so the returned
    populations are identical no matter how the cells executed.

    Args:
        builder: a scenario builder (``scheme`` and ``seed`` keywords
            are supplied by this function; ``duration_s`` from the
            scale unless overridden in ``builder_kwargs``).
        schemes: scheme names to compare.
        scale: experiment scale (default: environment-selected).
        seeds: explicit seeds (default: the scale's).
        jobs: worker processes (default: ambient ``--jobs`` /
            ``REPRO_JOBS`` / serial).
        use_cache: result-cache policy (default: ambient/env).
        cache: explicit cache instance.
        **builder_kwargs: forwarded to the builder.

    Returns:
        Mapping of scheme name to its pooled :class:`SchemeResult`.
    """
    scale = scale if scale is not None else default_scale()
    seed_list = list(seeds) if seeds is not None else scale.seeds()
    builder_kwargs.setdefault("duration_s", scale.duration_s)
    grouped = run_matrix(builder, schemes, seed_list, jobs=jobs,
                         use_cache=use_cache, cache=cache,
                         **builder_kwargs)
    results: dict[str, SchemeResult] = {}
    for scheme in schemes:
        clients: list[ClientSummary] = []
        reports: list[CellReport] = []
        for report in grouped.get(scheme, []):
            clients.extend(report.clients)
            reports.append(report)
        results[scheme] = SchemeResult(scheme=scheme, clients=clients,
                                       reports=reports)
    return results
