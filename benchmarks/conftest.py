"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
writes its rendered text to ``benchmarks/output/<name>.txt`` so a full
``pytest benchmarks/ --benchmark-only`` run leaves a complete set of
reproduction artifacts behind.  Alongside each rendered artifact, an
autouse fixture emits a machine-readable ``BENCH_<test>.json`` (wall
time, cells executed vs served from cache, worker count, aggregate
QoE metrics) into the same directory.  CI's ``smoke`` job runs the
Table I and II benches with ``REPRO_FULL=1`` (600 s, seeds 1-3: the
duration the paper states their claims for); the other benches run
only by hand.

Scale: benchmarks default to the reduced quick scale (so the suite
finishes in minutes); set ``REPRO_FULL=1`` for paper-fidelity runs
(1200 s, 20 seeds — expect hours).  ``REPRO_JOBS=N`` fans the
experiment matrix over N worker processes and ``REPRO_CACHE_DIR``
enables the on-disk result cache.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.bench import measure, write_bench_json
from repro.experiments.runner import (
    ExperimentScale,
    is_full_run,
)

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir() -> pathlib.Path:
    """Directory collecting rendered tables/figures."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(autouse=True)
def bench_artifact(request: pytest.FixtureRequest):
    """Emit ``BENCH_<test>.json`` next to the rendered artifacts."""
    name = request.node.name
    if name.startswith("test_"):
        name = name[len("test_"):]
    with measure(name, test=request.node.nodeid,
                 full_scale=is_full_run()) as record:
        yield
    OUTPUT_DIR.mkdir(exist_ok=True)
    write_bench_json(record, OUTPUT_DIR)


@pytest.fixture(scope="session")
def cell_scale() -> ExperimentScale:
    """Scale for the ns-3-style cell experiments (Figures 6-12)."""
    if is_full_run():
        return ExperimentScale(duration_s=1200.0, num_runs=20)
    # FLARE's delta-hysteresis ramp takes ~160 s on the six-rung
    # ladder; shorter quick runs would mostly measure the ramp.
    return ExperimentScale(duration_s=600.0, num_runs=2)


@pytest.fixture(scope="session")
def testbed_scale() -> ExperimentScale:
    """Scale for the femtocell testbed experiments (Tables I/II)."""
    if is_full_run():
        return ExperimentScale(duration_s=600.0, num_runs=3,
                               num_clients=3)
    return ExperimentScale(duration_s=240.0, num_runs=1, num_clients=3)


def save_artifact(output_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist one rendered table/figure and echo it to stdout."""
    path = output_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
