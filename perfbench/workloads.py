"""The benchmark's workloads: fixed-size batch jobs driven from outside.

Each workload is what a user of the reproduction runs: the paper's
Table I testbed through ``run_tasks``, or a metro
:class:`~repro.sim.network.Network` built by ``build_metro_plan``.  The
seed comes from the command line and is the only input; the library
receives nothing but the scenarios built from it.  ``WORKLOADS.md``
records why each workload exists.

Importing this module does not import ``repro``: the orchestrator
(``run.py``) reads the static fields, and only a repetition process
(``rep.py``) calls :func:`setup` and :func:`run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Table I: three schemes, three seeds, 600 s, 3 video clients + 1
#: backlogged data flow each (``TESTBED_FULL``).
TABLE1_RUNS = 3
TABLE1_CLIENTS = 3
TABLE1_DURATION_S = 600.0


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: the ``--workload`` value.
        sessions: client sessions per repetition (one operation each).
        duration_s: simulated seconds of every session.
        jobs: worker processes of the ``run_tasks`` fan-out (table1).
        shards: ``Network.run`` shard count (metro workloads).
        cells: metro grid size.
        ues_per_cell: metro density.
        reference: workload whose per-cell reports this one must
            reproduce byte for byte on the same seed (cross-mode check).
        always_overloaded: never a headline, whatever it serves.
    """

    name: str
    sessions: int
    duration_s: float
    jobs: int = 1
    shards: int = 1
    cells: int = 0
    ues_per_cell: int = 0
    reference: str | None = None
    always_overloaded: bool = False

    @property
    def is_metro(self) -> bool:
        """True for the multi-cell Network workloads."""
        return self.cells > 0


WORKLOADS = {
    w.name: w for w in (
        Workload("table1", sessions=3 * TABLE1_RUNS * TABLE1_CLIENTS,
                 duration_s=TABLE1_DURATION_S, jobs=2),
        Workload("metro", sessions=64 * 4, duration_s=300.0,
                 cells=64, ues_per_cell=4),
        Workload("metro_2shard", sessions=64 * 4, duration_s=300.0,
                 shards=2, cells=64, ues_per_cell=4, reference="metro"),
        Workload("metro_dense", sessions=16 * 128, duration_s=60.0,
                 cells=16, ues_per_cell=128, always_overloaded=True),
    )
}


def table1_seeds(seed: int) -> list[int]:
    """Scenario seeds of one table1 run; seed 0 is the paper's 1-3."""
    return [TABLE1_RUNS * seed + k for k in range(1, TABLE1_RUNS + 1)]


def setup(workload: Workload, seed: int, toy: bool = False) -> Any:
    """Build everything the run needs before its first simulated step.

    table1 builds its nine scenarios (the run rebuilds them inside the
    ``run_tasks`` workers, which is where the library builds them) and
    returns the task list; a metro workload returns its
    :class:`~repro.sim.network.NetworkPlan`.  ``toy`` shrinks the
    workload for the self-test.
    """
    if not workload.is_metro:
        from repro.experiments.parallel import ExperimentTask
        from repro.experiments.testbed import (
            TESTBED_SCHEMES,
            build_testbed_scenario,
        )
        duration = 30.0 if toy else workload.duration_s
        # Scheme-major, seed-minor: the order run_comparison submits.
        tasks = []
        for scheme in TESTBED_SCHEMES:
            for run_seed in table1_seeds(seed):
                build_testbed_scenario(scheme, seed=run_seed,
                                       duration_s=duration)
                tasks.append(ExperimentTask(
                    builder=build_testbed_scenario, scheme=scheme,
                    seed=run_seed, kwargs={"duration_s": duration}))
        return tasks
    from repro.workload.metro import build_metro_plan
    cells, per_cell = ((4, 2) if toy
                       else (workload.cells, workload.ues_per_cell))
    return build_metro_plan(num_cells=cells, ues_per_cell=per_cell,
                            scheme="flare", seed=seed)


@dataclass
class Outcome:
    """What one run produced.

    Attributes:
        reports: label -> CellReport; labels are ``scheme/seed`` for
            table1 and the cell id for a metro.
        expected: label -> flow ids that must appear in that report
            (table1), or None when any cell may hold any UE (metro).
        planned: every flow id the run must report exactly once
            (metro), else None.
        duration_s: simulated seconds per session.
        handovers: X2 handovers executed (metro).
    """

    reports: dict[str, Any]
    expected: dict[str, list[int]] | None
    planned: list[int] | None
    duration_s: float
    handovers: int = 0


def run(workload: Workload, prepared: Any, toy: bool = False) -> Outcome:
    """Run the batch job once."""
    if not workload.is_metro:
        from repro.experiments.parallel import run_tasks
        reports = run_tasks(prepared, jobs=workload.jobs, use_cache=False)
        labelled = {f"{task.scheme}/{task.seed}": report
                    for task, report in zip(prepared, reports)}
        return Outcome(
            reports=dict(sorted(labelled.items())),
            expected={label: list(range(TABLE1_CLIENTS))
                      for label in labelled},
            planned=None,
            duration_s=prepared[0].kwargs["duration_s"])
    from repro.sim.network import Network
    duration = 20.0 if toy else workload.duration_s
    network = Network(prepared)
    reports = network.run(duration, shards=workload.shards)
    return Outcome(
        reports={str(cell): report for cell, report in reports.items()},
        expected=None,
        planned=[ue.flow_id for ue in prepared.ues],
        duration_s=duration,
        handovers=network.handover_count)
