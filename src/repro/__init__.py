"""FLARE: Coordinated Rate Adaptation for HTTP Adaptive Streaming in
Cellular Networks — a full Python reproduction of the ICDCS 2017 paper.

The package layers:

* :mod:`repro.phy` — LTE physical layer (TBS tables, pathloss, CQI,
  mobility, channel models; the femtocell's iTbs override).
* :mod:`repro.mac` — MAC schedulers (two-phase GBR Priority Set,
  proportional fair), GBR bearers, RB/rate tracing.
* :mod:`repro.net` — flows, fluid TCP, PCRF.
* :mod:`repro.has` — MPD model, playout buffer, HAS player.
* :mod:`repro.abr` — FESTIVE, GOOGLE, AVIS, rate-/buffer-based
  baselines, the FLARE plugin client.
* :mod:`repro.core` — FLARE's contribution: the utility model, the
  exact and relaxed per-BAI optimizers, Algorithm 1, the OneAPI server
  and the UE plugin protocol.
* :mod:`repro.sim` — the cell simulator tying it all together.
* :mod:`repro.metrics`, :mod:`repro.workload`,
  :mod:`repro.experiments` — measurement, scenario builders, and one
  entry point per paper table/figure.

Quick start::

    from repro import build_cell_scenario
    report = build_cell_scenario("flare", duration_s=300.0).run()
    print(report.average_bitrate_kbps, report.mean_changes)
"""

from repro.core import (
    Algorithm1,
    ExactSolver,
    FlarePlugin,
    FlareSystem,
    FlowSpec,
    OneApiServer,
    ProblemSpec,
    RelaxedSolver,
)
from repro.metrics import CellReport, ClientSummary, EmpiricalCdf, jain_index
from repro.sim import Cell, CellConfig
from repro.workload import (
    FlareParams,
    Scenario,
    build_cell_scenario,
    build_coexistence_scenario,
    build_mixed_scenario,
    build_testbed_scenario,
)
# The multi-cell network sits above core/workload, so it is imported
# last (see the repro.sim package docstring).
from repro.sim.network import (
    MetroChannel,
    Network,
    NetworkPlan,
    SitePlan,
    grid_site_plan,
)
from repro.workload.metro import build_metro_plan

__version__ = "1.1.0"

__all__ = [
    "Algorithm1",
    "ExactSolver",
    "FlarePlugin",
    "FlareSystem",
    "FlowSpec",
    "OneApiServer",
    "ProblemSpec",
    "RelaxedSolver",
    "CellReport",
    "ClientSummary",
    "EmpiricalCdf",
    "jain_index",
    "Cell",
    "CellConfig",
    "FlareParams",
    "Scenario",
    "build_cell_scenario",
    "build_coexistence_scenario",
    "build_mixed_scenario",
    "build_testbed_scenario",
    "MetroChannel",
    "Network",
    "NetworkPlan",
    "SitePlan",
    "grid_site_plan",
    "build_metro_plan",
    "__version__",
]
