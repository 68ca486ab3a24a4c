"""Simulation engine: cell world object, step scheduling, TTI fast path.

The multi-cell world lives in :mod:`repro.sim.network`; it is not
re-exported here because it sits *above* the core/workload layers
(importing it from this package would cycle through
``repro.core.controller``, which imports ``repro.sim.cell``).  Import
it as ``repro.sim.network`` or from the top-level ``repro`` package.
"""

from repro.sim.cell import Cell, CellConfig, IntervalController
from repro.sim.engine import advance_cells_lockstep, earliest_due
from repro.sim.kernel import TtiKernel, kernel_enabled, kernel_mode, run_cells

__all__ = [
    "Cell",
    "CellConfig",
    "IntervalController",
    "TtiKernel",
    "advance_cells_lockstep",
    "earliest_due",
    "kernel_enabled",
    "kernel_mode",
    "run_cells",
]
