"""Step-scheduling helpers for the TTI kernel and multi-cell worlds.

The cell simulation advances the MAC in fixed fluid steps; interval
controllers (BAI timers for the OneAPI server, AVIS epochs, metrics
sampling) sit on each cell's own due list, in whole TTIs, and fire at
the first step whose TTI count reaches their due TTI.
:func:`earliest_due` reads that list, and :func:`advance_cells_lockstep`
is the multi-cell reference schedule.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.util import require_positive

if TYPE_CHECKING:
    from repro.sim.cell import Cell


def earliest_due(controllers: Iterable[tuple[object, list[int]]]
                 ) -> float:
    """Earliest due TTI over ``(controller, [due_tti, interval])`` pairs.

    The TTI kernel's run loop reads it to know when a step must fire
    controllers before it runs.  Returns ``inf`` when no controller is
    registered.
    """
    bound = math.inf
    for _, due in controllers:
        if due[0] < bound:
            bound = due[0]
    return bound


def advance_cells_lockstep(cells: Sequence[Cell], until_s: float) -> None:
    """Advance many cells to ``until_s`` one fluid step at a time.

    This is the *reference schedule* for multi-cell worlds: every
    still-running cell takes exactly one step before any cell takes its
    next, so trace events from different cells interleave in cell
    order per step.  ``repro.sim.network.Network`` uses it as the
    ground truth its batched and sharded execution modes are verified
    against (the per-cell step sequences are identical in all three —
    only the interleaving differs).

    A cell stops at the first step whose TTI count reaches ``until_s``
    and then drops out of the scan, which matters when cells finish at
    staggered times (e.g. mixed-duration worlds).
    """
    require_positive("until_s", until_s)
    active = [(cell, cell._stop_step(until_s)) for cell in cells]
    active = [(cell, stop) for cell, stop in active if cell._steps < stop]
    while active:
        for cell, _ in active:
            cell.step()
        active = [(cell, stop) for cell, stop in active
                  if cell._steps < stop]
