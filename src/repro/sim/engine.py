"""Step-scheduling helpers for the TTI kernel and multi-cell worlds.

The cell simulation advances the MAC in fixed fluid steps; interval
controllers (BAI timers for the OneAPI server, AVIS epochs, metrics
sampling) sit on each cell's own due list and fire at the first step
whose start reaches their deadline.  :func:`earliest_due` reads that
list, and :func:`advance_cells_lockstep` is the multi-cell reference
schedule.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.util import require_positive

if TYPE_CHECKING:
    from repro.sim.cell import Cell


def earliest_due(controllers: Iterable[tuple[object, list[float]]]
                 ) -> float:
    """Earliest next-fire time over ``(controller, [next_due])`` pairs.

    The TTI kernel's run loop reads it to know when a step must fire
    controllers before it runs.  Returns ``inf`` when no controller is
    registered.
    """
    bound = math.inf
    for _, next_due in controllers:
        if next_due[0] < bound:
            bound = next_due[0]
    return bound


def advance_cells_lockstep(cells: Sequence[Cell], until_s: float) -> None:
    """Advance many cells to ``until_s`` one fluid step at a time.

    This is the *reference schedule* for multi-cell worlds: every
    still-running cell takes exactly one step before any cell takes its
    next, so trace events from different cells interleave in cell
    order per step.  ``repro.sim.network.Network`` uses it as the
    ground truth its batched and sharded execution modes are verified
    against (the per-cell float/step sequences are identical in all
    three — only the interleaving differs).

    Cells that have already reached ``until_s`` drop out of the scan
    entirely instead of being re-checked on every pass, which matters
    when cells finish at staggered times (e.g. mixed-duration worlds).
    """
    require_positive("until_s", until_s)
    active = [cell for cell in cells if cell.now_s < until_s - 1e-9]
    while active:
        for cell in active:
            cell.step()
        active = [cell for cell in active if cell.now_s < until_s - 1e-9]
