"""Epoch-start BAI sweep over the cells of a shard.

:class:`~repro.sim.network.NetworkShard` calls :meth:`BatchBaiPlane.sweep`
at every epoch start, before its cells advance.  The sweep fires each
cell's due interval controllers through the cell's own firing rule
(:meth:`repro.sim.cell.Cell._fire_due_controllers`), at the instant
the cell's first step of the epoch would have fired them.  Every BAI in
every execution mode — lockstep, in-process and sharded — therefore
runs through the one scalar controller,
:meth:`repro.core.oneapi.OneApiServer.on_interval`, and a boundary the
sweep does not see as due (the cell clock still a float rounding short
of it) fires one step later inside the run, in every mode alike.

Keeping the boundary in its own call, outside the TTI loop, lets a
profiler or an outside-in trace (``perfbench/spans.py`` wraps
``BatchBaiPlane.sweep``) time the BAI boundary apart from the MAC
steps.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.cell import Cell


class BatchBaiPlane:
    """Fires every cell's due BAI boundary at an epoch start."""

    def sweep(self, cells: Iterable[Cell]) -> None:
        """Fire the due interval controllers of ``cells``, in order."""
        for cell in cells:
            cell._fire_due_controllers()
