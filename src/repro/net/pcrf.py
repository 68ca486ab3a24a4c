"""PCRF model.

In the paper's architecture (Figure 1) the OneAPI server learns the
cell-wide flow population from the **PCRF** (Policy, Charging and
Rules Function), which "manages and monitors all flows in the
network", and enforces chosen bitrates through the **PCEF** (Policy,
Charging and Enforcement Function), which programs each video flow's
GBR at the eNodeB.

:class:`Pcrf` reproduces the bookkeeping role: the authoritative
registry of flow sessions per cell (this is how FLARE knows ``n``, the
number of competing data flows, without the client revealing
anything).  The PCEF's GBR set is the cell's Continuous GBR Updater,
:meth:`repro.mac.gbr.BearerRegistry.update_gbr`, which the OneAPI
server and the AVIS agent call directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.net.flows import Flow, FlowKind


@dataclass(frozen=True)
class FlowSession:
    """One flow session as the PCRF sees it.

    Attributes:
        flow_id: network-wide flow identifier.
        ue_id: owning UE.
        cell_id: serving cell.
        kind: video or data traffic class.
    """

    flow_id: int
    ue_id: int
    cell_id: int
    kind: FlowKind


class Pcrf:
    """Flow-session registry across (possibly several) cells."""

    def __init__(self) -> None:
        self._sessions: dict[int, FlowSession] = {}

    def register_flow(self, flow: Flow, cell_id: int) -> FlowSession:
        """Record a new flow session.

        Raises:
            ValueError: if the flow id is already registered.
        """
        if flow.flow_id in self._sessions:
            raise ValueError(f"flow {flow.flow_id} already registered")
        session = FlowSession(flow.flow_id, flow.ue.ue_id, cell_id, flow.kind)
        self._sessions[flow.flow_id] = session
        return session

    def deregister_flow(self, flow_id: int) -> None:
        """Remove a departed flow session."""
        self._sessions.pop(flow_id, None)

    def sessions_in_cell(self, cell_id: int,
                         kind: FlowKind | None = None) -> list[FlowSession]:
        """All sessions in ``cell_id``, optionally filtered by kind."""
        return [
            session for session in self._sessions.values()
            if session.cell_id == cell_id
            and (kind is None or session.kind is kind)
        ]

    def num_data_flows(self, cell_id: int) -> int:
        """The paper's ``n``: data flows currently active in the cell."""
        return len(self.sessions_in_cell(cell_id, FlowKind.DATA))

    def num_video_flows(self, cell_id: int) -> int:
        """Video flows currently active in the cell."""
        return len(self.sessions_in_cell(cell_id, FlowKind.VIDEO))
