"""FLARE for uplink live streaming.

The OneAPI server's optimization is direction-agnostic: it sees flows,
per-flow RB traces and a ladder, and assigns ladder indices.  The
uplink deployment therefore reuses :class:`~repro.core.oneapi.
OneApiServer` and :class:`~repro.core.algorithm1.Algorithm1` verbatim;
only the *enforcement leaf* differs — the assignment drives a live
encoder instead of a player (and the GBR programs the uplink bearer).

This is the "minor modifications" of the paper's Section V, made
concrete.
"""

from __future__ import annotations

from repro.core.algorithm1 import Algorithm1
from repro.core.controller import make_solver
from repro.core.oneapi import OneApiServer
from repro.core.optimizer import Solver
from repro.core.plugin import FlarePlugin
from repro.has.mpd import BitrateLadder
from repro.net.flows import UserEquipment, VideoFlow
from repro.sim.cell import Cell
from repro.uplink.encoder import LiveEncoder
from repro.uplink.streamer import UplinkCellAdapter, UplinkStreamer


class FlareUplinkSystem:
    """Coordinated uplink rate adaptation for live streamers.

    Attributes:
        server: the (reused) OneAPI server.
        adapter: the cell adapter driving the streamers' pipelines.
    """

    def __init__(
        self,
        solver: str | Solver = "exact",
        delta: int = 2,
        alpha: float = 1.0,
        bai_s: float = 2.0,
        cost_smoothing: float = 0.5,
    ) -> None:
        self.algorithm = Algorithm1(make_solver(solver), delta=delta)
        self.server = OneApiServer(self.algorithm, interval_s=bai_s,
                                   alpha=alpha, enforce_gbr=True,
                                   cost_smoothing=cost_smoothing)
        self.adapter = UplinkCellAdapter()
        self._installed = False

    def attach_streamer(
        self,
        cell: Cell,
        ue: UserEquipment,
        ladder: BitrateLadder,
        segment_duration_s: float = 2.0,
        max_backlog_segments: int = 5,
    ) -> UplinkStreamer:
        """Add one live uplink streamer to ``cell``."""
        flow = VideoFlow(ue)
        cell.register_bare_video_flow(flow, ladder)
        encoder = LiveEncoder(ladder,
                              segment_duration_s=segment_duration_s,
                              max_backlog_segments=max_backlog_segments)
        streamer = UplinkStreamer(flow, encoder)
        self.adapter.add(streamer)
        self.server.register_plugin(FlarePlugin(flow.flow_id, ladder))
        return streamer

    def install(self, cell: Cell) -> None:
        """Register the server (BAIs) and adapter (production) hooks."""
        if self._installed:
            raise RuntimeError("FlareUplinkSystem already installed")
        cell.add_controller(self.server)
        self.adapter.install(cell)

        def push_assignments(now_s: float) -> None:
            for streamer in self.adapter.streamers:
                index = self.plugin_for(streamer.flow.flow_id).assigned_index
                if index is not None:
                    streamer.set_assigned_index(index)

        cell.add_step_hook(push_assignments)
        self._installed = True

    def plugin_for(self, flow_id: int) -> FlarePlugin:
        """The plugin of one streamer's flow.

        Raises:
            KeyError: for flows not attached through this system.
        """
        return self.server.plugin_for(flow_id)
