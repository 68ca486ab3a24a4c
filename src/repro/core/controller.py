"""End-to-end FLARE wiring helpers.

:class:`FlareSystem` assembles the whole coordinated stack for one
cell — solver, Algorithm 1, OneAPI server, per-client plugins and the
plugin-driven ABR — so scenarios and examples can attach FLARE clients
in two lines.  :class:`MultiCellOneApi` mirrors the paper's note that
"a single OneAPI server can manage multiple BSs, though the bitrates
are calculated independently for each network cell."
"""

from __future__ import annotations

from typing import Any

from repro.abr.flare_client import FlareClientAbr
from repro.core.algorithm1 import Algorithm1
from repro.core.oneapi import OneApiServer
from repro.core.optimizer import ExactSolver, RelaxedSolver, Solver
from repro.core.plugin import FlarePlugin
from repro.has.mpd import MediaPresentation
from repro.has.player import HasPlayer, PlayerConfig
from repro.net.flows import UserEquipment
from repro.obs import events as obs_events
from repro.obs import tracer as obs
from repro.sim.cell import Cell


def make_solver(kind: str | Solver) -> Solver:
    """Build a solver from a name ('exact' / 'relaxed') or pass through."""
    if isinstance(kind, Solver):
        return kind
    if kind == "exact":
        return ExactSolver()
    if kind == "relaxed":
        return RelaxedSolver()
    raise ValueError(f"unknown solver kind: {kind!r}")


class FlareSystem:
    """One cell's complete FLARE deployment.

    Attributes:
        server: the OneAPI server driving BAIs (register it on the cell
            via :meth:`install`).
        algorithm: the underlying Algorithm 1 instance.
    """

    def __init__(
        self,
        solver: str | Solver = "exact",
        delta: int = 4,
        alpha: float = 1.0,
        bai_s: float = 2.0,
        enforce_gbr: bool = True,
        enforce_step_limit: bool = True,
        cost_smoothing: float = 0.1,
    ) -> None:
        self.algorithm = Algorithm1(
            make_solver(solver), delta=delta,
            enforce_step_limit=enforce_step_limit)
        self.server = OneApiServer(
            self.algorithm, interval_s=bai_s, alpha=alpha,
            enforce_gbr=enforce_gbr, cost_smoothing=cost_smoothing)

    def install(self, cell: Cell) -> None:
        """Register the OneAPI server as the cell's BAI controller."""
        cell.add_controller(self.server)

    def attach_client(
        self,
        cell: Cell,
        ue: UserEquipment,
        mpd: MediaPresentation,
        player_config: PlayerConfig | None = None,
        max_bitrate_bps: float | None = None,
        skimming: bool = False,
        flow_id: int | None = None,
    ) -> HasPlayer:
        """Add a FLARE-enabled HAS client to ``cell``.

        Creates the video flow and player, embeds a plugin, registers
        the plugin with the OneAPI server (the "client sends its ladder
        on stream start" message), and returns the player.  ``flow_id``
        pins the flow identifier (see :meth:`Cell.add_video_flow`).
        """
        # The flow id is allocated inside add_video_flow; create the
        # player with a placeholder ABR, then wire the plugin to it.
        placeholder = FlareClientAbr(FlarePlugin(-1, mpd.ladder))
        player = cell.add_video_flow(ue, mpd, placeholder, player_config,
                                     flow_id=flow_id)
        plugin = FlarePlugin(
            player.flow.flow_id, mpd.ladder,
            max_bitrate_bps=max_bitrate_bps, skimming=skimming)
        player.abr = FlareClientAbr(plugin)
        self.server.register_plugin(plugin)
        if obs.TRACER is not None:
            obs.TRACER.emit(
                obs_events.CLIENT_ATTACH, cell.now_s,
                flow=player.flow.flow_id,
                ue=ue.ue_id,
                ladder_kbps=[r / 1e3 for r in mpd.ladder.rates_bps],
                max_bitrate_bps=max_bitrate_bps,
                skimming=skimming,
            )
        return player

    def plugin_for(self, flow_id: int) -> FlarePlugin:
        """The plugin embedded in flow ``flow_id``'s player.

        Raises:
            KeyError: for flows this system's server does not serve
                (never attached, or handed over to another cell).
        """
        return self.server.plugin_for(flow_id)


class MultiCellOneApi:
    """One logical OneAPI server spanning several cells.

    Bitrates are computed independently per cell (paper Section II-A),
    so this is a registry of per-cell :class:`FlareSystem` instances
    sharing configuration.
    """

    def __init__(self, **flare_kwargs: Any) -> None:
        self._kwargs: dict[str, Any] = flare_kwargs
        self._systems: dict[int, FlareSystem] = {}

    def system_for(self, cell: Cell) -> FlareSystem:
        """The (lazily created and installed) FLARE system for a cell."""
        if cell.cell_id not in self._systems:
            system = FlareSystem(**self._kwargs)
            system.install(cell)
            self._systems[cell.cell_id] = system
        return self._systems[cell.cell_id]

    @property
    def cells(self) -> list[int]:
        """Cell ids currently managed."""
        return sorted(self._systems)
