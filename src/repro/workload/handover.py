"""Inter-cell handover of HAS clients.

The paper's architecture computes bitrates independently per cell, so
a UE that hands over between eNodeBs must (1) detach its flow from the
source cell's MAC/PCRF, (2) attach it to the target cell, and (3) move
its FLARE plugin registration to the target cell's per-cell optimizer
state (the source cell's Algorithm 1 forgets it; the target's starts
it fresh at its current level — the standard conservative choice after
a handover, since the new cell has no RB history for the flow yet).

The *player* object survives the handover untouched: buffered video,
playback state and segment history carry over, exactly as a real HAS
player would keep playing across a handover.

:meth:`HandoverManager.migrate` executes a whole handover in-process.
For the sharded multi-cell network (:mod:`repro.sim.network`) the two
halves run in *different processes*, so they are exposed separately:
:meth:`HandoverManager.detach` runs on the source shard and yields the
``(player, plugin)`` pair to ship (one pickle keeps the plugin embedded
in the player's ABR and the shipped plugin the same object), and
:meth:`HandoverManager.attach` runs on the target shard.  Client-side
schemes (FESTIVE, ...) have no plugin; pass ``None`` systems and the
OneAPI registration steps are skipped.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.controller import FlareSystem
from repro.core.plugin import FlarePlugin
from repro.has.player import HasPlayer
from repro.sim.cell import Cell
from repro.util import cross_shard_message

#: Wire layout of one :class:`HandoverRecord`: time (float64) and the
#: three ids (int64), little-endian, 32 bytes total.
_RECORD_STRUCT = struct.Struct("<dqqq")


@cross_shard_message
@dataclass(frozen=True)
class HandoverRecord:
    """Audit entry of one executed handover.

    Records cross the ShardPool pipe when the parent collects each
    shard's audit trail at epoch boundaries, so the class carries the
    flarelint FL010 blob contract: a fixed 32-byte struct layout
    instead of object pickling.
    """

    time_s: float
    flow_id: int
    source_cell_id: int
    target_cell_id: int

    def to_blob(self) -> bytes:
        """Serialize to the fixed 32-byte wire layout."""
        return _RECORD_STRUCT.pack(self.time_s, self.flow_id,
                                   self.source_cell_id,
                                   self.target_cell_id)

    @classmethod
    def from_blob(cls, blob: bytes) -> HandoverRecord:
        """Reconstruct from :meth:`to_blob` output."""
        time_s, flow_id, source, target = _RECORD_STRUCT.unpack(blob)
        return cls(time_s=time_s, flow_id=flow_id,
                   source_cell_id=source, target_cell_id=target)


class HandoverManager:
    """Executes and audits HAS-client handovers between cells."""

    def __init__(self) -> None:
        self._records: list[HandoverRecord] = []

    @property
    def records(self) -> list[HandoverRecord]:
        """Executed handovers, oldest first."""
        return list(self._records)

    def record(self, time_s: float, flow_id: int, source_cell_id: int,
               target_cell_id: int) -> HandoverRecord:
        """Append one audit entry (the sharded network's attach side
        calls this with the epoch-boundary time the parent planned)."""
        entry = HandoverRecord(time_s=time_s, flow_id=flow_id,
                               source_cell_id=source_cell_id,
                               target_cell_id=target_cell_id)
        self._records.append(entry)
        return entry

    def detach(self, player: HasPlayer, source: Cell,
               source_system: FlareSystem | None = None
               ) -> FlarePlugin | None:
        """X2 departure: remove ``player`` from ``source``.

        Drops the MAC bearer, PCRF session and player-table entries,
        and deregisters the FLARE plugin from the source cell's OneAPI
        state when ``source_system`` is given.  Returns the plugin so
        the attach side can re-register it (``None`` for client-side
        schemes).

        Raises:
            KeyError: if the player's flow is not attached to
                ``source`` (or has no plugin in ``source_system``).
        """
        flow = player.flow
        if flow.flow_id not in source.players:
            raise KeyError(f"flow {flow.flow_id} is not in cell "
                           f"{source.cell_id}")
        plugin: FlarePlugin | None = None
        if source_system is not None:
            plugin = source_system.plugin_for(flow.flow_id)
        source.remove_flow(flow.flow_id)
        if source_system is not None:
            source_system.server.deregister_plugin(flow.flow_id)
        return plugin

    def attach(self, player: HasPlayer, plugin: FlarePlugin | None,
               target: Cell, target_system: FlareSystem | None = None
               ) -> None:
        """X2 arrival: adopt ``player`` (and its plugin) into ``target``.

        The existing flow and player are attached as-is; when a plugin
        travelled with the player it is re-registered with the target
        cell's OneAPI state (the "client sends its ladder" message the
        paper describes replaying after handover).
        """
        target.adopt_video_flow(player)
        if plugin is not None and target_system is not None:
            target_system.server.register_plugin(plugin)

    def migrate(self, player: HasPlayer, source: Cell,
                source_system: FlareSystem | None, target: Cell,
                target_system: FlareSystem | None) -> None:
        """Move ``player`` from ``source`` to ``target`` mid-run.

        Raises:
            KeyError: if the player's flow is not attached to
                ``source`` (or has no plugin in ``source_system``).
        """
        plugin = self.detach(player, source, source_system)
        self.attach(player, plugin, target, target_system)
        self.record(source.now_s, player.flow.flow_id,
                    source.cell_id, target.cell_id)
