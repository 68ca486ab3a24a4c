"""ABR algorithm interface.

Every rate-adaptation scheme — client-side (FESTIVE, GOOGLE), simple
baselines (rate-based, buffer-based), and the UE half of the
coordinated schemes (AVIS's UE controller, the FLARE plugin) — selects
the next segment's ladder index through this interface.  The player
builds an :class:`AbrContext` snapshot at each request; algorithms are
pure functions of that snapshot plus their own internal state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a circular import with repro.has.player
    from repro.has.mpd import BitrateLadder


@dataclass(frozen=True)
class AbrContext:
    """Everything a client-side algorithm may observe at request time.

    Attributes:
        now_s: simulation time.
        ladder: the video's bitrate ladder.
        segment_duration_s: segment length in seconds.
        segment_index: index of the segment about to be requested.
        buffer_level_s: seconds of video currently buffered.
        last_index: ladder index of the previously downloaded segment,
            or ``None`` for the first request.
        flow_id: the underlying flow's identifier (used by coordinated
            schemes to look up network-assigned rates).
    """

    now_s: float
    ladder: BitrateLadder
    segment_duration_s: float
    segment_index: int
    buffer_level_s: float
    last_index: int | None
    flow_id: int = -1


class AbrAlgorithm:
    """Base class for per-flow rate-adaptation algorithms."""

    #: Human-readable scheme name (used in tables and logs).
    name = "abr"

    def select_index(self, ctx: AbrContext) -> int:
        """Choose the ladder index for the next segment.

        Must return a valid index into ``ctx.ladder``.
        """
        raise NotImplementedError

    def on_segment_complete(self, ctx: AbrContext,
                            throughput_bps: float) -> None:
        """Hook: called after each completed download (optional)."""

    def reset(self) -> None:
        """Hook: drop all internal state (optional)."""


class ConstantAbr(AbrAlgorithm):
    """Always selects the same ladder index (test/debug baseline)."""

    name = "constant"

    def __init__(self, index: int = 0) -> None:
        if index < 0:
            raise ValueError(f"index must be >= 0, got {index}")
        self._index = index

    def select_index(self, ctx: AbrContext) -> int:
        return ctx.ladder.clamp_index(self._index)
