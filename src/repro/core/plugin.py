"""The FLARE UE plugin.

The plugin is the light-weight client-side half of FLARE (the paper
implements it as a Javascript file embedded in the HAS player).  Its
responsibilities, reproduced here:

* after MPD parsing, send the video's *bitrate ladder* to the OneAPI
  server, stripped of anything that could identify the video (privacy
  by minimisation — the server sees rates, never URLs or titles);
* optionally disclose client preferences: a bitrate cap (e.g. to limit
  mobile data cost or match a small buffer) or a "skimming" hint (the
  user is seeking around, so the minimum rate suffices);
* receive the per-BAI bitrate assignment and make the player request
  exactly that representation — the enforcement half that removes the
  client/network mis-coordination AVIS suffers from.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.has.mpd import BitrateLadder
from repro.util import require_positive


@dataclass(frozen=True)
class ClientInfo:
    """What the plugin discloses to the OneAPI server.

    Deliberately minimal: the ladder plus *optional* self-chosen
    constraints.  No video identity, no clickstream, no buffer state
    unless the client opts in via ``max_bitrate_bps``/``skimming``.

    Attributes:
        flow_id: the video flow this information describes.
        ladder_rates_bps: the available representation bitrates.
        max_bitrate_bps: optional client-side cap (data cost, device
            limits, small buffer) — footnote 1 / Section II-B.
        skimming: client hint that the user is skimming the video, so
            the minimum bitrate should be assigned.
    """

    flow_id: int
    ladder_rates_bps: tuple[float, ...]
    max_bitrate_bps: float | None = None
    skimming: bool = False

    def max_index(self, ladder: BitrateLadder) -> int:
        """Highest ladder index consistent with the disclosed hints."""
        return _hinted_max_index(ladder, self.max_bitrate_bps, self.skimming)


def _hinted_max_index(ladder: BitrateLadder, max_bitrate_bps: float | None,
                      skimming: bool) -> int:
    """Highest index of ``ladder`` that a cap and a skimming hint allow."""
    if skimming:
        return 0
    if max_bitrate_bps is None:
        return len(ladder) - 1
    return ladder.highest_at_most(max_bitrate_bps)


class FlarePlugin:
    """Per-UE plugin state: disclosed info plus the current assignment."""

    def __init__(self, flow_id: int, ladder: BitrateLadder,
                 max_bitrate_bps: float | None = None,
                 skimming: bool = False) -> None:
        if max_bitrate_bps is not None:
            require_positive("max_bitrate_bps", max_bitrate_bps)
        self.flow_id = flow_id
        self.ladder = ladder
        self._max_bitrate_bps = max_bitrate_bps
        self._skimming = skimming
        self._assigned_index: int | None = None

    # -- uplink: client -> OneAPI server --------------------------------
    def client_info(self) -> ClientInfo:
        """The (privacy-minimised) message sent to the OneAPI server."""
        return ClientInfo(
            flow_id=self.flow_id,
            ladder_rates_bps=self.ladder.rates_bps,
            max_bitrate_bps=self._max_bitrate_bps,
            skimming=self._skimming,
        )

    def max_index(self) -> int:
        """Highest ladder index the client's hints allow.

        What ``client_info().max_index(ladder)`` reports, without
        building the message: the OneAPI server reads it every BAI.
        """
        return _hinted_max_index(self.ladder, self._max_bitrate_bps,
                                 self._skimming)

    def set_max_bitrate(self, max_bitrate_bps: float | None) -> None:
        """Update the client-side bitrate cap at the user's discretion."""
        if max_bitrate_bps is not None:
            require_positive("max_bitrate_bps", max_bitrate_bps)
        self._max_bitrate_bps = max_bitrate_bps

    def set_skimming(self, skimming: bool) -> None:
        """Update the skimming hint (frequent forward/backward seeks)."""
        self._skimming = bool(skimming)

    # -- downlink: OneAPI server -> client -------------------------------
    def assign(self, ladder_index: int) -> None:
        """Receive a bitrate assignment from the OneAPI server."""
        self._assigned_index = self.ladder.clamp_index(ladder_index)

    @property
    def assigned_index(self) -> int | None:
        """The currently assigned ladder index (None before first BAI)."""
        return self._assigned_index
