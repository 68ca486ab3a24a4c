"""Uplink streamer: glues a live encoder to a (video) flow.

The uplink direction reuses the downlink machinery wholesale — a
scheduled cell granting PRBs to backlogged flows — because LTE's
uplink scheduler is likewise an eNodeB-controlled per-TTI grant
allocator.  What changes is the application on top: instead of a
player *pulling* segments, the :class:`UplinkStreamer` *pushes* the
encoder's queued segments through its flow, oldest first.

FLARE's uplink variant then assigns each streamer's *encoding*
bitrate: the OneAPI server's optimization is unchanged (same utility,
same capacity constraint with uplink RB traces), and the plugin pin
now drives the encoder instead of the player.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.flows import VideoFlow
from repro.uplink.encoder import LiveEncoder, ProducedSegment
from repro.util import step_time

if TYPE_CHECKING:
    from repro.sim.cell import Cell


class UplinkStreamer:
    """Drives one live uplink video flow.

    Mirrors the downlink player's two-phase step contract:
    :meth:`issue_uploads` before MAC scheduling (fresh segments become
    flow backlog) and nothing after (no playback on the sender side).
    """

    def __init__(self, flow: VideoFlow, encoder: LiveEncoder) -> None:
        self.flow = flow
        self.encoder = encoder
        self._in_flight: ProducedSegment | None = None
        self._step_end_s = 0.0
        self._assigned_index: int | None = None

    # -- coordinated control ---------------------------------------------
    def set_assigned_index(self, ladder_index: int | None) -> None:
        """Pin the encoder to a network-assigned ladder index."""
        self._assigned_index = ladder_index
        if ladder_index is not None:
            self.encoder.set_ladder_index(ladder_index)

    # -- step phases -------------------------------------------------------
    def note_time(self, end_s: float) -> None:
        """Record the end of the step about to deliver (upload stamps)."""
        self._step_end_s = end_s

    def issue_uploads(self, now_s: float) -> None:
        """Produce due segments and keep the flow's upload going."""
        self.encoder.produce_due_segments(now_s)
        if self._in_flight is not None and self._in_flight.dropped:
            # The backlog policy evicted the segment we were sending:
            # abandon the transfer.
            self.flow.cancel_download()
            self._in_flight = None
        if self._in_flight is None and not self.flow.download_active:
            queued = self.encoder.queued_segments()
            if queued:
                segment = queued[0]
                self._in_flight = segment
                self.flow.begin_download(segment.size_bytes,
                                         self._on_uploaded)

    def _on_uploaded(self) -> None:
        segment = self._in_flight
        self._in_flight = None
        if segment is not None:
            segment.uploaded_at_s = self._step_end_s

    # -- stats --------------------------------------------------------------
    @property
    def in_flight(self) -> ProducedSegment | None:
        """The segment currently being uploaded (None when idle)."""
        return self._in_flight


class LocalUplinkAdapter:
    """Uncoordinated uplink rate adaptation (the client-side baseline).

    The encoder adjusts its own bitrate from observed upload
    throughput — the uplink analogue of a rate-based HAS player, and
    the fair baseline against FLARE's coordinated assignments.  The
    throughput estimate is the EWMA of completed uploads' goodput;
    the encoder targets ``safety x estimate`` so the backlog drains.
    """

    def __init__(self, streamer: UplinkStreamer, safety: float = 0.85,
                 smoothing: float = 0.3) -> None:
        from repro.util import Ewma, require_in_range
        require_in_range("safety", safety, 0.0, 1.0)
        self.streamer = streamer
        self.safety = safety
        self._estimate = Ewma(smoothing)
        self._observed_segments = 0

    def observe(self, now_s: float) -> None:
        """Fold newly completed uploads into the estimate and adapt."""
        uploaded = self.streamer.encoder.uploaded_segments()
        for segment in uploaded[self._observed_segments:]:
            duration = segment.uploaded_at_s - segment.produced_at_s
            if duration > 0:
                goodput = segment.size_bytes * 8.0 / duration
                self._estimate.update(goodput)
        self._observed_segments = len(uploaded)
        estimate = self._estimate.value
        if estimate is not None:
            ladder = self.streamer.encoder.ladder
            self.streamer.encoder.set_ladder_index(
                ladder.highest_at_most(self.safety * estimate))


class UplinkCellAdapter:
    """Runs uplink streamers inside a :class:`repro.sim.cell.Cell`.

    Registers as a step hook: before every MAC step it advances each
    streamer's production/upload pipeline.  (The cell's scheduler then
    grants PRBs to the streamers' flows exactly as it does downlink.)
    """

    def __init__(self) -> None:
        self._streamers: list[UplinkStreamer] = []

    def add(self, streamer: UplinkStreamer) -> None:
        """Track one streamer."""
        self._streamers.append(streamer)

    @property
    def streamers(self) -> list[UplinkStreamer]:
        """All tracked streamers."""
        return list(self._streamers)

    def install(self, cell: Cell) -> None:
        """Attach production to the cell's step loop.

        Uses a pre-step trick: the hook fires at the *end* of step N,
        producing segments that become backlog for step N+1 — a one-
        step (20 ms) production latency, negligible against the
        segment cadence.  An upload completing in step N+1 is stamped
        with that step's end, as a downlink segment is.
        """
        def prepare(now_s: float) -> None:
            end = step_time(cell._steps + 1, cell.config.step_s)
            for streamer in self._streamers:
                streamer.note_time(end)
                streamer.issue_uploads(now_s)

        prepare(cell.now_s)  # bootstrap at t = 0
        cell.add_step_hook(prepare)
