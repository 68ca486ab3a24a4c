"""HAS player state machine.

Models the client video player the paper instruments: it requests
segments over its :class:`~repro.net.flows.VideoFlow`, fills a playout
buffer, plays the video out, stalls when the buffer empties
(re-buffering), and consults a pluggable ABR algorithm for every
segment's bitrate.

The player splits its per-step work in two so the cell driver can
order it around MAC scheduling:

1. :meth:`issue_requests` *before* scheduling — a due request turns
   into flow backlog the scheduler can serve this step;
2. :meth:`advance_playback` *after* scheduling — playback drains the
   buffer that completed downloads may just have refilled.

Request/response latency (the HTTP GET round trip) is modelled as a
fixed delay between issuing a request and the payload becoming
schedulable, matching the femtocell testbed's observed ~RTT gap
between segment fetches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.abr.base import AbrAlgorithm, AbrContext
from repro.has.buffer import PlayoutBuffer
from repro.has.mpd import MediaPresentation
from repro.has.segments import SegmentLog, SegmentRecord
from repro.net.flows import VideoFlow
from repro.obs import events as obs_events
from repro.obs import prof
from repro.obs import tracer as obs
from repro.util import require_non_negative, require_positive


class PlaybackState(enum.Enum):
    """Playback lifecycle of the player."""

    STARTUP = "startup"        # never played yet, filling the buffer
    PLAYING = "playing"
    STALLED = "stalled"        # re-buffering after an underflow
    FINISHED = "finished"      # bounded video fully played


@dataclass(frozen=True)
class PlayerConfig:
    """Tunable player policy.

    Attributes:
        startup_threshold_s: buffered seconds required before playback
            first starts (``None``: one segment duration).
        resume_threshold_s: buffered seconds required to resume after a
            stall (``None``: one segment duration).
        request_threshold_s: the player requests the next segment only
            while fewer than this many seconds are buffered — the knob
            the paper turns for GOOGLE (15 s static, 40 s dynamic).
        request_latency_s: HTTP GET round-trip before payload bytes
            start flowing.
        buffer_capacity_s: hard cap of the playout buffer.
        start_time_s: when this player begins operating.
        abandonment_factor: when set, an in-flight download whose
            predicted remaining transfer time exceeds ``factor x
            buffer_level`` is abandoned and re-requested at the lowest
            rung (the BOLA-style emergency downswitch real players
            implement).  ``None`` disables abandonment (the default:
            none of the paper's players abandon).
    """

    startup_threshold_s: float | None = None
    resume_threshold_s: float | None = None
    request_threshold_s: float = 30.0
    request_latency_s: float = 0.08
    buffer_capacity_s: float = 240.0
    start_time_s: float = 0.0
    abandonment_factor: float | None = None

    def __post_init__(self) -> None:
        require_positive("request_threshold_s", self.request_threshold_s)
        require_non_negative("request_latency_s", self.request_latency_s)
        require_positive("buffer_capacity_s", self.buffer_capacity_s)
        require_non_negative("start_time_s", self.start_time_s)
        if self.abandonment_factor is not None:
            require_positive("abandonment_factor", self.abandonment_factor)


@dataclass
class _PendingRequest:
    """A request issued but whose payload has not started flowing."""

    segment_index: int
    ladder_index: int
    bitrate_bps: float
    size_bytes: float
    request_time_s: float
    payload_starts_at_s: float


class HasPlayer:
    """One HAS client: flow + buffer + ABR + playback state machine."""

    def __init__(
        self,
        flow: VideoFlow,
        mpd: MediaPresentation,
        abr: AbrAlgorithm,
        config: PlayerConfig | None = None,
    ) -> None:
        self.flow = flow
        self.mpd = mpd
        self.abr = abr
        self.config = config if config is not None else PlayerConfig()
        self.buffer = PlayoutBuffer(self.config.buffer_capacity_s)
        self.log = SegmentLog()
        self.state = PlaybackState.STARTUP
        self._next_segment_index = 0
        self._pending: _PendingRequest | None = None
        self._active: _PendingRequest | None = None
        self._payload_start_s = 0.0
        self._step_end_s = 0.0
        self._startup_delay_s: float | None = None
        self._stall_events = 0
        self._rebuffer_s = 0.0
        self._abandonments = 0
        self._abr_override_index: int | None = None

    # ------------------------------------------------------------------
    # Derived thresholds
    # ------------------------------------------------------------------
    @property
    def startup_threshold_s(self) -> float:
        """Effective startup threshold (defaults to one segment)."""
        if self.config.startup_threshold_s is not None:
            return self.config.startup_threshold_s
        return self.mpd.segment_duration_s

    @property
    def resume_threshold_s(self) -> float:
        """Effective stall-resume threshold (defaults to one segment)."""
        if self.config.resume_threshold_s is not None:
            return self.config.resume_threshold_s
        return self.mpd.segment_duration_s

    # ------------------------------------------------------------------
    # Observable state
    # ------------------------------------------------------------------
    @property
    def startup_delay_s(self) -> float | None:
        """Time from player start to first played frame (None: not yet)."""
        return self._startup_delay_s

    @property
    def stall_events(self) -> int:
        """Number of distinct re-buffering events after startup."""
        return self._stall_events

    @property
    def rebuffer_time_s(self) -> float:
        """Total seconds spent stalled after playback first started."""
        return self._rebuffer_s

    @property
    def abandonments(self) -> int:
        """Downloads abandoned for an emergency downswitch."""
        return self._abandonments

    @property
    def finished(self) -> bool:
        """True once a bounded video has fully played out."""
        return self.state is PlaybackState.FINISHED

    def current_ladder_index(self) -> int | None:
        """Ladder index of the most recently *requested* segment."""
        if self._active is not None:
            return self._active.ladder_index
        if self._pending is not None:
            return self._pending.ladder_index
        last_bitrate = self.log.last_bitrate()
        if last_bitrate is not None:
            return self.mpd.ladder.highest_at_most(last_bitrate)
        return None

    # ------------------------------------------------------------------
    # Coordinated-scheme hook
    # ------------------------------------------------------------------
    def set_assigned_index(self, ladder_index: int | None) -> None:
        """Pin the next selections to a network-assigned ladder index.

        Used by the FLARE plugin: the player will request exactly this
        index until reassigned.  ``None`` clears the override.
        """
        if ladder_index is not None:
            ladder_index = self.mpd.ladder.clamp_index(ladder_index)
        self._abr_override_index = ladder_index

    def seek(self, target_segment_index: int) -> None:
        """User seek: flush the buffer and jump to another segment.

        Models the forward/backward skimming behaviour the FLARE
        plugin's ``skimming`` hint describes (Section II-B): buffered
        video is discarded, any in-flight or pending request is
        abandoned, and the next request fetches the target segment.
        Playback re-enters startup buffering.

        Raises:
            ValueError: for a negative target or one beyond a bounded
                video's end.
        """
        if not self.mpd.has_segment(target_segment_index):
            raise ValueError(
                f"segment {target_segment_index} does not exist")
        if self.flow.download_active:
            self.flow.cancel_download()
        self._active = None
        self._pending = None
        self.buffer.flush()
        self._next_segment_index = target_segment_index
        if self.state is not PlaybackState.FINISHED:
            self.state = PlaybackState.STARTUP

    def note_time(self, now_s: float) -> None:
        """Inform the player of the current step's end time.

        The cell driver calls this before delivering MAC bytes so that
        completion records carry the correct finish timestamp (the
        completion callback fires *during* delivery, between this call
        and :meth:`advance_playback`).
        """
        self._step_end_s = now_s

    # ------------------------------------------------------------------
    # Step phase 1: request issuing (before MAC scheduling)
    # ------------------------------------------------------------------
    def issue_requests(self, now_s: float) -> None:
        """Issue/activate segment requests that are due at ``now_s``."""
        if self.state is PlaybackState.FINISHED:
            return
        if now_s < self.config.start_time_s:
            return
        self._maybe_abandon(now_s)
        # Activate a pending request whose latency has elapsed.
        if (self._pending is not None
                and now_s >= self._pending.payload_starts_at_s):
            pending = self._pending
            self._pending = None
            self._active = pending
            self._payload_start_s = now_s
            self.flow.begin_download(pending.size_bytes, self._on_complete)
        # Issue a new request if the pipeline is idle and buffer is low.
        if self._pending is None and self._active is None:
            self._maybe_request(now_s)

    def _maybe_abandon(self, now_s: float) -> None:
        """Emergency downswitch of a doomed in-flight download."""
        factor = self.config.abandonment_factor
        if (factor is None or self._active is None
                or self._active.ladder_index == 0
                or self.state is not PlaybackState.PLAYING):
            return
        elapsed = now_s - self._payload_start_s
        if elapsed < 0.25:  # too early for a meaningful rate estimate
            return
        received = self._active.size_bytes - self.flow.remaining_bytes
        if received <= 0:
            return
        rate = received / elapsed
        remaining_time = self.flow.remaining_bytes / rate
        if remaining_time > factor * max(self.buffer.level_s, 0.25):
            segment_index = self._active.segment_index
            if obs.TRACER is not None:
                obs.TRACER.emit(
                    obs_events.SEG_ABANDON, now_s,
                    flow=self.flow.flow_id,
                    segment=segment_index,
                    index=self._active.ladder_index,
                    buffer_s=self.buffer.level_s,
                )
            self.flow.cancel_download()
            self._active = None
            self._abandonments += 1
            # Re-request the same segment at the lowest rung.
            bitrate = self.mpd.ladder.rate(0)
            self._pending = _PendingRequest(
                segment_index=segment_index,
                ladder_index=0,
                bitrate_bps=bitrate,
                size_bytes=self.mpd.segment_size_bytes(bitrate,
                                                       segment_index),
                request_time_s=now_s,
                payload_starts_at_s=now_s + self.config.request_latency_s,
            )

    def _maybe_request(self, now_s: float) -> None:
        if not self.mpd.has_segment(self._next_segment_index):
            return
        if self.buffer.level_s >= self.config.request_threshold_s:
            return
        ladder_index = self._select_index(now_s)
        bitrate = self.mpd.ladder.rate(ladder_index)
        self._pending = _PendingRequest(
            segment_index=self._next_segment_index,
            ladder_index=ladder_index,
            bitrate_bps=bitrate,
            size_bytes=self.mpd.segment_size_bytes(
                bitrate, self._next_segment_index),
            request_time_s=now_s,
            payload_starts_at_s=now_s + self.config.request_latency_s,
        )
        if obs.TRACER is not None:
            obs.TRACER.emit(
                obs_events.SEG_REQUEST, now_s,
                flow=self.flow.flow_id,
                segment=self._pending.segment_index,
                index=ladder_index,
                bitrate_bps=bitrate,
                size_bytes=self._pending.size_bytes,
                buffer_s=self.buffer.level_s,
                state=self.state.value,
            )
        self._next_segment_index += 1

    def _select_index(self, now_s: float) -> int:
        if self._abr_override_index is not None:
            return self._abr_override_index
        ctx = self._build_context(now_s)
        index = self.abr.select_index(ctx)
        return self.mpd.ladder.clamp_index(index)

    def _build_context(self, now_s: float) -> AbrContext:
        last_index: int | None = None
        last_bitrate = self.log.last_bitrate()
        if last_bitrate is not None:
            last_index = self.mpd.ladder.highest_at_most(last_bitrate)
        return AbrContext(
            now_s=now_s,
            ladder=self.mpd.ladder,
            segment_duration_s=self.mpd.segment_duration_s,
            segment_index=self._next_segment_index,
            buffer_level_s=self.buffer.level_s,
            last_index=last_index,
            flow_id=self.flow.flow_id,
        )

    # ------------------------------------------------------------------
    # Download completion (fires during MAC delivery)
    # ------------------------------------------------------------------
    def _on_complete(self) -> None:
        active = self._active
        if active is None:
            return
        profiler = prof.PROFILER
        if profiler is None:
            self._complete_segment(active)
            return
        with profiler.span("has.seg_done"):
            self._complete_segment(active)

    def _complete_segment(self, active: _PendingRequest) -> None:
        self._active = None
        record = SegmentRecord(
            index=active.segment_index,
            bitrate_bps=active.bitrate_bps,
            size_bytes=active.size_bytes,
            request_time_s=active.request_time_s,
            start_time_s=self._payload_start_s,
            finish_time_s=self._step_end_s,
        )
        self.log.append(record)
        self.buffer.add(self.mpd.segment_duration_s)
        if obs.TRACER is not None:
            obs.TRACER.emit(
                obs_events.SEG_DONE, self._step_end_s,
                flow=self.flow.flow_id,
                segment=record.index,
                bitrate_bps=record.bitrate_bps,
                throughput_bps=record.throughput_bps,
                buffer_s=self.buffer.level_s,
                stalls=self._stall_events,
                state=self.state.value,
            )
        self.abr.on_segment_complete(
            self._build_context(self._step_end_s), record.throughput_bps)

    # ------------------------------------------------------------------
    # Step phase 2: playback (after MAC scheduling)
    # ------------------------------------------------------------------
    def advance_playback(self, now_s: float, step_s: float) -> None:
        """Advance the playback clock by one step ending at ``now_s``."""
        self._step_end_s = now_s
        if self.state is PlaybackState.FINISHED:
            return
        if now_s < self.config.start_time_s:
            return
        if self.state is PlaybackState.STARTUP:
            if self.buffer.level_s >= self.startup_threshold_s:
                self.state = PlaybackState.PLAYING
                self._startup_delay_s = now_s - self.config.start_time_s
        elif self.state is PlaybackState.STALLED:
            if self.buffer.level_s >= self.resume_threshold_s:
                self.state = PlaybackState.PLAYING
            else:
                self._rebuffer_s += step_s
        if self.state is PlaybackState.PLAYING:
            result = self.buffer.drain(step_s)
            if result.starved_s > 0:
                if self._video_exhausted():
                    self.state = PlaybackState.FINISHED
                else:
                    self.state = PlaybackState.STALLED
                    self._stall_events += 1
                    self._rebuffer_s += result.starved_s

    def _video_exhausted(self) -> bool:
        """True when every segment of a bounded video was downloaded."""
        count = self.mpd.num_segments
        if count is None:
            return False
        return (self._next_segment_index >= count
                and self._active is None and self._pending is None)
