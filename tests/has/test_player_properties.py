"""Property-based tests of the player state machine.

Hypothesis drives the player with arbitrary delivery-rate schedules;
the conservation and sanity invariants below must hold for every one
of them — they are the properties the QoE metrics depend on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.base import ConstantAbr
from repro.has.mpd import SIMULATION_LADDER, MediaPresentation
from repro.has.player import HasPlayer, PlaybackState, PlayerConfig
from repro.net.flows import UserEquipment, VideoFlow
from repro.net.tcp import FluidTcp
from repro.phy.channel import StaticItbsChannel

rate_schedules = st.lists(
    st.floats(min_value=0.0, max_value=30e6),  # bps per 2-second phase
    min_size=2, max_size=20,
)


def drive(player, schedule, step_s=0.25, phase_s=2.0, after_step=None):
    t = 0.0
    for rate_bps in schedule:
        steps = int(phase_s / step_s)
        for _ in range(steps):
            player.issue_requests(t)
            player.note_time(t + step_s)
            wanted = player.flow.demand_bytes(step_s)
            offered = rate_bps * step_s / 8.0
            player.flow.on_scheduled(min(wanted, offered), step_s)
            t += step_s
            player.advance_playback(t, step_s)
            if after_step is not None:
                after_step(player)
    return t


def make_player(rate_index=2, segment_s=4.0):
    flow = VideoFlow(UserEquipment(StaticItbsChannel(9)),
                     tcp=FluidTcp(initial_cwnd_bytes=1e12,
                                  max_cwnd_bytes=1e13))
    mpd = MediaPresentation(SIMULATION_LADDER,
                            segment_duration_s=segment_s)
    return HasPlayer(flow, mpd, ConstantAbr(rate_index),
                     PlayerConfig(request_latency_s=0.0,
                                  request_threshold_s=12.0))


class TestPlayerInvariants:
    @given(rate_schedules)
    @settings(max_examples=40, deadline=None)
    def test_video_conservation(self, schedule):
        """downloaded seconds == buffered + played (nothing invented)."""
        player = make_player()
        drive(player, schedule)
        downloaded_s = len(player.log) * player.mpd.segment_duration_s
        accounted = player.buffer.level_s + player.buffer.total_played_s
        assert accounted == pytest.approx(downloaded_s, abs=1e-6)

    @given(rate_schedules)
    @settings(max_examples=40, deadline=None)
    def test_buffer_never_negative_nor_above_cap(self, schedule):
        player = make_player()
        levels = []
        drive(player, schedule,
              after_step=lambda p: levels.append(p.buffer.level_s))
        assert len(levels) == 8 * len(schedule)  # 8 steps per phase
        for level in levels:
            assert level >= -1e-9
            assert level <= player.config.buffer_capacity_s + 1e-9

    @given(rate_schedules)
    @settings(max_examples=40, deadline=None)
    def test_segment_indices_sequential(self, schedule):
        """No segment skipped, duplicated, or reordered."""
        player = make_player()
        drive(player, schedule)
        indices = [record.index for record in player.log.records]
        assert indices == list(range(len(indices)))

    @given(rate_schedules)
    @settings(max_examples=40, deadline=None)
    def test_timestamps_consistent(self, schedule):
        player = make_player()
        drive(player, schedule)
        for record in player.log.records:
            assert record.request_time_s <= record.start_time_s + 1e-9
            assert record.start_time_s <= record.finish_time_s + 1e-9

    @given(rate_schedules)
    @settings(max_examples=40, deadline=None)
    def test_rebuffer_time_bounded_by_wallclock(self, schedule):
        player = make_player()
        elapsed = drive(player, schedule)
        assert 0.0 <= player.rebuffer_time_s <= elapsed + 1e-6

    @given(rate_schedules, st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_all_segments_at_selected_bitrate(self, schedule, index):
        player = make_player(rate_index=index)
        drive(player, schedule)
        expected = SIMULATION_LADDER.rate(index)
        assert all(record.bitrate_bps == expected
                   for record in player.log.records)

    @given(rate_schedules)
    @settings(max_examples=30, deadline=None)
    def test_state_is_always_valid(self, schedule):
        player = make_player()
        drive(player, schedule)
        assert player.state in (PlaybackState.STARTUP,
                                PlaybackState.PLAYING,
                                PlaybackState.STALLED)
