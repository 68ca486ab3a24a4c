"""Tests for the HAS player state machine.

These drive the player exactly as the cell does: issue_requests,
deliver MAC bytes into the flow, advance playback — with a controllable
delivery rate so startup, stalls, resume and completion can be forced.
"""


from repro.abr.base import ConstantAbr
from repro.has.mpd import SIMULATION_LADDER, MediaPresentation
from repro.has.player import HasPlayer, PlaybackState, PlayerConfig
from repro.net.flows import UserEquipment, VideoFlow
from repro.net.tcp import FluidTcp
from repro.phy.channel import StaticItbsChannel


def make_player(rate_index=0, segment_s=4.0, total_duration_s=None,
                **config_kwargs):
    ue = UserEquipment(StaticItbsChannel(9))
    flow = VideoFlow(ue, tcp=FluidTcp(initial_cwnd_bytes=1e12,
                                      max_cwnd_bytes=1e13))
    mpd = MediaPresentation(SIMULATION_LADDER, segment_duration_s=segment_s,
                            total_duration_s=total_duration_s)
    config_kwargs.setdefault("request_latency_s", 0.0)
    config = PlayerConfig(**config_kwargs)
    return HasPlayer(flow, mpd, ConstantAbr(rate_index), config)


def run(player, duration_s, rate_bps, step_s=0.1, start_s=0.0):
    """Advance the player delivering up to ``rate_bps`` to its flow."""
    t = start_s
    steps = int(round(duration_s / step_s))
    for _ in range(steps):
        player.issue_requests(t)
        player.note_time(t + step_s)
        wanted = player.flow.demand_bytes(step_s)
        offered = rate_bps * step_s / 8.0
        delivered = min(wanted, offered)
        player.flow.on_scheduled(delivered, step_s)
        t += step_s
        player.advance_playback(t, step_s)
    return t


class TestStartup:
    def test_starts_after_one_segment_by_default(self):
        player = make_player()
        run(player, 10.0, rate_bps=2e6)
        assert player.state is PlaybackState.PLAYING
        assert player.startup_delay_s is not None
        assert player.startup_delay_s > 0.0

    def test_no_playback_without_bandwidth(self):
        player = make_player()
        run(player, 10.0, rate_bps=0.0)
        assert player.state is PlaybackState.STARTUP
        assert player.startup_delay_s is None

    def test_start_time_honoured(self):
        player = make_player(start_time_s=5.0)
        run(player, 4.0, rate_bps=2e6)
        assert len(player.log) == 0  # not started yet
        run(player, 10.0, rate_bps=2e6, start_s=4.0)
        assert len(player.log) > 0


class TestSteadyState:
    def test_downloads_track_playback(self):
        player = make_player(rate_index=0, segment_s=4.0)
        run(player, 120.0, rate_bps=2e6)
        # 100 kbps video over ample bandwidth: no stalls, buffer held
        # near the request threshold.
        assert player.stall_events == 0
        assert player.rebuffer_time_s == 0.0
        assert player.buffer.level_s <= player.config.request_threshold_s + 4.0

    def test_request_threshold_paces_requests(self):
        player = make_player(rate_index=0, segment_s=4.0,
                             request_threshold_s=8.0)
        run(player, 120.0, rate_bps=10e6)
        # Buffer can never exceed threshold + one segment.
        assert player.buffer.level_s <= 12.0 + 1e-6

    def test_segment_records_have_positive_throughput(self):
        player = make_player()
        run(player, 60.0, rate_bps=2e6)
        for record in player.log.records:
            assert record.throughput_bps > 0


class TestStallAndResume:
    def test_stall_when_bandwidth_collapses(self):
        # 2 Mbps representation (index 4) over a 0.5 Mbps link.
        player = make_player(rate_index=4, segment_s=4.0,
                             startup_threshold_s=4.0)
        run(player, 30.0, rate_bps=20e6)   # fill up fast
        assert player.state is PlaybackState.PLAYING
        run(player, 120.0, rate_bps=0.5e6, start_s=30.0)
        assert player.stall_events >= 1
        assert player.rebuffer_time_s > 0.0

    def test_resume_after_recovery(self):
        player = make_player(rate_index=4, segment_s=4.0,
                             startup_threshold_s=4.0,
                             resume_threshold_s=4.0)
        run(player, 20.0, rate_bps=20e6)
        run(player, 60.0, rate_bps=0.1e6, start_s=20.0)
        assert player.state is PlaybackState.STALLED
        stalled_time = player.rebuffer_time_s
        run(player, 60.0, rate_bps=20e6, start_s=80.0)
        assert player.state is PlaybackState.PLAYING
        # No further rebuffering accrues while playing with bandwidth.
        later = player.rebuffer_time_s
        assert later >= stalled_time


class TestBoundedVideo:
    def test_finishes(self):
        player = make_player(rate_index=0, segment_s=4.0,
                             total_duration_s=20.0)
        run(player, 60.0, rate_bps=5e6)
        assert player.finished
        assert len(player.log) == 5  # 20 s / 4 s segments

    def test_no_requests_after_finish(self):
        player = make_player(rate_index=0, segment_s=4.0,
                             total_duration_s=8.0)
        run(player, 60.0, rate_bps=5e6)
        downloads = len(player.log)
        run(player, 20.0, rate_bps=5e6, start_s=60.0)
        assert len(player.log) == downloads


class TestAssignmentOverride:
    def test_override_pins_selection(self):
        player = make_player(rate_index=0)
        player.set_assigned_index(3)
        run(player, 30.0, rate_bps=20e6)
        assert set(player.log.bitrates()) == {SIMULATION_LADDER.rate(3)}

    def test_clear_override_returns_to_abr(self):
        player = make_player(rate_index=1)
        player.set_assigned_index(3)
        run(player, 20.0, rate_bps=20e6)
        player.set_assigned_index(None)
        run(player, 20.0, rate_bps=20e6, start_s=20.0)
        assert SIMULATION_LADDER.rate(1) in player.log.bitrates()

    def test_override_clamped_to_ladder(self):
        player = make_player()
        player.set_assigned_index(99)
        run(player, 20.0, rate_bps=30e6)
        assert max(player.log.bitrates()) == SIMULATION_LADDER.max_rate


class TestRequestLatency:
    def test_latency_delays_payload(self):
        player = make_player(request_latency_s=1.0)
        run(player, 0.5, rate_bps=10e6)
        assert player.flow.backlog_bytes() == 0.0  # still pending
        run(player, 2.0, rate_bps=10e6, start_s=0.5)
        assert len(player.log) >= 1
