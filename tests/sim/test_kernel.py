"""Differential tests for the vectorized TTI kernel.

The kernel's contract is *byte-identical* serialized ``CellReport``s
against the pure-object path — not approximate agreement.  The matrix
here runs coordinated (FLARE, AVIS) and client-side (FESTIVE) schemes
across seeds against the object path with the invariant sanitizer
armed; any drift in a mirrored quantity (TCP windows, PF averages, RB
trace, delivered totals, playback) shows up as a serialization or
ledger diff.  An armed sanitizer or tracer makes the kernel
decline, so the kernel side runs unarmed and proves it took fast steps.

Idle stretches get targeted scenarios: the kernel strides over the
steps of a client that starts late, and controller deadlines, player
starts, fading-bucket edges and the run end still land on the object
path's clock values.  The
per-TTI reference scheduler pins two properties: the kernel refuses
cells it cannot mirror, and the fluid path it accelerates stays within
the reference discipline's agreement envelope.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import check as chk
from repro.core.controller import FlareSystem
from repro.has.mpd import TESTBED_LADDER, MediaPresentation
from repro.has.player import PlayerConfig
from repro.abr.festive import Festive
from repro.mac.tti_reference import TtiReferenceScheduler
from repro.metrics.collector import MetricsSampler, collect_cell_report
from repro.metrics.serialize import dump_cell_report
from repro.net.flows import UserEquipment, reset_entity_ids
from repro.obs.tracer import tracing
from repro.phy.channel import OutageChannel, StaticItbsChannel
from repro.sim import Cell, CellConfig
from repro.sim.kernel import TtiKernel
from repro.sim.network import PenaltyMap
from repro.workload.metro import build_metro_cell, build_metro_plan
from repro.workload.multicell import build_multicell_scenario
from repro.workload.scenarios import (
    ALL_SCHEMES,
    build_cell_scenario,
    build_testbed_scenario,
)


def _testbed_run(scheme: str, seed: int, **kwargs):
    """One 30 s testbed run: the scenario and its report dump."""
    scenario = build_testbed_scenario(scheme, seed=seed,
                                      duration_s=30.0, **kwargs)
    return scenario, dump_cell_report(scenario.run())


def _mobile_run(scheme: str, seed: int):
    """One 60 s mobile-UE cell (Figure 7's setup) and its report dump."""
    scenario = build_cell_scenario(scheme, mobile=True, seed=seed,
                                   duration_s=60.0)
    return scenario, dump_cell_report(scenario.run())


def ledgers(sampler, players):
    """The sampler's series and every player's records and totals.

    Playback state the reports summarise away (a drain the kernel
    replays one step short, say) still shows in the sampled buffer
    levels and the final buffer, played and rebuffer times.
    """
    series = [{flow_id: table[flow_id].items() for flow_id in sorted(table)}
              for table in (sampler.buffer_s, sampler.bitrate_bps,
                            sampler.throughput_bps)]
    per_player = [(player.log.records, player.buffer.level_s,
                   player.buffer.total_played_s, player.rebuffer_time_s)
                  for player in players]
    return series, per_player


class TestDifferentialMatrix:
    """FLARE/FESTIVE/AVIS x seeds: fast step vs sanitized object path."""

    def _compare(self, scheme, seed, runner=_testbed_run, **kwargs):
        with chk.checked_run():
            ref, slow = runner(scheme, seed, **kwargs)
        run, fast = runner(scheme, seed, **kwargs)
        assert run.cell._kernel._fast_steps > 0
        assert fast == slow
        assert (ledgers(run.sampler, run.players)
                == ledgers(ref.sampler, ref.players))

    @pytest.mark.parametrize("scheme", ["flare", "festive", "avis"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_byte_identical_reports(self, scheme, seed):
        self._compare(scheme, seed)

    def test_dynamic_channel_byte_identical(self):
        self._compare("flare", 1, dynamic=True)

    @pytest.mark.parametrize("scheme", ["flare", "festive", "avis"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mobile_channel_byte_identical(self, scheme, seed):
        # The fused step queries a channel only while its flow is
        # backlogged; a mobile UE's channel must answer the same anyway.
        self._compare(scheme, seed, runner=_mobile_run)


# ----------------------------------------------------------------------
# Idle stretches and their edges
# ----------------------------------------------------------------------
def idle_start_cell(start_time_s: float, sampler_interval_s: float,
                    flare: bool = False):
    """One static-channel video client that starts in the future.

    Until ``start_time_s`` no flow is backlogged; the sampler's
    deadlines (and FLARE's BAI controller when ``flare``) still fire
    during the idle stretch.
    """
    reset_entity_ids()
    mpd = MediaPresentation(ladder=TESTBED_LADDER, segment_duration_s=4.0)
    cell = Cell(CellConfig(step_s=0.02))
    ue = UserEquipment(StaticItbsChannel(7))
    config = PlayerConfig(request_threshold_s=12.0,
                          start_time_s=start_time_s)
    if flare:
        system = FlareSystem(bai_s=2.0)
        system.install(cell)
        system.attach_client(cell, ue, mpd, config)
    else:
        cell.add_video_flow(ue, mpd, Festive(), config)
    sampler = MetricsSampler(interval_s=sampler_interval_s)
    cell.add_controller(sampler)
    return cell, sampler


def run_report(cell, sampler, duration_s):
    cell.run(duration_s)
    return dump_cell_report(collect_cell_report(cell, sampler,
                                                duration_s))


class TestIdleStretches:
    """Idle stretches: kernel == object path, and the stride engages."""

    @pytest.fixture(autouse=True)
    def _spy(self, fused_calls):
        self.fused = fused_calls

    def _compare(self, start, interval, duration, flare=False):
        """Both paths' reports agree; returns the kernel's steps."""
        cell, sampler = idle_start_cell(start, interval, flare)
        fast = run_report(cell, sampler, duration)
        with chk.checking():
            ref, sampler = idle_start_cell(start, interval, flare)
            slow = run_report(ref, sampler, duration)
        assert fast == slow
        return cell._kernel._fast_steps

    def test_idle_prefix(self):
        # 6 s idle gap, 1 s sampler: the kernel completes all 600 steps
        # of the 12 s run but strides over idle ones between deadlines.
        assert self._compare(6.0, 1.0, 12.0) == 600
        assert self.fused.steps < 600

    def test_idle_prefix_with_flare(self):
        # The same with FLARE's 2 s BAI controller installed.
        assert self._compare(6.0, 1.0, 12.0, flare=True) == 600
        assert self.fused.steps < 600

    def test_deadline_at_player_start(self):
        # The sampler's only deadline coincides with the player start:
        # the step covering both fires the sampler, then starts play.
        assert self._compare(5.0, 5.0, 10.0) > 0

    def test_bai_edge(self):
        # FLARE's 2 s BAI controller fires at 2/4/... during the idle
        # stretch, at the same step as the object loop.
        assert self._compare(5.0, 1.0, 12.0, flare=True) > 0

    def test_deadline_every_step(self):
        # A controller due every single step: a boundary per step, so
        # there is no step to stride over and every span is one step.
        assert self._compare(2.0, 0.02, 4.0) == 200
        assert self.fused.steps == self.fused.calls == 200

    def test_backlogged_from_start(self):
        # Starting at t=0 there is never an idle window.
        assert self._compare(0.0, 1.0, 8.0) > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_unprimed_table_channels(self, seed):
        # A metro cell run on its own: nothing primes its MetroChannels,
        # so each one evaluates its chain at the first query of a fading
        # bucket.  The stride never skips a bucket's first step.
        plan = build_metro_plan(num_cells=4, ues_per_cell=3, isd_m=300.0,
                                seed=seed)

        def report():
            built = build_metro_cell(plan, 0, PenaltyMap())
            return run_report(built.cell, None, 60.0), built.cell

        fast, cell = report()
        with chk.checked_run():
            slow, _ = report()
        assert fast == slow
        assert cell._kernel._fast_steps == 3000
        assert self.fused.steps < 3000


# ----------------------------------------------------------------------
# Fused spans, and randomized single cells
# ----------------------------------------------------------------------
class TestFusedSpans:
    """One ``_step_fast`` call runs a span of boundary-free steps."""

    def test_data_flow_cell_runs_spans(self, fused_calls):
        # The backlogged data flow leaves no step to stride over, so
        # every step is fused; between requests, completions and
        # controller deadlines a call runs many of them.
        run, _ = _testbed_run("festive", 1)
        assert run.cell._kernel._fast_steps == fused_calls.steps == 1500
        assert fused_calls.calls * 5 < fused_calls.steps

    def test_step_hook_takes_one_step_per_call(self, fused_calls):
        # A step hook is a boundary after every step.
        def report():
            cell, sampler = idle_start_cell(0.0, 1.0)
            hook_times = []
            cell.add_step_hook(hook_times.append)
            return run_report(cell, sampler, 4.0), hook_times

        fast, hook_times = report()
        assert fused_calls.steps == fused_calls.calls == 200
        with chk.checking():
            slow, ref_times = report()
        assert fast == slow
        assert hook_times == ref_times

    def test_topology_change_in_a_callback_ends_the_span(self, fused_calls):
        # The first completed segment brings a data flow into the cell.
        # The callback invalidates the kernel mid-span, so the span must
        # hand back and the run loop rebuild before the next step.
        class ArrivalOnFirstSegment(Festive):
            def __init__(self, cell):
                super().__init__()
                self.cell = cell

            def on_segment_complete(self, ctx, throughput_bps):
                super().on_segment_complete(ctx, throughput_bps)
                if self.cell is not None:
                    self.cell.add_data_flow(
                        UserEquipment(StaticItbsChannel(7)))
                    self.cell = None

        def report():
            reset_entity_ids()
            mpd = MediaPresentation(ladder=TESTBED_LADDER,
                                    segment_duration_s=4.0)
            cell = Cell(CellConfig(step_s=0.02))
            player = cell.add_video_flow(
                UserEquipment(StaticItbsChannel(7)), mpd,
                ArrivalOnFirstSegment(cell),
                PlayerConfig(request_threshold_s=12.0))
            sampler = MetricsSampler(interval_s=1.0)
            cell.add_controller(sampler)
            return (run_report(cell, sampler, 12.0),
                    ledgers(sampler, [player]), len(cell.data_flows()))

        fast = report()
        assert fused_calls.steps == 600
        with chk.checking():
            slow = report()
        assert fast == slow
        assert fast[2] == 1


class TestMidStepDeparture:
    """A completion callback removes a flow in the middle of a step.

    From its removal on the departed flow gets nothing on either path:
    no delivery, RB record, completion or playback later in the step,
    and nothing written back for it at any later boundary.
    """

    @staticmethod
    def _run(leaving: str):
        # One FESTIVE client whose first completed segment removes a
        # flow: a data flow or a second client after it in slot order,
        # or the completing client itself.
        class DepartureOnFirstSegment(Festive):
            def __init__(self, cell):
                super().__init__()
                self.cell = cell
                self.flow_id = None

            def on_segment_complete(self, ctx, throughput_bps):
                super().on_segment_complete(ctx, throughput_bps)
                if self.cell is not None:
                    self.cell.remove_flow(self.flow_id)
                    self.cell = None

        reset_entity_ids()
        mpd = MediaPresentation(ladder=TESTBED_LADDER,
                                segment_duration_s=4.0)
        cell = Cell(CellConfig(step_s=0.02))
        abr = DepartureOnFirstSegment(cell)
        config = PlayerConfig(request_threshold_s=12.0)
        player = cell.add_video_flow(UserEquipment(StaticItbsChannel(7)),
                                     mpd, abr, config)
        players = [player]
        if leaving == "data":
            other = cell.add_data_flow(UserEquipment(StaticItbsChannel(9)))
            abr.flow_id = other.flow_id
        elif leaving == "video":
            # A poorer channel: still downloading when it leaves.
            other_player = cell.add_video_flow(
                UserEquipment(StaticItbsChannel(2)), mpd, Festive(), config)
            players.append(other_player)
            abr.flow_id = other_player.flow.flow_id
        else:
            abr.flow_id = player.flow.flow_id
        sampler = MetricsSampler(interval_s=1.0)
        cell.add_controller(sampler)
        report = run_report(cell, sampler, 12.0)
        trace = cell.trace
        departed = abr.flow_id
        assert abr.cell is None  # the departure happened
        return (report, ledgers(sampler, players),
                trace.total_cumulative_prbs(),
                departed in trace._cumulative_prbs,
                departed in trace._cumulative_bytes,
                departed in cell.scheduler.pf._avg_rate_bps)

    @pytest.mark.parametrize("leaving", ["data", "video", "self"])
    def test_departed_flow_gets_nothing(self, leaving, fused_calls):
        with chk.checked_run():
            slow = self._run(leaving)
        fast = self._run(leaving)
        assert fused_calls.steps > 0
        assert fast == slow
        assert fast[3:] == (False, False, False)

    def test_vector_lane_departures(self, monkeypatch):
        # 40 clients keep the vector lane hot.  Four of them remove
        # flows at their completions: themselves, a later and an
        # earlier client, the data flow and two clients in a row.  The
        # departed flows' own objects are left out: the lane writes
        # them back only at boundaries.
        class Departures(Festive):
            def __init__(self, cell):
                super().__init__()
                self.cell = cell
                self.victims = []

            def on_segment_complete(self, ctx, throughput_bps):
                super().on_segment_complete(ctx, throughput_bps)
                if self.victims:
                    self.cell.remove_flow(self.victims.pop(0))

        def run():
            reset_entity_ids()
            mpd = MediaPresentation(ladder=TESTBED_LADDER,
                                    segment_duration_s=4.0)
            cell = Cell(CellConfig(step_s=0.02))
            abrs = [Departures(cell) if k % 10 == 3 else Festive()
                    for k in range(40)]
            players = [cell.add_video_flow(
                UserEquipment(StaticItbsChannel(2 + k % 20)), mpd, abr,
                PlayerConfig(request_threshold_s=12.0))
                for k, abr in enumerate(abrs)]
            data = cell.add_data_flow(UserEquipment(StaticItbsChannel(9)))
            ids = [player.flow.flow_id for player in players]
            abrs[3].victims = [ids[3]]
            abrs[13].victims = [ids[35]]
            abrs[23].victims = [ids[1], data.flow_id]
            abrs[33].victims = [ids[39], ids[38]]
            sampler = MetricsSampler(interval_s=1.0)
            cell.add_controller(sampler)
            report = run_report(cell, sampler, 30.0)
            assert not any(abr.victims for abr in abrs[3::10])
            live = [player for player in players
                    if player.flow in cell.flows]
            trace = cell.trace
            return (report, ledgers(sampler, live),
                    trace.total_cumulative_prbs(),
                    sorted(trace._cumulative_prbs),
                    sorted(cell.scheduler.pf._avg_rate_bps))

        gathers = []
        gather = TtiKernel._vec_gather
        monkeypatch.setattr(
            TtiKernel, "_vec_gather",
            lambda kernel: gathers.append(1) or gather(kernel))
        with chk.checked_run():
            slow = run()
        assert not gathers
        fast = run()
        assert gathers
        assert fast == slow
        assert len(fast[3]) == len(fast[4]) == 35


class TestRandomizedCells:
    """Random single cells: the kernel == the sanitized object path.

    Draws what the fixed matrix above hand-picks: every scheme, static
    and mobile channels, 1-6 clients with or without a data flow, and
    three step sizes, so spans, strides and lazy players meet
    controller deadlines and request latencies at varied offsets.
    """

    @settings(max_examples=12, deadline=None)
    @given(scheme=st.sampled_from(ALL_SCHEMES),
           mobile=st.booleans(),
           num_video=st.integers(1, 6),
           num_data=st.integers(0, 1),
           step_s=st.sampled_from([0.01, 0.02, 0.04]),
           seed=st.integers(0, 2 ** 16))
    def test_kernel_matches_object_path(self, scheme, mobile, num_video,
                                        num_data, step_s, seed):
        def run():
            scenario = build_cell_scenario(
                scheme, mobile=mobile, seed=seed, num_video=num_video,
                num_data=num_data, duration_s=40.0, step_s=step_s)
            return scenario, dump_cell_report(scenario.run())

        with chk.checked_run():
            ref, slow = run()
        fast_run, fast = run()
        assert fast_run.cell._kernel._fast_steps == round(40.0 / step_s)
        assert fast == slow
        assert (ledgers(fast_run.sampler, fast_run.players)
                == ledgers(ref.sampler, ref.players))


class TestRandomizedDenseCells:
    """Random crowded cells: the vector lane == the sanitized object path.

    The lane enters at ``_VEC_MIN`` active transfers, which the sibling
    harness's 1-6 clients never reach.  Here 24-40 clients, each on a
    static channel of its own iTbs in the testbed's 1-12 sweep range,
    crowd one cell, so the lane engages, exits and re-enters as
    transfers start and finish.  (On iTbs 20 channels, 24 FLARE
    clients finish their downloads too fast to ever enter it.)
    """

    @settings(max_examples=10, deadline=None)
    @given(scheme=st.sampled_from(ALL_SCHEMES),
           itbs=st.lists(st.integers(1, 12), min_size=24, max_size=40),
           num_data=st.integers(0, 1),
           step_s=st.sampled_from([0.01, 0.02, 0.04]),
           seed=st.integers(0, 2 ** 16))
    def test_lane_matches_object_path(self, scheme, itbs, num_data, step_s,
                                      seed):
        def run():
            scenario = build_testbed_scenario(
                scheme, seed=seed, num_video=len(itbs), num_data=num_data,
                duration_s=20.0, step_s=step_s)
            for player, value in zip(scenario.players, itbs):
                player.flow.ue.channel = StaticItbsChannel(value)
            return scenario, dump_cell_report(scenario.run())

        with chk.checked_run():
            ref, slow = run()
        lane_steps = []
        vec_step = TtiKernel._vec_step
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TtiKernel, "_vec_step",
                          lambda kernel, *args: lane_steps.append(1)
                          or vec_step(kernel, *args))
            fast_run, fast = run()
        assert fast_run.cell._kernel._fast_steps == round(20.0 / step_s)
        assert lane_steps
        assert fast == slow
        assert (ledgers(fast_run.sampler, fast_run.players)
                == ledgers(ref.sampler, ref.players))


# ----------------------------------------------------------------------
# Per-TTI reference scheduler
# ----------------------------------------------------------------------
def reference_cell(start: float = 0.0):
    reset_entity_ids()
    mpd = MediaPresentation(ladder=TESTBED_LADDER, segment_duration_s=4.0)
    cell = Cell(CellConfig(step_s=0.02),
                scheduler=TtiReferenceScheduler())
    ue = UserEquipment(StaticItbsChannel(7))
    cell.add_video_flow(ue, mpd, Festive(),
                        PlayerConfig(request_threshold_s=12.0,
                                     start_time_s=start))
    sampler = MetricsSampler(interval_s=1.0)
    cell.add_controller(sampler)
    return cell, sampler


class TestTtiReference:
    def test_kernel_refuses_reference_scheduler(self):
        # The reference discipline is not mirrorable; the cell must
        # fall back to the object path and still finish correctly.
        cell, sampler = reference_cell()
        fast = run_report(cell, sampler, 12.0)
        assert cell._kernel._fast_steps == 0
        with chk.checking():
            cell, sampler = reference_cell()
            slow = run_report(cell, sampler, 12.0)
        assert fast == slow

    def test_fluid_kernel_within_reference_envelope(self):
        # The kernel accelerates the fluid approximation; its total
        # delivery must stay inside the fluid-vs-reference agreement
        # the scheduler tests pin (10%).
        def total(scheduler):
            reset_entity_ids()
            mpd = MediaPresentation(ladder=TESTBED_LADDER,
                                    segment_duration_s=4.0)
            cell = Cell(CellConfig(step_s=0.02), scheduler=scheduler)
            ue = UserEquipment(StaticItbsChannel(7))
            cell.add_video_flow(ue, mpd, Festive(),
                                PlayerConfig(request_threshold_s=12.0))
            cell.run(20.0)
            return sum(f.total_delivered_bytes for f in cell._flows)

        fluid = total(None)
        with chk.checking():
            reference = total(TtiReferenceScheduler())
        assert fluid == pytest.approx(reference, rel=0.1)


# ----------------------------------------------------------------------
# When the kernel declines, and what runs the step when it does not
# ----------------------------------------------------------------------
class TestDeclineRules:
    def test_tracer_makes_the_kernel_decline(self):
        cell, _ = idle_start_cell(0.0, 1.0)
        kernel = cell._kernel
        with tracing(ring=True) as tracer:
            assert kernel.run(4.0) is False
            cell.run(4.0)
        assert kernel._fast_steps == 0
        # The object path emitted the per-step heartbeat.
        steps = tracer.ring().of_type("sim.step")
        assert len(steps) == round(cell.now_s / cell.config.step_s)

    def test_sanitizer_declines_and_checks_every_step(self):
        cell, _ = idle_start_cell(0.0, 1.0)
        kernel = cell._kernel
        with chk.checked_run() as checker:
            assert kernel.run(4.0) is False
            cell.run(4.0)
        assert kernel._fast_steps == 0
        assert (checker.counts["rb_conservation"]
                == round(cell.now_s / cell.config.step_s))

    def test_outage_channel_declines(self):
        # OutageChannel has its own bytes_per_prb_at (0.0 in an
        # outage), which the fused step's TBS-table chain cannot mirror.
        def report():
            reset_entity_ids()
            mpd = MediaPresentation(ladder=TESTBED_LADDER,
                                    segment_duration_s=4.0)
            cell = Cell(CellConfig(step_s=0.02))
            channel = OutageChannel(StaticItbsChannel(7), [(3.0, 5.0)])
            cell.add_video_flow(UserEquipment(channel), mpd, Festive(),
                                PlayerConfig(request_threshold_s=12.0))
            sampler = MetricsSampler(interval_s=1.0)
            cell.add_controller(sampler)
            return cell, run_report(cell, sampler, 12.0)

        cell, fast = report()
        assert not cell._kernel.active
        assert cell._kernel._fast_steps == 0
        with chk.checking():
            _, slow = report()
        assert fast == slow

    def test_step_hooks_and_lockstep_run_the_fast_step(self):
        # Interference coupling installs a step hook on every cell, and
        # the multi-cell scenario advances its cells in lockstep through
        # Cell.step(): each of those steps runs on the fused step.
        def run():
            scenario = build_multicell_scenario(
                num_cells=2, clients_per_cell=4, duration_s=60.0,
                interference_coupling_db=6.0)
            reports = scenario.run()
            return scenario, {cell_id: dump_cell_report(report)
                              for cell_id, report in reports.items()}

        fast_run, fast = run()
        with chk.checking():
            slow_run, slow = run()
        assert fast == slow
        for cell_id, cell in fast_run.cells.items():
            assert cell._step_hooks
            assert cell._kernel._fast_steps == 3000
            assert (ledgers(fast_run.samplers[cell_id],
                            fast_run.players[cell_id])
                    == ledgers(slow_run.samplers[cell_id],
                               slow_run.players[cell_id]))
