"""Differential tests for the vectorized TTI kernel.

The kernel's contract is *byte-identical* serialized ``CellReport``s
against the pure-object path — not approximate agreement.  The matrix
here runs coordinated (FLARE, AVIS) and client-side (FESTIVE) schemes
across seeds against the object path with the invariant sanitizer
armed; any drift in a mirrored quantity (TCP windows, PF averages, RB
trace, delivered totals, playback) shows up as a serialization or
ledger diff.  An armed sanitizer or tracer makes the kernel
decline, so the kernel side runs unarmed and proves it took fast steps.

Idle stretches get targeted scenarios: every step of a client that
starts late runs the fused step, and controller deadlines, player
starts and the run end land on the object path's clock values.  The
per-TTI reference scheduler pins two properties: the kernel refuses
cells it cannot mirror, and the fluid path it accelerates stays within
the reference discipline's agreement envelope.
"""

import pytest

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
from repro.workload.multicell import build_multicell_scenario
from repro.workload.scenarios import (
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
    """A client that starts late: kernel == object path, every step."""

    def _compare(self, start, interval, duration, flare=False):
        cell, sampler = idle_start_cell(start, interval, flare)
        fast = run_report(cell, sampler, duration)
        fast_steps = cell._kernel._fast_steps
        with chk.checking():
            cell, sampler = idle_start_cell(start, interval, flare)
            slow = run_report(cell, sampler, duration)
        assert fast == slow
        return fast_steps

    def test_idle_prefix(self):
        # 6 s idle gap, 1 s sampler: all 600 steps of the 12 s run take
        # the fused step, the idle ones included.
        assert self._compare(6.0, 1.0, 12.0) == 600

    def test_idle_prefix_with_flare(self):
        # The same with FLARE's 2 s BAI controller installed.
        assert self._compare(6.0, 1.0, 12.0, flare=True) == 600

    def test_deadline_at_player_start(self):
        # The sampler's only deadline coincides with the player start:
        # the step covering both fires the sampler, then starts play.
        assert self._compare(5.0, 5.0, 10.0) > 0

    def test_bai_edge(self):
        # FLARE's 2 s BAI controller fires at 2/4/... during the idle
        # stretch, at the same step as the object loop.
        assert self._compare(5.0, 1.0, 12.0, flare=True) > 0

    def test_deadline_every_step(self):
        # A controller due every single step: a boundary per step.
        assert self._compare(2.0, 0.02, 4.0) > 0

    def test_backlogged_from_start(self):
        # Starting at t=0 there is never an idle window.
        assert self._compare(0.0, 1.0, 8.0) > 0


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
