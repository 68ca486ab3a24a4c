"""Differential tests for the epoch-start BAI sweep.

:class:`repro.core.batch.BatchBaiPlane` fires a cell's due BAI
boundaries at an epoch start, before the cell runs, where a plain
``Cell.run`` fires them inside its first step.  The two schedules must
be **byte-identical** — same BAI decisions, same GBR pushes, same
plugin assignments, same player behaviour — across hysteresis
configurations, client caps, infeasible cells and mid-run churn, on
the TTI kernel and its vector lane alike.  Every differential here
runs an organically fired twin against a swept twin of the same
deterministic world, both on the kernel, and compares the full
downstream record; the organic twin must also match a sanitized
object-path run (an armed sanitizer makes the kernel decline).
"""

import pytest

from repro import check as chk
from repro.core.batch import BatchBaiPlane
from repro.core.controller import FlareSystem
from repro.experiments.audit import read_jsonl
from repro.has.mpd import SIMULATION_LADDER, BitrateLadder, MediaPresentation
from repro.has.player import PlayerConfig
from repro.net.flows import UserEquipment
from repro.obs.events import BAI_SOLVE
from repro.obs.tracer import tracing
from repro.phy.channel import CyclicItbsChannel, StaticItbsChannel
from repro.sim.cell import Cell, CellConfig
from repro.sim.kernel import TtiKernel


def build_system(num_video=3, num_data=1, channel=None, bai_s=2.0,
                 client_kwargs=None, **flare_kwargs):
    """One deterministic FLARE cell (twin-buildable: no RNG anywhere)."""
    cell = Cell(CellConfig())
    flare = FlareSystem(bai_s=bai_s, **flare_kwargs)
    flare.install(cell)
    mpd = MediaPresentation(SIMULATION_LADDER, segment_duration_s=4.0)
    make_channel = channel or (lambda k: StaticItbsChannel(15))
    per_client = client_kwargs or {}
    # Flow ids are pinned: the global allocator would otherwise hand
    # the second twin different ids and break the fact comparison.
    players = [
        flare.attach_client(cell, UserEquipment(make_channel(k)), mpd,
                            PlayerConfig(request_threshold_s=12.0),
                            flow_id=1000 + k, **per_client.get(k, {}))
        for k in range(num_video)
    ]
    for k in range(num_data):
        cell.add_data_flow(UserEquipment(make_channel(k)))
    return cell, flare, players


def drive(cell, flare, duration_s, epoch_s=2.0, sweep=False, hooks=()):
    """Advance a cell epoch-by-epoch, swept or organically.

    Replicates ``NetworkShard.advance``'s cadence: at each epoch start
    the sweep (when engaged) fires every due BAI boundary, then the
    cell runs to the epoch end; with ``sweep=False`` the controller
    fires organically inside the run.  ``hooks`` is a list of
    ``(time_s, fn)`` mutations applied at epoch starts *before* the
    boundary fires, so both twins see them in the same order.
    """
    plane = BatchBaiPlane() if sweep else None
    t = 0.0
    while t < duration_s - 1e-9:
        for at, hook in hooks:
            if abs(at - t) < 1e-9:
                hook(cell, flare)
        if plane is not None:
            plane.sweep([cell])
        t = min(t + epoch_s, duration_s)
        cell.run(t)


def bai_facts(flare):
    """Every BAI's row, minus wall-clock solve time.

    ``solve_time_s`` is a timer (excluded from byte-identity like the
    CellReport dump excludes it); verdicts are compared separately in
    the armed test.
    """
    facts = []
    for record in flare.server.records:
        facts.append((
            record.time_s, record.num_video_flows, record.num_data_flows,
            tuple(sorted(record.indices.items())),
            tuple(sorted(record.rates_bps.items())),
            tuple(sorted((flow.flow_id, flow.recommended)
                         for flow in record.flows)),
            record.r, record.utility, record.feasible,
        ))
    return facts


def world_facts(cell, flare, players):
    """The full downstream record a BAI divergence would perturb."""
    return (
        bai_facts(flare),
        {p.flow.flow_id: cell.registry.qos(p.flow.flow_id) for p in players},
        {p.flow.flow_id:
         [(r.request_time_s, r.bitrate_bps) for r in p.log.records]
         for p in players},
        (flare.server.solve_count, flare.server.infeasible_count,
         flare.server.hold_count),
    )


def run_twins(duration_s=30.0, hooks=(), checked=True, **build_kwargs):
    """Build + run an organic twin and a swept twin; return both facts.

    Both twins run on the TTI kernel and must really take fast steps.
    With ``checked`` the organic twin must also match a reference run
    on the object path with the invariant sanitizer armed.
    """
    results = []
    for sweep in (False, True):
        cell, flare, players = build_system(**build_kwargs)
        drive(cell, flare, duration_s, sweep=sweep, hooks=hooks)
        assert cell._kernel._fast_steps > 0
        results.append(world_facts(cell, flare, players))
    if checked:
        cell, flare, players = build_system(**build_kwargs)
        with chk.checked_run():
            drive(cell, flare, duration_s, hooks=hooks)
        assert world_facts(cell, flare, players) == results[0]
    return results


class TestSingleCellDifferential:
    """Organic twin == swept twin, decision for decision."""

    @pytest.mark.parametrize("config", [
        {},                                     # paper defaults
        {"delta": 0},                           # hysteresis disabled
        {"delta": 1},                           # fastest stable ramp
        {"enforce_step_limit": False},          # multi-step upgrades
        {"enforce_gbr": False},                 # plugins-only ablation
        {"alpha": 0.0},                         # no data-flow utility
        {"cost_smoothing": 1.0},                # raw per-BAI estimates
        {"num_data": 0},
    ])
    def test_configs_identical(self, config):
        organic, swept = run_twins(**config)
        assert organic == swept

    def test_dynamic_channel_with_downgrades(self):
        # A fast triangular iTbs sweep forces upgrades, holds *and*
        # downgrades through the hysteresis within 60 s.
        def channel(k):
            return CyclicItbsChannel(lo=1, hi=14, cycle_s=40.0,
                                     offset_s=5.0 * k)
        organic, swept = run_twins(60.0, channel=channel, num_video=4)
        assert organic == swept
        levels = {dict(fact[3])[1000] for fact in organic[0]}
        assert len(levels) > 1  # the ladder actually moved

    def test_client_caps_and_skimming(self):
        caps = {0: {"max_bitrate_bps": 0.5e6}, 1: {"skimming": True}}
        organic, swept = run_twins(client_kwargs=caps, num_video=3)
        assert organic == swept

    def test_infeasible_all_minimum_fallback(self, monkeypatch):
        # 48 video flows at iTbs 0 cannot all fit their minimum ladder
        # rate into the RB budget: the solver's all-minimum fallback
        # (feasible=False, every flow at index 0) must replay exactly.
        # 48 flows also put the kernel on its numpy vector lane.
        def channel(k):
            return StaticItbsChannel(0)

        engaged = []
        gather = TtiKernel._vec_gather

        def spying_gather(kernel):
            engaged.append(True)
            return gather(kernel)

        monkeypatch.setattr(TtiKernel, "_vec_gather", spying_gather)
        organic, swept = run_twins(8.0, channel=channel, num_video=48,
                                   num_data=0)
        assert engaged, "vector lane never engaged"
        assert organic == swept
        solves, infeasible, _ = organic[3]
        assert infeasible > 0 and infeasible == solves
        for (_, _, _, indices, *_rest) in organic[0]:
            assert all(index == 0 for _, index in indices)

    def test_ladder_shrink_clamps_levels(self):
        # Swapping a plugin's ladder for a shorter one mid-run forces
        # clamp_index on a now-out-of-range level at the next boundary.
        short = BitrateLadder.from_kbps((100, 250, 500))

        def shrink(cell, flare):
            flow_id = min(cell.players)
            flare.plugin_for(flow_id).ladder = short

        organic, swept = run_twins(60.0, hooks=((30.0, shrink),))
        assert organic == swept
        last = organic[0][-1][3]
        shrunk_levels = [index for _, index in last]
        assert min(shrunk_levels) <= 2  # the swapped flow is clamped

    def test_churn_between_bais(self):
        # Deregistering mid-run shrinks the problem; attaching a new
        # client re-grows it, right before a swept boundary.
        def depart(cell, flare):
            flow_id = min(cell.players)
            flare.server.deregister_plugin(flow_id)

        def arrive(cell, flare):
            mpd = MediaPresentation(SIMULATION_LADDER,
                                    segment_duration_s=4.0)
            flare.attach_client(cell, UserEquipment(StaticItbsChannel(12)),
                                mpd, PlayerConfig(request_threshold_s=12.0),
                                flow_id=2000)

        organic, swept = run_twins(
            40.0, hooks=((10.0, depart), (20.0, arrive)))
        assert organic == swept
        counts = [fact[1] for fact in organic[0]]
        assert min(counts) < max(counts)  # churn actually happened

    def test_verdicts_identical_when_armed(self, tmp_path):
        # With a tracer armed the traced verdicts must match field for
        # field (bai_facts leaves them out): every bai.solve event but
        # its wall-clock solve time.
        solves = []
        for sweep in (False, True):
            cell, flare, players = build_system()
            path = tmp_path / f"t{sweep}.jsonl"
            with tracing(jsonl=str(path)):
                drive(cell, flare, 30.0, sweep=sweep)
            events = [event for event in read_jsonl(path)
                      if event["type"] == BAI_SOLVE]
            for event in events:
                del event["solve_s"]
            solves.append(events)
        assert solves[0] == solves[1]
        assert any(event["flows"] for event in solves[0])

    def test_perturbed_batch_plane_is_detected(self, monkeypatch):
        """The differential harness has teeth.

        A 0.1% relative skew injected into every cost estimate right
        before the sweep fires — the kind of error a boundary that
        reads stale or reordered state produces — must break identity
        with the organic twin.
        """
        organic, _ = run_twins(30.0, checked=False)

        original = BatchBaiPlane.sweep

        def perturbing(plane, cells):
            for cell in cells:
                for controller, _ in cell._controllers:
                    for ewma in controller._bpp_estimates.values():
                        ewma._value *= 1.0 + 1e-3
            return original(plane, cells)

        monkeypatch.setattr(BatchBaiPlane, "sweep", perturbing)
        cell, flare, players = build_system()
        drive(cell, flare, 30.0, sweep=True)
        assert world_facts(cell, flare, players) != organic
