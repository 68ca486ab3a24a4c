"""Differential and handover tests for the multi-cell Network.

The network's contract mirrors the TTI kernel's: the batched
(``shards=1``) and process-sharded (``shards>1``) execution modes must
produce **byte-identical** serialized ``CellReport``s to the per-step
lockstep reference — across schemes, seeds and with interference
coupling on — with the invariant sanitizer armed on the reference.
An armed sanitizer makes the kernel decline, so the kernel modes run
unarmed and prove that their cells ran on the kernel.  Handover semantics
get targeted tests: handovers land exactly on epoch boundaries, the
pickle round-trip preserves player state, streaming continues in the
target cell, and a stalled player recovers after handing over to a
healthy cell.
"""

import math
import multiprocessing
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import check as chk
from repro.core.plugin import FlarePlugin
from repro.experiments.parallel import ShardPoolError
from repro.has.player import PlaybackState
from repro.metrics.serialize import dump_cell_report
from repro.obs import prof
from repro.obs.telemetry import collecting
from repro.obs.tracer import tracing
from repro.phy.channel import StaticItbsChannel
from repro.sim.engine import advance_cells_lockstep
from repro.sim.kernel import TtiKernel
from repro.sim.network import (
    LocalShards,
    MetroChannel,
    Network,
    NetworkShard,
    WorkingPoints,
    prime_metro_channels,
)
from repro.workload.handover import HandoverManager
from repro.workload.metro import METRO_SCHEMES, build_metro_plan
from repro.workload.multicell import build_multicell_scenario


def small_plan(scheme="flare", seed=0, coupling_db=0.0):
    """4 cells on a tight grid: guarantees handovers within ~30 s."""
    return build_metro_plan(num_cells=4, ues_per_cell=2, scheme=scheme,
                            seed=seed, isd_m=300.0,
                            coupling_db=coupling_db)


def run_reports(plan, duration_s, shards=1, lockstep=False):
    network = Network(plan)
    reports = network.run(duration_s, shards=shards, lockstep=lockstep)
    return network, {cell_id: dump_cell_report(report)
                     for cell_id, report in reports.items()}


class TestDifferentialMatrix:
    """lockstep == batched == sharded, byte for byte."""

    @pytest.mark.parametrize("scheme,seed,coupling_db", [
        ("flare", 0, 0.0),
        ("flare", 0, 6.0),
        ("flare", 1, 6.0),
        ("festive", 0, 6.0),
    ])
    def test_three_modes_byte_identical(self, scheme, seed, coupling_db,
                                        fused_calls):
        plan = small_plan(scheme, seed, coupling_db)
        with chk.checked_run():
            ref_net, ref = run_reports(plan, 30.0, lockstep=True)
        bat_net, batched = run_reports(plan, 30.0, shards=1)
        fused = fused_calls[0]
        shard_net, sharded = run_reports(plan, 30.0, shards=2)
        assert bat_net.kernel_cell_runs > 0
        assert shard_net.kernel_cell_runs > 0
        # The in-process kernels strode over idle steps: they took
        # fewer fused steps than the cell-steps of their epochs.
        epoch_steps = round(plan.exchange_s / plan.params["step_s"])
        assert fused < bat_net.kernel_cell_runs * epoch_steps
        assert ref == batched
        assert batched == sharded
        assert ref_net.records == bat_net.records == shard_net.records
        assert (ref_net.handover_count == bat_net.handover_count
                == shard_net.handover_count)

    def test_usage_totals_independent_of_path(self, monkeypatch):
        # Each epoch's per-cell PRB totals, and the interference
        # penalties they become, are the same bits whether the cells
        # ran on the kernel or on the sanitized object path (which
        # record a flow's first grant at different times).
        plan = build_metro_plan(num_cells=4, ues_per_cell=8, seed=0,
                                coupling_db=6.0)
        calls = []
        original = Network._exchange

        def recording(self, usages, *args):
            penalties = original(self, usages, *args)
            calls.append((dict(usages), penalties))
            return penalties

        monkeypatch.setattr(Network, "_exchange", recording)
        with chk.checked_run():
            Network(plan).run(30.0)
        reference = calls.copy()
        calls.clear()
        network = Network(plan)
        network.run(30.0)
        assert network.kernel_cell_runs > 0
        assert len(reference) == 15
        assert calls == reference

    def test_handovers_actually_happen(self):
        network, _ = run_reports(small_plan(coupling_db=6.0), 30.0)
        assert network.handover_count > 0
        assert len(network.records) == network.handover_count

    def test_interference_coupling_changes_results(self):
        _, quiet = run_reports(small_plan(coupling_db=0.0), 30.0)
        _, coupled = run_reports(small_plan(coupling_db=12.0), 30.0)
        assert quiet != coupled

    def test_lockstep_with_multiple_shards_rejected(self):
        network = Network(small_plan())
        with pytest.raises(ValueError):
            network.run(10.0, shards=2, lockstep=True)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched advance reaches the "
                               "workers by fork only")
    def test_dead_worker_names_shard_epoch_and_cells(self, monkeypatch):
        plan = small_plan()
        advance = NetworkShard.advance

        def dying_advance(shard, epoch_end_s, penalties, lockstep=False):
            # Shard 0 (cells 0 and 1) dies in epoch 3, after three
            # epochs ran.
            if shard.cell_ids[0] == 0 and epoch_end_s > 3 * plan.exchange_s:
                os._exit(3)
            return advance(shard, epoch_end_s, penalties, lockstep)

        monkeypatch.setattr(NetworkShard, "advance", dying_advance)
        before = set(multiprocessing.active_children())
        # Network.run closes the pool on the way out: reaching the
        # assertions means close() returned and reaped both workers.
        with pytest.raises(ShardPoolError) as info:
            Network(plan).run(30.0, shards=2)
        assert set(multiprocessing.active_children()) <= before
        message = str(info.value)
        assert info.value.shard == 0
        assert "exit code 3" in message
        assert f"epoch 3 (t={3 * plan.exchange_s:g} s)" in message
        assert "shard 0 (cells [0, 1])" in message


class TestRandomizedModes:
    """Random small plans: lockstep == in-process == 2 shards.

    The fixed matrix above pins a few hand-picked plans; this draws
    them.  Hypothesis shrinks a failure to a minimal plan, which then
    belongs in that matrix as a regression case.
    """

    @settings(max_examples=12, deadline=None)
    @given(num_cells=st.integers(1, 4),
           ues_per_cell=st.integers(1, 6),
           scheme=st.sampled_from(METRO_SCHEMES),
           coupling_db=st.sampled_from([0.0, 3.0, 6.0]),
           hysteresis_db=st.sampled_from([1.0, 3.0]),
           isd_m=st.sampled_from([250.0, 500.0]),
           delta=st.sampled_from([0, 2, 4]),
           step_s=st.sampled_from([0.01, 0.02]),
           seed=st.integers(0, 2 ** 16))
    def test_modes_agree(self, num_cells, ues_per_cell, scheme,
                         coupling_db, hysteresis_db, isd_m, delta, step_s,
                         seed):
        plan = build_metro_plan(
            num_cells=num_cells, ues_per_cell=ues_per_cell, scheme=scheme,
            seed=seed, isd_m=isd_m, coupling_db=coupling_db,
            hysteresis_db=hysteresis_db, delta=delta, step_s=step_s)
        with chk.checked_run():
            ref_net, ref = run_reports(plan, 20.0, lockstep=True)
        bat_net, batched = run_reports(plan, 20.0, shards=1)
        shard_net, sharded = run_reports(plan, 20.0, shards=2)
        assert ref == batched == sharded
        assert ref_net.records == bat_net.records == shard_net.records


class TestObservabilityParity:
    """Arming the telemetry plane never changes simulation results.

    Extends the differential matrix: every mode runs with telemetry,
    profiling and tracing armed at once, and the CellReports must stay
    byte-identical to the unarmed reference — collection only *reads*
    simulator state, in every execution mode.
    """

    def test_armed_runs_stay_byte_identical_across_modes(self, tmp_path):
        plan = small_plan(coupling_db=6.0)
        _, reference = run_reports(plan, 30.0)  # unarmed

        def armed(jsonl, **mode_kwargs):
            with prof.profiling() as profiler, \
                    collecting() as collector, \
                    tracing(jsonl=str(jsonl)):
                network, dumps = run_reports(plan, 30.0, **mode_kwargs)
            return network, dumps, collector.records, profiler

        _, lock, lock_tel, _ = armed(tmp_path / "lock.jsonl",
                                     lockstep=True)
        bat_net, bat, bat_tel, _ = armed(tmp_path / "bat.jsonl",
                                         shards=1)
        net, shard, shard_tel, profiler = armed(
            tmp_path / "shard.jsonl", shards=2)

        assert reference == lock == bat == shard
        # The rollup stream itself is mode-independent.
        assert lock_tel == bat_tel == shard_tel
        assert {record.cell for record in shard_tel} == {0, 1, 2, 3}
        assert shard_tel[-1].epoch == 14  # 30 s / 2 s epochs

        # Shard-side spans merged back: worker tracks exist in the
        # parent profiler, alongside the parent's pipeline spans.
        stats = profiler.snapshot()["stats"]
        assert any(path.startswith("sim.step") for path in stats)
        assert "net.advance/net.recv.usage" in stats
        assert {event["pid"]
                for event in profiler.chrome_events()} >= {1, 2}

        # Pipeline occupancy: sharded runs only.
        assert bat_net.pipeline == {}
        assert net.pipeline["shards"] == 2
        assert net.pipeline["epochs"] == 15
        assert len(net.pipeline["occupancy"]) == 2
        for frac, occ in zip(net.pipeline["recv_blocked_frac"],
                             net.pipeline["occupancy"]):
            assert 0.0 <= frac <= 1.0
            assert occ == pytest.approx(1.0 - frac)

        # Per-shard trace shards merged into one parent JSONL.
        merged = (tmp_path / "shard.jsonl").read_text(encoding="utf-8")
        assert '"task":1' in merged and '"task":2' in merged
        assert not list(tmp_path.glob("shard.jsonl.netshard*"))

    def test_one_shard_profiles_the_pipelined_loop(self):
        # shards=1 runs the sharded epoch loop over the in-process
        # transport, so its profile opens the same receive spans.
        plan = small_plan(coupling_db=6.0)
        recv_spans = {"net.advance/net.recv.points",
                      "net.advance/net.recv.usage"}
        for shards in (1, 2):
            with prof.profiling() as profiler:
                run_reports(plan, 30.0, shards=shards)
            assert recv_spans <= set(profiler.snapshot()["stats"])

    def test_profiled_sharded_run_keeps_the_fast_path(self):
        # Without a tracer, arming the profiler and the telemetry plane
        # leaves every shard on the kernel: the merged shard-side spans
        # show one sim.kernel.run per kernel call, and no per-step
        # object-path span.
        plan = small_plan(coupling_db=6.0)
        _, reference = run_reports(plan, 30.0)
        with prof.profiling() as profiler, collecting() as collector:
            net, sharded = run_reports(plan, 30.0, shards=2)
        assert sharded == reference
        assert net.kernel_cell_runs > 0
        assert collector.records
        stats = profiler.snapshot()["stats"]
        assert any(path.split("/")[-1] == "sim.kernel.run"
                   for path in stats)
        assert not any(path.startswith("sim.step") for path in stats)
        assert {event["pid"]
                for event in profiler.chrome_events()} >= {1, 2}


class TestHandoverSemantics:
    def test_sharded_arrivals_keep_directive_order(self):
        """Sharded arrivals attach in UE-id order, as ``shards=1`` does.

        UE 0 crosses from cell 3 (shard 1) into cell 1 and UE 1 moves
        from cell 0 into cell 1 within shard 0 at the same boundary;
        slot order feeds the scheduler's float sums, so any other
        order changes the reports.
        """
        plan = build_metro_plan(num_cells=4, ues_per_cell=2,
                                scheme="flare", seed=0)
        directives = [(0, 3, 1), (1, 0, 1)]
        network = Network(plan)
        whole = NetworkShard(plan, [0, 1, 2, 3])
        network._apply_directives(directives, 0.0,
                                  dict.fromkeys(range(4), 0),
                                  LocalShards([whole]))
        expected = [flow.flow_id
                    for flow in whole.built(1).cell.video_flows()]

        network = Network(plan)
        shards = [NetworkShard(plan, [0, 1]), NetworkShard(plan, [2, 3])]
        network._apply_directives(directives, 0.0,
                                  {0: 0, 1: 0, 2: 1, 3: 1},
                                  LocalShards(shards))
        arrived = [flow.flow_id
                   for flow in shards[0].built(1).cell.video_flows()]
        assert arrived == expected
        assert expected[-2:] == [plan.ues[0].flow_id, plan.ues[1].flow_id]

    def test_handovers_land_on_epoch_boundaries(self):
        plan = small_plan()
        network = Network(plan)
        network.run(30.0, shards=1)
        assert network.records
        for record in network.records:
            epochs = record.time_s / plan.exchange_s
            assert epochs == pytest.approx(round(epochs))
            assert 0.0 < record.time_s < 30.0

    def test_serving_map_tracks_last_record(self):
        network = Network(small_plan())
        network.run(30.0, shards=1)
        last = {}
        for record in network.records:  # sorted by time
            last[record.flow_id] = record.target_cell_id
        for flow_id, target in last.items():
            # metro plans use flow_id == ue_id
            assert network.serving_cell(flow_id) == target

    def test_plugin_registries_track_live_players(self, monkeypatch):
        shards = []
        init = NetworkShard.__init__

        def keep(shard, *args, **kwargs):
            init(shard, *args, **kwargs)
            shards.append(shard)

        monkeypatch.setattr(NetworkShard, "__init__", keep)
        network = Network(small_plan())
        network.run(30.0, shards=1)
        assert network.records
        [shard] = shards
        for cell_id in shard.cell_ids:
            built = shard.built(cell_id)
            assert set(built.system.server._plugins) \
                == set(built.cell.players)
            for flow_id, player in built.cell.players.items():
                assert built.system.plugin_for(flow_id) is player.abr.plugin
        for record in network.records:
            source = shard.built(record.source_cell_id)
            if record.flow_id not in source.cell.players:
                with pytest.raises(KeyError):
                    source.system.plugin_for(record.flow_id)

    def test_blob_roundtrip_preserves_player_and_plugin(self):
        plan = small_plan()
        shard = NetworkShard(plan, list(range(plan.sites.num_cells)))
        shard.advance(4.0, {}, lockstep=False)
        source = next(cell_id for cell_id in shard.cell_ids
                      if shard.built(cell_id).players)
        target = next(cell_id for cell_id in shard.cell_ids
                      if cell_id != source)
        flow_id, player = next(iter(
            shard.built(source).players.items()))
        segments = len(player.log)
        buffer_s = player.buffer.level_s

        blob = shard.detach_blob(source, flow_id)
        thawed, plugin = pickle.loads(blob)
        # One pickle call: the shipped plugin IS the player's plugin.
        assert isinstance(plugin, FlarePlugin)
        assert thawed.abr.plugin is plugin

        shard.attach_blob(target, blob, source, 4.0)
        arrived = shard.built(target).players[flow_id]
        assert len(arrived.log) == segments
        assert arrived.buffer.level_s == pytest.approx(buffer_s)
        assert isinstance(arrived.flow.ue.channel, MetroChannel)
        assert arrived.flow.ue.channel.serving_cell == target
        assert flow_id in shard.built(target).cell.players
        assert flow_id not in shard.built(source).cell.players
        [record] = shard.handover_records()
        assert record.time_s == pytest.approx(4.0)
        assert (record.source_cell_id, record.target_cell_id) \
            == (source, target)

        # Streaming continues in the target cell.
        shard.advance(24.0, {}, lockstep=False)
        assert len(arrived.log) > segments

    def test_stalled_player_recovers_after_handover(self):
        scenario = build_multicell_scenario(
            num_cells=2, clients_per_cell=12, itbs_per_cell=[0, 24],
            duration_s=1.0, delta=1)
        cells = list(scenario.cells.values())
        advance_cells_lockstep(cells, 60.0)
        player = scenario.players[0][0]
        stalls_at_handover = player.stall_events
        assert stalls_at_handover > 0
        segments_at_handover = len(player.log)

        # The UE leaves the overloaded cell for the healthy one; its
        # channel improves with the move.
        player.flow.ue.channel = StaticItbsChannel(24)
        manager = HandoverManager()
        manager.migrate(
            player, scenario.cells[0],
            scenario.oneapi.system_for(scenario.cells[0]),
            scenario.cells[1],
            scenario.oneapi.system_for(scenario.cells[1]))
        advance_cells_lockstep(cells, 150.0)
        assert player.state in (PlaybackState.PLAYING,
                                PlaybackState.FINISHED)
        assert len(player.log) > segments_at_handover + 3
        # The healthy cell has headroom: at most one stall can still be
        # in flight from the handover instant itself.
        assert player.stall_events <= stalls_at_handover + 1


def dense_plan(seed=0, ues_per_cell=64):
    """2 cells loaded past the kernel's vector-lane entry threshold.

    Under load the number of *concurrently active* transfers is well
    below the resident count (players pace themselves on full
    buffers), so ``ues_per_cell`` must comfortably exceed ``_VEC_MIN``
    for the full-width masked numpy MAC phase to engage.
    """
    return build_metro_plan(num_cells=2, ues_per_cell=ues_per_cell,
                            seed=seed, isd_m=300.0, coupling_db=6.0)


class TestVectorLane:
    """The numpy MAC lane == lockstep == sharded."""

    @pytest.mark.parametrize("seed,shards", [(0, 2), (2, 2), (3, 2)])
    def test_vec_lockstep_sharded_identical(self, seed, shards,
                                            monkeypatch):
        # The sanitizer guards the lockstep reference only: an armed
        # CHECKER makes the kernel decline (TtiKernel._enter), so the
        # fast paths under test must run unchecked to engage at all.
        # In seed 2, a slot whose download completed on the scalar
        # step just before the lane engaged changes the reports unless
        # _vec_gather prunes it.
        plan = dense_plan(seed)
        with chk.checked_run():
            _, ref = run_reports(plan, 30.0, lockstep=True)
        # Vector lane, with a spy proving it actually engaged.
        engaged = []
        orig_gather = TtiKernel._vec_gather

        def spying_gather(kernel):
            engaged.append(True)
            return orig_gather(kernel)

        monkeypatch.setattr(TtiKernel, "_vec_gather", spying_gather)
        _, vec = run_reports(plan, 30.0, shards=1)
        assert engaged, "vector lane never engaged; raise ues_per_cell"
        _, sharded = run_reports(plan, 30.0, shards=shards)
        assert ref == vec
        assert vec == sharded

    def test_perturbed_vec_lane_is_detected(self, monkeypatch):
        """The differential harness has teeth.

        A small relative error injected into a single vector-lane
        operand must break byte-identity against the unperturbed
        lane.  If this comparison ever stops detecting the seeded
        divergence, the byte-identity suite is vacuous.
        """
        plan = dense_plan(0)
        _, clean = run_reports(plan, 30.0, shards=1)

        engaged = []
        orig_step = TtiKernel._vec_step

        def perturbing_step(kernel, now, end, step_s):
            engaged.append(True)
            # Skew the in-lane PF served averages by 0.1% per step: a
            # small relative error in one vector-lane operand, of the
            # kind a wrong dtype or a reordered reduction produces.  The
            # operand must reach the reports: this plan's lane steps are
            # all bound by the MBR cap or the backlog, never by the
            # congestion window, so a skewed window would not show.
            kernel._v_pf *= 1.0 + 1e-3
            return orig_step(kernel, now, end, step_s)

        monkeypatch.setattr(TtiKernel, "_vec_step", perturbing_step)
        _, perturbed = run_reports(plan, 30.0, shards=1)
        assert engaged, "vector lane never engaged; raise ues_per_cell"
        assert perturbed != clean

    def test_empty_cells_and_singleton_shards(self):
        # 2 UEs across a 4-cell grid: some cells start empty, and with
        # shards=4 every shard owns exactly one cell (some with no
        # players at all).  All three modes must still agree.
        plan = build_metro_plan(num_cells=4, ues_per_cell=1, seed=0,
                                isd_m=300.0, coupling_db=6.0, total_ues=2)
        assert len({ue.cell_id for ue in plan.ues}) < 4
        with chk.checked_run():
            _, ref = run_reports(plan, 30.0, lockstep=True)
        bat_net, batched = run_reports(plan, 30.0, shards=1)
        shard_net, sharded = run_reports(plan, 30.0, shards=4)
        assert bat_net.kernel_cell_runs > 0
        assert shard_net.kernel_cell_runs > 0
        assert ref == batched
        assert batched == sharded


class TestChannelPriming:
    """prime_metro_channels == the per-UE scalar iTbs chain, per bucket."""

    @pytest.mark.parametrize("seed", [0, 2])
    def test_primed_tables_match_scalar_chain(self, seed):
        plan = build_metro_plan(num_cells=4, ues_per_cell=3, seed=seed,
                                isd_m=300.0, coupling_db=6.0)
        shard = NetworkShard(plan, list(range(plan.sites.num_cells)))
        channels = shard._metro_channels()
        assert channels
        cell = shard.built(shard.cell_ids[0]).cell
        step_s = cell.config.step_s
        stop = cell._stop_step(plan.exchange_s)
        primed = prime_metro_channels(channels, 0, stop, step_s)
        assert primed > 0
        for channel in channels:
            table = list(channel._primed_itbs)
            first = channel._primed_first_bucket
            assert len(table) == primed
            # Drop the table (fading samples stay materialised) and
            # replay the epoch's steps the way the cells' clocks do —
            # step index times step size — evaluating the scalar chain
            # at the first step time inside each fading bucket, exactly
            # where the primed table claims to have been evaluated.
            channel._primed_itbs = None
            period = channel.fading_period_s
            scalar = {}
            for step in range(stop):
                now = step * step_s
                bucket = math.floor(now / period)
                if bucket not in scalar:
                    scalar[bucket] = channel.itbs_at(now)
            assert table == [scalar[first + k] for k in range(primed)]

    def test_handover_drops_primed_table(self):
        plan = small_plan()
        shard = NetworkShard(plan, list(range(plan.sites.num_cells)))
        channels = shard._metro_channels()
        cell = shard.built(shard.cell_ids[0]).cell
        prime_metro_channels(channels, 0, cell._stop_step(plan.exchange_s),
                             cell.config.step_s)
        channel = channels[0]
        assert channel.primed_itbs(channel._primed_first_bucket) is not None
        target = next(c for c in range(plan.sites.num_cells)
                      if c != channel.serving_cell)
        channel.handover(target)
        assert channel.primed_itbs(channel._primed_first_bucket) is None


class TestWorkingPointsBlob:
    """The pickle-free wire contract for shard boundary reports."""

    @staticmethod
    def _points():
        return WorkingPoints(
            ue_ids=np.array([11, 7, 3], dtype=np.int64),
            serving=np.array([0, 1, 1], dtype=np.int64),
            best=np.array([0, 1, 2], dtype=np.int64),
            serving_loss_db=np.array([91.5, 88.25, 104.0]),
            best_loss_db=np.array([91.5, 88.25, 96.125]),
        )

    def test_blob_round_trip(self):
        points = self._points()
        thawed = WorkingPoints.from_blob(points.to_blob())
        for name in WorkingPoints._COLUMNS:
            np.testing.assert_array_equal(getattr(thawed, name),
                                          getattr(points, name))

    def test_blob_layout_is_fixed(self):
        points = self._points()
        blob = points.to_blob()
        # count header + 3 int64 columns + 2 float64 columns.
        assert len(blob) == 8 + 3 * (3 * 8) + 2 * (3 * 8)
        assert blob[:8] == (3).to_bytes(8, "little")
        # Byte-identical serialization is the whole point.
        assert blob == self._points().to_blob()

    def test_pickle_delegates_to_blob(self):
        points = self._points()
        thawed = pickle.loads(pickle.dumps(points))
        for name in WorkingPoints._COLUMNS:
            np.testing.assert_array_equal(getattr(thawed, name),
                                          getattr(points, name))
        # The pickle payload embeds the blob, not per-array pickles.
        assert points.to_blob() in pickle.dumps(points)

    def test_empty_points(self):
        empty = WorkingPoints(
            ue_ids=np.array([], dtype=np.int64),
            serving=np.array([], dtype=np.int64),
            best=np.array([], dtype=np.int64),
            serving_loss_db=np.array([]),
            best_loss_db=np.array([]),
        )
        thawed = WorkingPoints.from_blob(empty.to_blob())
        assert thawed.ue_ids.shape == (0,)
