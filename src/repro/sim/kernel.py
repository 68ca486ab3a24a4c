"""Vectorized TTI fast path: struct-of-arrays MAC/PHY kernel.

The object-graph step loop in :mod:`repro.sim.cell` is the paper's
architecture made literal — flows, bearers, TCP models and players are
objects, and every fluid MAC step walks them through method calls.
That is the right shape for correctness work, but profiling shows
the per-step call overhead dominating wall time long before the
arithmetic does, which caps how many UEs a study can simulate.

:class:`TtiKernel` is the same step, restructured.  Per-flow hot state
(congestion windows, delivered-byte totals, PF served averages, RB
trace accumulators, GBR/MBR byte budgets, per-UE channel working
points) is mirrored into flat parallel arrays — one slot per flow, in
attachment order — and one fused, event-driven step (``_step_fast``)
computes the channel→TBS chain, both Priority Set scheduling phases
(GBR pass + proportional-fair waterfill), MAC delivery and playback
over those arrays, touching only the flows and players that can act
this step.  Results are flushed back into the existing ``Flow`` /
``Allocation`` / ``RbTraceModule`` objects at every observation
boundary, so everything outside the hot loop keeps seeing the object
world it was written against.

**The mirroring contract.**  Object state is authoritative at every
*observation boundary*; array state is authoritative strictly between
them.  Boundaries are: interval-controller firings, segment-completion
callbacks, step hooks, public ``Cell.step()`` returns, and the end of
``Cell.run()``.  :meth:`TtiKernel.run` fires due controllers and step
hooks itself, around the fused step: it flushes mirrors to objects
immediately before each boundary and reloads them immediately after,
so controller code, ABR callbacks, tests and metrics collectors never
observe a stale object.  Anything the kernel cannot faithfully mirror
(a custom scheduler, flow, TCP or player subclass, or a channel with
its own ``bytes_per_prb_at``) makes the cell fall back to the object
path for the whole run — silently, and detectably via
:attr:`TtiKernel.active`.

**Time.**  A cell's clock is its completed-step count
(``Cell._steps``); every time the kernel hands to objects is that
count times ``step_s`` (:func:`repro.util.step_time`, inlined).  Run
targets are step counts and controller deadlines whole TTIs, so
firing, stopping and lazy-player wake-ups are integer comparisons.

**Idle stride.**  Between segment downloads a client only drains its
buffer, and controllers act once per interval, so most steps of a
servable cell carry no traffic.  When the run loop finds no step hook,
the vector lane off, no backlogged flow and no hot player, it jumps the
clock in O(1) (``TtiKernel._stride``) to the first step at which
anything can happen: the run's stop, a controller's due step, a lazy
player's wake-up or, for primed-table channels, the next fading
bucket's first step.  Skipped steps count as fast steps, so the lazy
idle-TCP and playback replays settle them at the next observation, as
they settle a parked player's owed steps.

**Observability.**  An installed tracer or invariant sanitizer makes
the kernel decline, so the object path runs instead: it emits every
per-step event and runs every per-step check, and it is the reference
the differential tests compare the kernel against.  An installed
profiler leaves the path alone; each :meth:`TtiKernel.run` call is one
``sim.kernel.run`` span.

**Exactness.**  The kernel is differentially tested to produce
*byte-identical* serialized ``CellReport``s to the object path.  Every
floating-point expression replicates the object path's operation order
exactly (``min``/``max`` become tie-exact conditionals, builtin
``sum`` becomes sequential accumulation, constant subexpressions are
hoisted but never re-associated).  The inlined bodies mirror
``FluidTcp.on_delivered``, ``VideoFlow._consume``,
``PlayoutBuffer.drain`` and ``CyclicItbsChannel.itbs_at`` — when those
change, the differential tests in ``tests/sim/test_kernel.py`` fail.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro import check as chk
from repro.has.buffer import PlayoutBuffer
from repro.has.player import HasPlayer, PlaybackState
from repro.mac.gbr import BearerRegistry
from repro.mac.priority_set import PrioritySetScheduler
from repro.mac.rb_trace import RbTraceModule
from repro.net.flows import DataFlow, Flow, VideoFlow
from repro.net.tcp import FluidTcp
from repro.obs import prof
from repro.obs import tracer as obs
from repro.phy.channel import (
    ChannelModel,
    CyclicItbsChannel,
    StaticItbsChannel,
)
from repro.phy.tbs import BYTES_PER_PRB_TABLE, validate_itbs
from repro.sim.engine import earliest_due
from repro.util import require_positive, sequential_replay

if TYPE_CHECKING:
    from repro.sim.cell import Cell

# Per-slot channel evaluation strategies.
_CONST = 0    # StaticItbsChannel: bytes/PRB is a constant
_PLAIN = 1    # base-class bytes_per_prb_at: itbs_at() + table lookup
_CYCLIC = 2   # CyclicItbsChannel: inlined triangular sweep
# Primed per-epoch iTbs tables (duck-typed via KERNEL_PRIMED_ITBS, see
# repro.sim.network.MetroChannel): refreshed once per fading bucket
# instead of one itbs_at() call per slot per step.
_TABLE = 3

# Lazy-playback classes for the event-driven fast step (_step_fast).
# A HOT player is processed scalarly every step, exactly like
# ``Cell.step`` does; the other classes are provably-inert stretches
# whose per-step effects are replayed (with the same float operations,
# in the same order) when the player is next observed.
_PL_HOT = 0    # per-step scalar processing
_PL_PLAY = 1   # PLAYING: drains exactly step_s per step
_PL_STALL = 2  # STALLED below resume: constant level, accruing rebuffer
_PL_INERT = 3  # STARTUP below threshold, FINISHED, or before start

#: Minimum provably-inert steps before a player is parked lazy; below
#: this the bookkeeping costs more than the skipped scalar steps.
_MIN_LAZY = 3

#: Active-set size at which ``_step_fast`` lifts the MAC phase into the
#: numpy vector lane (see ``TtiKernel._vec_step``), and the size below
#: which it drops back to the scalar loop.  The gap is hysteresis: a
#: gather/scatter round trip costs tens of microseconds, so an active
#: set oscillating around a single threshold must not thrash it.
_VEC_MIN = 24
_VEC_EXIT = 12

#: numpy view of the iTbs -> bytes/PRB table for batched lookups.
_BPP_NP = np.array(BYTES_PER_PRB_TABLE)

#: The checked mirror-coverage allowlist (``Class.attr`` -> reason).
#:
#: The parity analyzer (``python -m tools.flarelint.parity``) extracts
#: every instance attribute the scalar object path mutates after
#: construction and requires each to be a maintained kernel mirror —
#: an attribute name with both a gather (load) and a flush (store)
#: site inside :class:`TtiKernel`.  Attributes that are mutated but
#: deliberately *not* mirrored must be listed here with a reason, and
#: the analyzer cross-checks the list both ways: an unexplained
#: unmirrored attribute fails CI, and so does a stale entry (one that
#: is no longer mutated, or that has since become a real mirror).
#:
#: This dict must stay a literal (str keys, str values): the analyzer
#: reads it from the AST without importing the simulator.
KERNEL_UNMIRRORED: dict[str, str] = {  # flarelint: disable=FL009
    # -- Cell topology: every mutation funnels through
    #    Cell._invalidate_kernel(), which marks this kernel dirty so
    #    _rebuild() re-derives all mirrors from scratch.
    "Cell._flows": "topology; mutation invalidates the kernel (rebuild)",
    "Cell._players": "topology; mutation invalidates the kernel (rebuild)",
    "Cell._ladders": "topology; mutation invalidates the kernel (rebuild)",
    "Cell._controllers": "topology; mutation invalidates the kernel (rebuild)",
    "Cell._step_hooks": "topology; mutation invalidates the kernel (rebuild)",
    "Cell._usage_snapshots": "observation-boundary output; appended by "
                             "boundary code while objects are authoritative",
    # -- Player/buffer state: the kernel never simulates these
    #    transitions itself — it calls the player's own methods
    #    (issue_requests, completion callbacks) at observation
    #    boundaries, so the object is authoritative whenever they run.
    "HasPlayer.state": "object-authoritative; kernel only reads it to "
                       "classify lazy-playback stretches",
    "HasPlayer._pending": "object-authoritative via issue_requests at "
                          "boundaries",
    "HasPlayer._active": "object-authoritative via issue_requests at "
                         "boundaries",
    "HasPlayer._next_segment_index": "object-authoritative via "
                                     "issue_requests at boundaries",
    "HasPlayer._payload_start_s": "object-authoritative via issue_requests "
                                  "at boundaries",
    "HasPlayer._step_end_s": "flush-only mirror: kernel writes the "
                             "observation timestamp, never reads it back",
    "HasPlayer._startup_delay_s": "set once on the STARTUP->PLAYING edge, "
                                  "which always runs on the object",
    "HasPlayer._stall_events": "incremented on the PLAYING->STALLED edge, "
                               "which always runs on the object",
    "HasPlayer._abandonments": "abandonment decisions run on the object "
                               "(kernel treats abandonment-enabled "
                               "players as HOT)",
    "HasPlayer._abr_override_index": "written by ABR callbacks, which fire "
                                     "at observation boundaries",
    "HasPlayer.log": "segment records are appended by completion "
                     "callbacks, which fire at observation boundaries",
    "HasPlayer.buffer": "buffer.add runs in completion callbacks at "
                        "observation boundaries",
    "PlayoutBuffer._total_starved_s": "starvation accrues only in STALLED "
                                      "drains, which run on the object "
                                      "(lazy stalls replay via "
                                      "_pl_materialize's rebuffer path)",
    "PlayoutBuffer._overfill_clipped_s": "overfill clipping happens in "
                                         "buffer.add at boundaries",
    "PlayoutBuffer._total_flushed_s": "flush() is a handover/reset "
                                      "operation; it invalidates the "
                                      "kernel",
    # -- Scheduler/MAC transients: recomputed from scratch every step;
    #    the kernel computes its own allocation arrays and flushes the
    #    cumulative accumulators, not the scratch.
    "Allocation.prbs": "per-step transient; kernel computes allocations "
                       "directly into SoA arrays",
    "Allocation.bytes_delivered": "per-step transient; kernel computes "
                                  "allocations directly into SoA arrays",
    "Scheduler._claim_pool": "recycled per-step scratch objects; never "
                             "observable across a step",
    # -- RB trace: departed flows' PRBs.
    "RbTraceModule._retired_prbs": "boundary-only: Cell.remove_flow folds a "
                                   "departed flow's PRBs in while objects "
                                   "are authoritative; the kernel never "
                                   "reads or writes it",
    # -- GBR registry: the kernel resyncs wholesale when
    #    registry.version moves (_resync_registry), instead of
    #    mirroring the dicts field by field.
    "BearerRegistry._bearers": "wholesale resync via registry.version",
    "BearerRegistry._version": "wholesale resync via registry.version",
    # -- Flow demand bookkeeping.
    "Flow._last_wanted": "flush-only mirror: kernel recomputes wanted "
                         "bytes each step and writes the last value back",
}


class TtiKernel:
    """Struct-of-arrays fast path for one :class:`~repro.sim.cell.Cell`.

    Each cell builds one in its constructor and calls :meth:`run`, which
    returns ``False`` — object state left authoritative, and the caller
    runs the object path instead — when the cell's configuration is
    outside the supported envelope or a tracer or sanitizer is armed.
    """

    def __init__(self, cell: Cell) -> None:
        self._cell = cell
        self._step_s = cell.config.step_s
        self._budget = cell.config.prbs_per_step
        self._n = 0
        self._ready = False
        self._dirty = True
        self._unsupported = False
        self._mirrors_hot = False
        self._sched_obj: Any = None
        self._failed_sched: Any = None
        self._reg_version = -1
        # Per-slot static structure (rebuilt on topology change).
        self._flows: list[Flow] = []
        self._flow_ids: list[int] = []
        self._videos: list[Optional[VideoFlow]] = []
        self._channels: list[ChannelModel] = []
        self._ch_mode: list[int] = []
        self._const_bpp: list[float] = []
        self._tcps: list[FluidTcp] = []
        # Per-slot TCP constants (hoisted, never re-associated).
        self._step_over_rtt: list[float] = []
        self._rtt_over_step: list[float] = []
        self._growth: list[float] = []
        self._init_cwnd: list[float] = []
        self._max_cwnd: list[float] = []
        self._idle_reset: list[float] = []
        # Per-player issuance-gate table (player, buffer, start time,
        # request threshold, abandonment enabled, MPD).
        self._issue_info: list[
            tuple[HasPlayer, PlayoutBuffer, float, float, bool, Any]] = []
        # Per-slot mutable mirrors (flushed at observation boundaries).
        self._cwnd: list[float] = []
        self._idle: list[float] = []
        self._totals: list[float] = []
        self._pf_avg: list[float] = []
        self._pf_seen: list[bool] = []
        self._cum_prbs: list[float] = []
        self._cum_bytes: list[float] = []
        self._cum_seen: list[bool] = []
        # Registry-derived views (rebuilt when registry.version moves).
        self._mbr_cap: list[float] = []
        self._gbr_slots: list[tuple[int, float]] = []
        self._gbr_rank: list[int] = []
        self._gbr_rate: list[float] = []
        # Cyclic-channel sweep parameters, indexed by position in
        # ``_cyc_slots`` (the fast step evaluates each active slot's
        # sweep inline).
        self._cyc_slots: list[int] = []
        self._cyc_off: list[float] = []
        self._cyc_cycle: list[float] = []
        self._cyc_lo: list[float] = []
        self._cyc_hi: list[float] = []
        self._cyc_span: list[float] = []
        # Primed-table channels: refreshed once per fading bucket.
        self._tbl_slots: list[int] = []
        self._tbl_channels: list[Any] = []
        self._tbl_itbs: list[int] = []
        self._tbl_period = 0.0
        self._tbl_bucket: Optional[int] = None
        # Per-step scratch (reset by slice-copy from _zeros).
        self._zeros: list[float] = []
        self._bpp: list[float] = []
        self._wanted: list[float] = []
        self._demand: list[float] = []
        self._alloc_prbs: list[float] = []
        self._alloc_bytes: list[float] = []
        # Single-load bundle of the per-slot arrays (see _rebuild).
        self._hot: tuple[list[Any], ...] = ()
        # Event-driven fast-step state (see _step_fast).  ``_fast_steps``
        # counts completed fast steps; lazy players and idle TCP slots
        # record the counter value they are synchronised through, and
        # the difference is the number of owed per-step effects to
        # replay at the next observation.  ``_lazy_ok`` gates parking
        # players lazily; :meth:`run` sets it once per call.
        self._fast_steps = 0
        self._lazy_ok = False
        self._act_slots: list[int] = []      # sorted maybe-backlogged slots
        self._act_member: list[bool] = []
        self._act_stale = True
        self._idle_sync: list[int] = []      # per-slot idle-mirror sync point
        self._pl_slot: list[int] = []        # player index -> flow slot
        self._slot_pl: list[Optional[int]] = []  # flow slot -> player index
        self._mode_pos: list[int] = []       # slot -> index in its mode group
        self._pl_mode: list[int] = []        # per-player lazy class (_PL_*)
        self._pl_sync: list[int] = []        # per-player playback sync point
        self._pl_wake: list[float] = []      # cell step of hot promotion
        self._pl_hot_list: list[int] = []    # sorted hot player indices
        self._pl_wake_min = math.inf
        # Vector-lane state (see _vec_step).  While ``_vec_hot`` the
        # numpy shadows below are authoritative for every masked slot;
        # the list mirrors stay authoritative for everything else.
        self._vec_ok = False
        self._vec_hot = False
        self._vec_bucket: Optional[int] = None
        self._v_mask: Any = None       # bool: slot is vector-owned
        self._v_cwnd: Any = None
        self._v_totals: Any = None
        self._v_pf: Any = None
        self._v_pfseen: Any = None
        self._v_wanted: Any = None
        self._v_demand: Any = None
        self._v_bpp: Any = None
        self._v_backlog: Any = None    # 0.0 for every unmasked slot
        self._v_cp: Any = None         # trace: cumulative PRBs
        self._v_cb: Any = None         # trace: cumulative bytes
        self._v_cseen: Any = None
        self._v_sor: Any = None        # step_s / rtt_s
        self._v_ros: Any = None        # rtt_s / step_s
        self._v_grow: Any = None
        self._v_init: Any = None
        self._v_max: Any = None
        self._v_mbr: Any = None
        self._v_tbl: Any = None        # table-mode slot indices
        self._vg_slots: Any = None     # GBR slots in bearer-rank order
        self._vg_rates: Any = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True while the fast path is driving this cell."""
        return self._ready and not self._unsupported

    def invalidate(self) -> None:
        """Topology changed: rebuild mirrors at the next boundary."""
        self._dirty = True

    # ------------------------------------------------------------------
    # Public driving API (called by the cell)
    # ------------------------------------------------------------------
    def run(self, stop: int) -> bool:
        """Advance the cell until ``stop`` steps are done, on the fast path.

        Due interval controllers and step hooks fire here, as
        observation boundaries around each fused step.  Returns
        ``False`` — objects authoritative, nothing advanced beyond
        already-fired controllers — when a tracer or sanitizer is
        installed or the configuration is (or mid-run becomes)
        unsupported; the caller's object loop continues from the
        current ``now_s``.
        """
        if not self._enter():
            return False
        profiler = prof.PROFILER
        if profiler is not None:
            profiler.begin("sim.kernel.run")
        done = self._advance(stop)
        if profiler is not None:
            profiler.end()
        return done

    def _advance(self, stop: int) -> bool:
        """The run loop behind :meth:`run` (mirrors loaded on entry)."""
        cell = self._cell
        step_ttis = cell._step_ttis
        # A lazily parked player pays off only if it stays parked: a
        # run of a few steps, or a step hook's per-step flush, would
        # replay it at once.
        self._lazy_ok = (not cell._step_hooks
                         and stop - cell._steps > _MIN_LAZY)
        # Bearer-registry changes can only originate at observation
        # boundaries (controller fires, completion callbacks, step
        # hooks), each of which resyncs — so the loop top checks only
        # for topology/scheduler changes.
        while cell._steps < stop:
            if self._dirty or cell.scheduler is not self._sched_obj:
                if not self._sync():
                    return False
            due = earliest_due(cell._controllers)
            if due <= cell._steps * step_ttis:
                self.flush()
                cell._fire_due_controllers()
                if self._dirty or cell.scheduler is not self._sched_obj:
                    continue
                self._reload_boundary()
            elif self._stride(stop, due):
                continue
            self._step_fast()
            if cell._step_hooks:
                self.flush()
                now = cell.now_s
                for hook in cell._step_hooks:
                    hook(now)
                if not self._dirty:
                    self._reload_boundary()
        self.flush()
        return True

    def _stride(self, stop: int, due: float) -> bool:
        """Jump the clock over steps in which nothing can happen.

        A hook-free cell off the vector lane, with no backlogged flow
        and no hot player, lands at the earliest of ``stop``, the step
        at which ``due`` (the earliest controller deadline, in TTIs)
        fires, the first lazy-player wake-up and, for table channels,
        the next fading bucket's first step.  Returns True when steps
        were skipped.
        """
        cell = self._cell
        if cell._step_hooks or self._vec_hot or self._pl_hot_list:
            return False
        if self._act_stale:
            self._act_rescan()
        if self._act_slots:
            return False
        step = cell._steps
        land = stop
        step_ttis = cell._step_ttis
        if due < land * step_ttis:
            land = -(-int(due) // step_ttis)
        if self._pl_wake_min < land:
            land = int(self._pl_wake_min)
        if self._tbl_slots:
            # The fused step's own bucket expression: an unprimed
            # channel evaluates at its bucket's first stepped time.
            step_s = self._step_s
            period = self._tbl_period
            bucket = self._tbl_bucket
            if bucket is None or math.floor(step * step_s / period) != bucket:
                return False
            # First step of the next bucket: an estimate at most a step
            # or two early, settled on the same expression.
            after = int((bucket + 1) * period / step_s) - 1
            while math.floor(after * step_s / period) <= bucket:
                after += 1
            if after < land:
                land = after
        if land <= step:
            return False
        cell._steps = land
        self._fast_steps += land - step
        self._mirrors_hot = True
        return True

    def flush(self) -> None:
        """Write array mirrors back into the object graph.

        Idempotent; a no-op while object state is already
        authoritative.  Lazy fast-step state (owed playback steps, owed
        idle-TCP accumulation) is replayed first, so objects observed
        at any boundary are exactly what the per-step reference path
        would have produced.
        """
        if not self._mirrors_hot:
            return
        self._fast_drain()
        self._flush_mirrors()

    def _fast_drain(self) -> None:
        """Replay every owed lazy effect; objects become step-current."""
        if self._vec_hot:
            self._vec_flush()
        if self._pl_mode:
            now = self._cell.now_s
            pl_hot = self._pl_hot_list
            for j, mode in enumerate(self._pl_mode):
                if mode != _PL_HOT:
                    self._pl_materialize(j, now)
                    insort(pl_hot, j)
            self._pl_wake_min = math.inf
        sync = self._idle_sync
        steps = self._fast_steps
        for i in range(self._n):
            if sync[i] != steps:
                self._idle_materialize(i)

    def _flush_mirrors(self) -> None:
        """The mirror write-back itself (callers drain lazy state)."""
        self._mirrors_hot = False
        cell = self._cell
        flows = self._flows
        cwnd = self._cwnd
        idle = self._idle
        totals = self._totals
        wanted = self._wanted
        for i in range(self._n):
            flow = flows[i]
            flow.total_delivered_bytes = totals[i]
            # ``demand_bytes`` records the step's backlog on the flow;
            # the kernel defers that write to the boundary (only the
            # latest value is observable).
            flow._last_wanted = wanted[i]
            tcp = flow.tcp
            tcp._cwnd = cwnd[i]
            tcp._idle_for_s = idle[i]
        sched = self._sched_obj
        if sched is not None:
            averages = sched.pf._avg_rate_bps
            pf_avg = self._pf_avg
            pf_seen = self._pf_seen
            flow_ids = self._flow_ids
            for i in range(self._n):
                if pf_seen[i]:
                    averages[flow_ids[i]] = pf_avg[i]
        trace = cell.trace
        cum_seen = self._cum_seen
        flow_ids = self._flow_ids
        for i in range(self._n):
            if cum_seen[i]:
                fid = flow_ids[i]
                trace._cumulative_prbs[fid] = self._cum_prbs[i]
                trace._cumulative_bytes[fid] = self._cum_bytes[i]

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def _enter(self) -> bool:
        """Public-boundary entry: objects are authoritative here.

        Declines while a tracer or sanitizer is installed: the object
        path emits every per-step event and runs every per-step check.
        """
        if obs.TRACER is not None or chk.CHECKER is not None:
            return False
        if not self._sync():
            return False
        self._reload_mutable()
        # Penalty epochs (and primed tables) only change between
        # public kernel entries, so the per-bucket iTbs snapshot must
        # be re-read on the first step of every entry.
        self._tbl_bucket = None
        return True

    def _reload_boundary(self) -> None:
        """Re-arm the mirrors after boundary code ran on the objects."""
        if self._cell.registry.version != self._reg_version:
            self._resync_registry()
        self._reload_mutable()

    def _sync(self) -> bool:
        """Ensure mirrors match the current topology; rebuild if not."""
        cell = self._cell
        if self._unsupported:
            # Only retry after something changed; a permanently
            # unsupported cell must not pay a rescan per step.
            if not self._dirty and cell.scheduler is self._failed_sched:
                return False
            self._unsupported = False
        if (self._dirty or not self._ready
                or cell.scheduler is not self._sched_obj):
            self.flush()
            if not self._rebuild():
                self._unsupported = True
                self._failed_sched = cell.scheduler
                return False
        if cell.registry.version != self._reg_version:
            self._resync_registry()
        return True

    def _rebuild(self) -> bool:
        """Re-derive every per-slot structure from the object graph."""
        cell = self._cell
        sched = cell.scheduler
        if type(sched) is not PrioritySetScheduler:
            return False
        if type(cell.registry) is not BearerRegistry:
            return False
        if type(cell.trace) is not RbTraceModule:
            return False
        flows = list(cell._flows)
        players_seen = 0
        for flow in flows:
            if type(flow) not in (VideoFlow, DataFlow):
                return False
            if type(flow.tcp) is not FluidTcp:
                return False
            if (type(flow.ue.channel).bytes_per_prb_at
                    is not ChannelModel.bytes_per_prb_at):
                # A channel with its own bytes_per_prb_at (OutageChannel)
                # is outside the TBS-table chain the step inlines.
                return False
            if flow.flow_id in cell._players:
                players_seen += 1
        if players_seen != len(cell._players):
            # An orphan player (no attached flow) would still be
            # stepped by the object path; don't guess.
            return False
        for player in cell._players.values():
            if type(player) is not HasPlayer:
                return False
            if type(player.buffer) is not PlayoutBuffer:
                return False
        # Issuance-gate table: the per-step request gate re-reads only
        # what can change (playback state, pending/active requests,
        # buffer level); construction-time player configuration is
        # captured here once per topology.
        self._issue_info = [
            (player, player.buffer, player.config.start_time_s,
             player.config.request_threshold_s,
             player.config.abandonment_factor is not None, player.mpd)
            for player in cell._players.values()
        ]
        n = len(flows)
        self._flows = flows
        self._n = n
        self._sched_obj = sched
        self._flow_ids = [flow.flow_id for flow in flows]
        self._videos = [flow if type(flow) is VideoFlow else None
                        for flow in flows]
        step_s = self._step_s
        self._tcps = [flow.tcp for flow in flows]
        self._step_over_rtt = [step_s / tcp.rtt_s for tcp in self._tcps]
        self._rtt_over_step = [tcp.rtt_s / step_s for tcp in self._tcps]
        self._growth = [2.0 ** (step_s / tcp.rtt_s) for tcp in self._tcps]
        self._init_cwnd = [tcp._initial_cwnd for tcp in self._tcps]
        self._max_cwnd = [tcp._max_cwnd for tcp in self._tcps]
        self._idle_reset = [tcp.idle_reset_s for tcp in self._tcps]
        self._channels = [flow.ue.channel for flow in flows]
        self._ch_mode = [_PLAIN] * n
        self._const_bpp = [0.0] * n
        self._cyc_slots = []
        self._cyc_off = []
        self._cyc_cycle = []
        self._cyc_lo = []
        self._cyc_hi = []
        self._cyc_span = []
        self._tbl_slots = []
        self._tbl_channels = []
        self._tbl_period = 0.0
        self._tbl_bucket = None
        for i, channel in enumerate(self._channels):
            if type(channel) is StaticItbsChannel:
                self._ch_mode[i] = _CONST
                self._const_bpp[i] = BYTES_PER_PRB_TABLE[channel._itbs]
            elif type(channel) is CyclicItbsChannel:
                self._ch_mode[i] = _CYCLIC
                self._cyc_slots.append(i)
                self._cyc_off.append(channel._offset)
                self._cyc_cycle.append(channel._cycle)
                self._cyc_lo.append(channel._lo)
                self._cyc_hi.append(channel._hi)
                self._cyc_span.append(channel._hi - channel._lo)
            elif self._classify_table(channel):
                self._ch_mode[i] = _TABLE
                self._tbl_slots.append(i)
                self._tbl_channels.append(channel)
        self._tbl_itbs = [0] * len(self._tbl_slots)
        self._zeros = [0.0] * n
        self._bpp = [0.0] * n
        self._wanted = [0.0] * n
        self._demand = [0.0] * n
        self._alloc_prbs = [0.0] * n
        self._alloc_bytes = [0.0] * n
        self._cwnd = [0.0] * n
        self._idle = [0.0] * n
        self._totals = [0.0] * n
        self._pf_avg = [0.0] * n
        self._pf_seen = [False] * n
        self._cum_prbs = [0.0] * n
        self._cum_bytes = [0.0] * n
        self._cum_seen = [False] * n
        self._dirty = False
        self._ready = True
        # Event-driven fast-step maps and state.
        self._fast_steps = 0
        self._act_stale = True
        self._act_slots = []
        self._act_member = [False] * n
        self._idle_sync = [0] * n
        self._mode_pos = [0] * n
        for pos, slot in enumerate(self._tbl_slots):
            self._mode_pos[slot] = pos
        for pos, slot in enumerate(self._cyc_slots):
            self._mode_pos[slot] = pos
        slot_of = {fid: i for i, fid in enumerate(self._flow_ids)}
        self._pl_slot = [slot_of[info[0].flow.flow_id]
                         for info in self._issue_info]
        self._slot_pl = [None] * n
        for j, slot in enumerate(self._pl_slot):
            self._slot_pl[slot] = j
        players = len(self._issue_info)
        self._pl_mode = [_PL_HOT] * players
        self._pl_sync = [0] * players
        self._pl_wake = [math.inf] * players
        self._pl_hot_list = list(range(players))
        self._pl_wake_min = math.inf
        self._resync_registry()
        self._reload_mutable()
        # One-load bundle of every per-slot array the scalar MAC phase
        # of ``_step_fast`` touches; it unpacks them in a single
        # statement instead of ~25 attribute loads per step.  Everything
        # in here is mutated in place (never rebound) until the next
        # rebuild.
        self._hot = (
            self._ch_mode, self._const_bpp, self._bpp, self._wanted,
            self._demand, self._videos, self._channels, self._cwnd,
            self._step_over_rtt, self._mbr_cap, self._pf_avg,
            self._pf_seen, self._alloc_prbs, self._alloc_bytes,
            self._zeros, self._totals, self._idle, self._init_cwnd,
            self._max_cwnd, self._growth, self._rtt_over_step,
            self._cum_prbs, self._cum_bytes, self._cum_seen,
        )
        # Vector-lane eligibility is structural: every channel must be
        # bucket-constant (_CONST/_TABLE, i.e. bytes/PRB is a pure
        # per-bucket table value) and no player may abandon downloads
        # (abandonment cancels a transfer mid-flight, which only the
        # per-slot scalar paths detect).
        self._vec_hot = False
        self._vec_ok = (
            all(m == _CONST or m == _TABLE for m in self._ch_mode)
            and not any(info[4] for info in self._issue_info))
        return True

    def _classify_table(self, channel: ChannelModel) -> bool:
        """True when ``channel`` rides the primed-table fast path.

        Duck-typed against :class:`~repro.sim.network.MetroChannel`
        (this module cannot import the network layer): the channel
        type must expose ``KERNEL_PRIMED_ITBS`` *identical to* its own
        ``itbs_at`` — a subclass overriding ``itbs_at`` breaks the
        identity and falls back to the per-slot ``_PLAIN`` path — and
        all table channels of a cell must share one fading period so
        one bucket grid covers them.
        """
        channel_type = type(channel)
        primed_ref = getattr(channel_type, "KERNEL_PRIMED_ITBS", None)
        if primed_ref is None or primed_ref is not channel_type.itbs_at:
            return False
        period = getattr(channel, "fading_period_s", None)
        if not isinstance(period, float) or period <= 0.0:
            return False
        if not self._tbl_slots:
            self._tbl_period = period
            return True
        return period == self._tbl_period

    def _resync_registry(self) -> None:
        """Refresh the GBR/MBR byte budgets from the bearer registry."""
        cell = self._cell
        registry = cell.registry
        step_s = self._step_s
        # In-place so the ``_hot`` bundle (built after the first resync)
        # keeps seeing the same list object across re-syncs.
        self._mbr_cap[:] = [registry.mbr_bytes_for_step(fid, step_s)
                            for fid in self._flow_ids]
        slot_of = {fid: i for i, fid in enumerate(self._flow_ids)}
        gbr_slots: list[tuple[int, float]] = []
        for fid, _qos in registry.gbr_flows():
            slot = slot_of.get(fid)
            if slot is None:
                # Stale bearer: the object path's by_id.get() also
                # skips it.
                continue
            gbr_slots.append(
                (slot, registry.gbr_bytes_for_step(fid, step_s)))
        self._gbr_slots = gbr_slots
        # Per-slot views of the same data for the fast step: bearer
        # priority rank (-1 = no GBR bearer) and per-step guarantee.
        self._gbr_rank = [-1] * self._n
        self._gbr_rate = [0.0] * self._n
        for rank, (slot, guarantee) in enumerate(gbr_slots):
            self._gbr_rank[slot] = rank
            self._gbr_rate[slot] = guarantee
        if self._vec_hot:
            # Mid-run resync (an in-lane completion callback touched
            # the registry): refresh the lane's registry-derived views.
            self._v_mbr = np.array(self._mbr_cap)
            self._vg_slots = np.array(
                [slot for slot, _ in gbr_slots], dtype=np.intp)
            self._vg_rates = np.array([g for _, g in gbr_slots])
        self._reg_version = registry.version

    def _reload_mutable(self) -> None:
        """Re-read every mirrored mutable from the object graph."""
        cell = self._cell
        flows = self._flows
        tcps = self._tcps
        flow_ids = self._flow_ids
        for i in range(self._n):
            self._totals[i] = flows[i].total_delivered_bytes
            tcp = tcps[i]
            self._cwnd[i] = tcp._cwnd
            self._idle[i] = tcp._idle_for_s
        sched = self._sched_obj
        averages = sched.pf._avg_rate_bps
        trace = cell.trace
        cum_prbs = trace._cumulative_prbs
        cum_bytes = trace._cumulative_bytes
        for i in range(self._n):
            fid = flow_ids[i]
            self._pf_seen[i] = fid in averages
            self._pf_avg[i] = averages.get(fid, 0.0)
            self._cum_seen[i] = fid in cum_prbs
            self._cum_prbs[i] = cum_prbs.get(fid, 0.0)
            self._cum_bytes[i] = cum_bytes.get(fid, 0.0)
        self._mirrors_hot = False
        # Boundary code may have issued or cancelled downloads.
        self._act_stale = True

    # ------------------------------------------------------------------
    # Event-driven fast step
    # ------------------------------------------------------------------
    def _idle_materialize(self, i: int) -> None:
        """Replay owed idle-TCP accumulation for slot ``i``.

        An unbacklogged flow's whole per-step effect is ``idle +=
        step; if idle >= reset: cwnd = init`` — a monotone float
        accumulation plus an idempotent pin — so replaying the adds in
        one loop and applying the pin once at the end is byte-identical
        to the per-step reference.
        """
        owed = self._fast_steps - self._idle_sync[i]
        self._idle_sync[i] = self._fast_steps
        if owed <= 0:
            return
        step_s = self._step_s
        value = self._idle[i]
        for _ in range(owed):
            value += step_s
        self._idle[i] = value
        if value >= self._idle_reset[i]:
            self._cwnd[i] = self._init_cwnd[i]

    def _act_rescan(self) -> None:
        """Rebuild the maybe-backlogged slot set from the object graph.

        Non-live slots get ``demand`` and ``wanted`` pinned to 0.0: the
        object path's claims recompute both for every flow every step
        (0.0 whenever the backlog is 0), while the fast step's claims loop
        only touches the active set — the pin keeps the GBR phase
        (which reads ``demand`` across *all* bearer slots) and the
        boundary flush of ``demand_bytes`` byte-identical for slots
        deactivated outside the claims loop (boundary cancellations,
        in-lane vector completions).
        """
        videos = self._videos
        member = self._act_member
        demand = self._demand
        wanted = self._wanted
        act: list[int] = []
        for i in range(self._n):
            video = videos[i]
            live = video is None or video._download_active
            member[i] = live
            if live:
                act.append(i)
            else:
                demand[i] = 0.0
                wanted[i] = 0.0
        self._act_slots = act
        self._act_stale = False

    # ------------------------------------------------------------------
    # Vector lane: full-width numpy MAC phase for dense active sets
    # ------------------------------------------------------------------
    def _vec_gather(self) -> None:
        """Lift the hot mirrors into numpy shadows (enter the lane).

        Masked (active) slots become vector-owned; the list mirrors
        stay authoritative for every other slot.  The shadows hold
        real values for *all* slots so full-width arithmetic never
        sees garbage — unmasked lanes compute a demand of exactly 0.0
        (their backlog shadow is pinned to 0.0) and are never
        committed or scattered.

        The active set still holds any slot whose download finished on
        the previous scalar step (the claims loop prunes lazily), so it
        is rescanned first: masked with a zero backlog such a slot would
        take the active TCP branch, where the object path accrues idle
        time.
        """
        self._act_rescan()
        npx = np
        self._v_cwnd = npx.array(self._cwnd)
        self._v_totals = npx.array(self._totals)
        self._v_pf = npx.array(self._pf_avg)
        self._v_pfseen = npx.array(self._pf_seen)
        self._v_wanted = npx.array(self._wanted)
        self._v_demand = npx.array(self._demand)
        self._v_cp = npx.array(self._cum_prbs)
        self._v_cb = npx.array(self._cum_bytes)
        self._v_cseen = npx.array(self._cum_seen)
        self._v_sor = npx.array(self._step_over_rtt)
        self._v_ros = npx.array(self._rtt_over_step)
        self._v_grow = npx.array(self._growth)
        self._v_init = npx.array(self._init_cwnd)
        self._v_max = npx.array(self._max_cwnd)
        self._v_mbr = npx.array(self._mbr_cap)
        self._v_bpp = npx.array(self._const_bpp)
        self._v_tbl = npx.array(self._tbl_slots, dtype=npx.intp)
        self._vec_bucket = None  # force a table-lookup refresh
        gbr = self._gbr_slots
        self._vg_slots = npx.array([slot for slot, _ in gbr],
                                   dtype=npx.intp)
        self._vg_rates = npx.array([g for _, g in gbr])
        mask = npx.zeros(self._n, dtype=bool)
        backlog = npx.zeros(self._n)
        videos = self._videos
        idle = self._idle
        sync = self._idle_sync
        synced = self._fast_steps + 1
        inf = math.inf
        for i in self._act_slots:
            mask[i] = True
            video = videos[i]
            backlog[i] = inf if video is None else video._remaining_bytes
            # The delivery branch the lane replaces pins the idle clock
            # to zero every active step; pre-credit this step's write
            # (the step always completes once gather runs).
            idle[i] = 0.0
            sync[i] = synced
        self._v_mask = mask
        self._v_backlog = backlog
        # Per-step scratch (reused via ``out=`` to avoid allocations).
        n = self._n
        self._s_limit = npx.empty(n)
        self._s_fd = npx.empty(n)
        self._s_ap = npx.empty(n)
        self._s_ab = npx.empty(n)
        self._s_t1 = npx.empty(n)
        self._s_t2 = npx.empty(n)
        self._s_t3 = npx.empty(n)
        self._s_t4 = npx.empty(n)
        self._s_spare = npx.empty(n)
        self._s_active = npx.empty(n, dtype=bool)
        self._s_b1 = npx.empty(n, dtype=bool)
        self._s_b2 = npx.empty(n, dtype=bool)
        self._s_b3 = npx.empty(n, dtype=bool)
        pf = self._sched_obj.pf
        decay = self._step_s / pf.time_constant_s
        if decay > 1.0:
            decay = 1.0
        self._s_decay = decay
        self._vec_hot = True

    def _vec_flush(self) -> None:
        """Scatter vector-owned state back into the list mirrors.

        After this the lists are authoritative again for every slot,
        exactly as if the scalar fast step had run: active slots carry
        a zero idle clock synchronised through the last completed
        step, and video backlogs are written back onto the flows.
        """
        if not self._vec_hot:
            return
        self._vec_hot = False
        npx = np
        mask = self._v_mask
        pairs = (
            (self._cwnd, self._v_cwnd),
            (self._totals, self._v_totals),
            (self._pf_avg, self._v_pf),
            (self._wanted, self._v_wanted),
            (self._demand, self._v_demand),
            (self._cum_prbs, self._v_cp),
            (self._cum_bytes, self._v_cb),
            (self._pf_seen, self._v_pfseen),
            (self._cum_seen, self._v_cseen),
        )
        for lst, arr in pairs:
            merged = npx.array(lst)
            npx.copyto(merged, arr, where=mask)
            lst[:] = merged.tolist()
        steps = self._fast_steps
        sync = self._idle_sync
        videos = self._videos
        backlog = self._v_backlog.tolist()
        for i in npx.nonzero(mask)[0].tolist():
            # The slot's last delivery set its (lazily skipped) idle
            # write to "0.0 as of the end of that step".
            sync[i] = steps
            video = videos[i]
            if video is not None:
                video._remaining_bytes = backlog[i]

    def _vec_join(self, slot: int) -> None:
        """Gather one newly activated slot into the hot lane.

        The caller has already replayed the slot's owed idle-TCP state
        (so the list mirrors are current) and inserted it into the
        active set; this lifts those mirrors into the shadows and pins
        the idle clock exactly like the scalar delivery branch does on
        a first active step.
        """
        self._v_mask[slot] = True
        self._v_cwnd[slot] = self._cwnd[slot]
        self._v_totals[slot] = self._totals[slot]
        self._v_pf[slot] = self._pf_avg[slot]
        self._v_pfseen[slot] = self._pf_seen[slot]
        self._v_cp[slot] = self._cum_prbs[slot]
        self._v_cb[slot] = self._cum_bytes[slot]
        self._v_cseen[slot] = self._cum_seen[slot]
        video = self._videos[slot]
        self._v_backlog[slot] = (math.inf if video is None
                                 else video._remaining_bytes)
        self._idle[slot] = 0.0
        self._idle_sync[slot] = self._fast_steps + 1

    def _vec_leave(self, i: int) -> None:
        """Slot-selective write-back at an in-lane completion.

        The completing slot's mirrors and flow/TCP objects are brought
        step-current before the completion callback runs (the callback
        chain reads only player-local and this-flow state; scheduler
        averages and RB-trace objects are boundary-flushed from the
        now-synchronised lists as usual).  The slot then reverts to
        list ownership and the lazy idle-TCP discipline.
        """
        self._cwnd[i] = vc = float(self._v_cwnd[i])
        self._totals[i] = vt = float(self._v_totals[i])
        self._pf_avg[i] = float(self._v_pf[i])
        self._pf_seen[i] = bool(self._v_pfseen[i])
        self._wanted[i] = vw = float(self._v_wanted[i])
        self._demand[i] = float(self._v_demand[i])
        self._cum_prbs[i] = float(self._v_cp[i])
        self._cum_bytes[i] = float(self._v_cb[i])
        self._cum_seen[i] = bool(self._v_cseen[i])
        self._idle_sync[i] = self._fast_steps + 1
        flow = self._flows[i]
        flow.total_delivered_bytes = vt
        flow._last_wanted = vw
        tcp = flow.tcp
        tcp._cwnd = vc
        tcp._idle_for_s = 0.0
        self._v_mask[i] = False
        self._v_backlog[i] = 0.0
        self._act_member[i] = False
        self._act_stale = True

    @staticmethod
    @sequential_replay
    def _gbr_chain(asks, remaining):
        """Replay the reference GBR budget chain on python floats.

        The per-bearer grants are elementwise; only the running PRB
        budget is sequential.  This loop reproduces the reference
        walk's budget arithmetic exactly — the ``<= 1e-12`` exhaustion
        break precedes each grant, a zero ask subtracts an exact
        ``0.0`` (identical to the reference skipping the zero-need
        bearer), and a clamped grant zeroes the budget via
        ``remaining - remaining`` — so the caller can commit every
        pre-cutoff grant as one vector store.

        Returns ``(cut, part, remaining)``: every bearer before
        ``cut`` took its full ask; ``part`` is the clamped PRB grant
        absorbed by bearer ``cut`` when the budget ran out mid-ask
        (``None`` when bearer ``cut`` was refused outright).
        """
        cut = len(asks)
        for k in range(cut):
            if remaining <= 1e-12:
                return k, None, remaining
            ask = asks[k]
            if ask <= remaining:
                remaining -= ask
            else:
                # Clamp: bearer k absorbs the whole residual budget.
                return k, remaining, 0.0
        return cut, None, remaining

    def _vec_step(self, now: float, end: float, step_s: float) -> None:
        """Full-width numpy claims -> GBR -> PF -> delivery phase.

        Byte-identity with the scalar loops rests on three facts:
        elementwise float64 numpy arithmetic performs the same IEEE
        operations as the scalar expressions it replaces; ``x + 0.0``
        and ``x - 0.0`` are exact for the non-negative quantities
        accumulated here, so full-width updates match the reference's
        skip-if-zero guards; and the two order-sensitive reductions —
        the GBR budget walk and the PF waterfill — run as exact
        sequential chains on python floats extracted bit-for-bit from
        the arrays (``_gbr_chain`` and the scalar ``_waterfill``).
        """
        npx = np
        mask = self._v_mask
        if self._vec_bucket != self._tbl_bucket:
            # New fading bucket: batch the per-slot table lookups the
            # scalar claims loop performs (same table, same indices).
            self._vec_bucket = self._tbl_bucket
            if self._tbl_slots:
                self._v_bpp[self._v_tbl] = _BPP_NP[
                    npx.array(self._tbl_itbs)]
        bpp = self._v_bpp
        backlog = self._v_backlog
        cwnd = self._v_cwnd

        # --- Claims: demand = min(backlog, window, MBR cap). ---------
        limit = self._s_limit
        npx.multiply(cwnd, self._v_sor, out=limit)
        fd = self._s_fd
        npx.minimum(backlog, limit, out=fd)
        npx.minimum(fd, self._v_mbr, out=fd)
        self._v_demand = demand = fd
        active = self._s_active
        npx.greater(fd, 0.0, out=active)

        # --- Phase 1: GBR guarantees in bearer-priority order. -------
        a_p = self._s_ap
        a_b = self._s_ab
        a_p.fill(0.0)
        a_b.fill(0.0)
        remaining = self._budget
        vg = self._vg_slots
        if vg.size:
            # Gather in bearer-rank order, run the budget chain, scatter
            # the pre-cutoff grants.
            d_g = demand[vg]
            b_g = bpp[vg]
            asks = npx.minimum(self._vg_rates, d_g)
            npx.divide(asks, b_g, out=asks)
            cut, part, remaining = self._gbr_chain(asks.tolist(),
                                                   remaining)
            if cut:
                vh = vg[:cut]
                ask_h = asks[:cut]
                delivered = ask_h * b_g[:cut]
                a_p[vh] = ask_h
                a_b[vh] = delivered
                demand[vh] = d_g[:cut] - delivered
            if part is not None:
                slot = int(vg[cut])
                got = part * float(b_g[cut])
                a_p[slot] = part
                a_b[slot] = got
                demand[slot] = float(d_g[cut]) - got

        # --- Phase 2: proportional-fair waterfill of the rest. -------
        # (bpp > 0 for every slot in vec mode: only OutageChannel can
        # yield a zero, and outage-wrapped channels disqualify the
        # lane in ``_rebuild``.)
        if remaining > 1e-12:
            cand = self._s_b2
            npx.greater(demand, 1e-9, out=cand)
            cand_idx = npx.nonzero(cand)[0]
            if cand_idx.size:
                dc = demand[cand_idx]
                bc = bpp[cand_idx]
                ach = (bc * 8) / step_s
                weights = ach / npx.maximum(self._v_pf[cand_idx], 1e3)
                caps = dc / bc
                # The waterfill's round structure is order-sensitive;
                # tolist() hands it the same doubles as python floats.
                grants = _waterfill(remaining, caps.tolist(),
                                    weights.tolist())
                gr = npx.array(grants)
                got = npx.minimum(gr * bc, dc)
                demand[cand_idx] = dc - got
                a_p[cand_idx] += gr
                a_b[cand_idx] += got

        # --- PF served-average EWMA (positive-demand flows only). ----
        decay = self._s_decay
        t1 = self._s_t1
        npx.multiply(a_b, 8, out=t1)
        npx.divide(t1, step_s, out=t1)              # rate
        npx.multiply(t1, decay, out=t1)             # decay * rate
        t2 = self._s_t2
        npx.multiply(self._v_pf, 1 - decay, out=t2)
        npx.add(t2, t1, out=t2)
        npx.copyto(self._v_pf, t2, where=active)
        self._v_pfseen |= active

        # --- Delivery: totals, TCP window, backlog, RB trace. --------
        self._v_totals += a_b
        npx.minimum(backlog, limit, out=t1)         # window_min
        npx.subtract(t1, 1e-9, out=t1)
        sel = self._s_b1
        npx.greater_equal(a_b, t1, out=sel)
        npx.multiply(cwnd, self._v_grow, out=t2)
        npx.minimum(t2, self._v_max, out=t2)        # grown
        t3 = self._s_t3
        npx.multiply(a_b, self._v_ros, out=t3)
        npx.multiply(t3, 1.25, out=t3)
        npx.maximum(t3, self._v_init, out=t3)       # target
        t4 = self._s_t4
        npx.subtract(t3, cwnd, out=t4)
        npx.multiply(t4, 0.5, out=t4)
        npx.add(cwnd, t4, out=t4)                   # shrunk
        npx.copyto(t4, t2, where=sel)
        npx.copyto(cwnd, t4, where=mask)
        # bpp > 0 for every slot in vec mode, so bytes were delivered
        # exactly when PRBs were granted: one comparison covers both.
        granted = self._s_b3
        npx.greater(a_b, 0.0, out=granted)
        nb = self._s_spare
        npx.subtract(backlog, a_b, out=nb)
        comp = self._s_b2
        npx.less_equal(nb, 1e-6, out=comp)
        comp &= granted
        # Rotate the three backlog buffers: this step's start backlog
        # becomes the recorded "wanted" (the reference writes
        # ``wanted[i] = backlog`` in its claims loop), the new backlog
        # takes over, and the freed wanted array is next step's
        # subtraction scratch.
        self._s_spare = self._v_wanted
        self._v_wanted = backlog
        self._v_backlog = nb
        self._v_cp += a_p
        self._v_cb += a_b
        self._v_cseen |= granted

        # --- Completion boundaries (rare; ascending slot order). -----
        if bool(comp.any()):
            cell = self._cell
            slot_pl = self._slot_pl
            videos = self._videos
            for i in npx.nonzero(comp)[0].tolist():
                self._v_backlog[i] = 0.0
                self._vec_leave(i)
                pj = slot_pl[i]
                if pj is not None and self._pl_mode[pj] != _PL_HOT:
                    self._pl_materialize(pj, end)
                    insort(self._pl_hot_list, pj)
                video = videos[i]
                video._remaining_bytes = 0.0
                video._download_active = False
                callback = video._completion_callback
                video._completion_callback = None
                if callback is not None:
                    callback()
                if (not self._dirty
                        and cell.registry.version != self._reg_version):
                    self._resync_registry()

    def _pl_materialize(self, j: int, end_s: float) -> None:
        """Replay a lazy player's owed steps; the player becomes HOT.

        The replay performs the exact per-step float operations the
        reference playback path would have run (``level -= step`` and
        ``played += step`` while playing, ``rebuffer += step`` while
        stalled), so the object graph ends up byte-identical to
        per-step evaluation.
        """
        mode = self._pl_mode[j]
        self._pl_mode[j] = _PL_HOT
        self._pl_wake[j] = math.inf
        owed = self._fast_steps - self._pl_sync[j]
        self._pl_sync[j] = self._fast_steps
        info = self._issue_info[j]
        player = info[0]
        player._step_end_s = end_s
        if mode == _PL_HOT or owed <= 0:
            return
        step_s = self._step_s
        buffer = info[1]
        if mode == _PL_PLAY:
            level = buffer._level_s
            played = buffer._total_played_s
            for _ in range(owed):
                level -= step_s
                played += step_s
            buffer._level_s = level
            buffer._total_played_s = played
        elif mode == _PL_STALL:
            rebuffer = player._rebuffer_s
            for _ in range(owed):
                rebuffer += step_s
            player._rebuffer_s = rebuffer
        # _PL_INERT: no per-step effects beyond _step_end_s.

    def _pl_promote(self, step: int, now: float) -> None:
        """Wake lazy players due at ``step`` (which starts at ``now``)."""
        wake = self._pl_wake
        hot = self._pl_hot_list
        new_min = math.inf
        for j, mode in enumerate(self._pl_mode):
            if mode == _PL_HOT:
                continue
            when = wake[j]
            if when <= step:
                self._pl_materialize(j, now)
                insort(hot, j)
            elif when < new_min:
                new_min = when
        self._pl_wake_min = new_min

    def _pl_try_lazy(self, j: int, end_step: int, end_s: float) -> bool:
        """Park player ``j`` lazy when provably inert; True on success.

        ``end_step``/``end_s``: the cell's step count and time now.

        The wake bounds carry two-step safety margins on top of the
        exact-arithmetic crossing estimates (per-step float drift over
        a bounded window is orders of magnitude below ``step_s``), so
        every state transition and request decision still happens on
        the exact per-step scalar path — laziness only skips steps
        where the issue gate and the playback state machine provably
        cannot act.
        """
        (player, buffer, start_s, threshold_s, can_abandon,
         mpd) = self._issue_info[j]
        state = player.state
        step_s = self._step_s
        far = 1 << 30
        if state is PlaybackState.FINISHED:
            mode = _PL_INERT
            k = far
        elif end_s < start_s:
            mode = _PL_INERT
            k = int((start_s - end_s) / step_s) - 2
        elif state is PlaybackState.PLAYING:
            mode = _PL_PLAY
            level = buffer._level_s
            k = int(level / step_s) - 3          # starvation bound
            pending = player._pending
            active = player._active
            if pending is not None:
                k_issue = int(
                    (pending.payload_starts_at_s - end_s) / step_s) - 2
                if k_issue < k:
                    k = k_issue
            elif active is not None:
                if can_abandon and active.ladder_index != 0:
                    return False          # abandon check runs every step
            elif mpd.has_segment(player._next_segment_index):
                k_issue = int((level - threshold_s) / step_s) - 2
                if k_issue < k:
                    k = k_issue
        else:
            # STARTUP / STALLED: the buffer level is constant, and the
            # hot step that just ran would already have transitioned or
            # issued if it could — so the state is static until a
            # pending payload arrives or a completion wakes the player.
            level = buffer._level_s
            threshold = (player.startup_threshold_s
                         if state is PlaybackState.STARTUP
                         else player.resume_threshold_s)
            if level >= threshold:
                return False              # transition due next step
            pending = player._pending
            if pending is not None:
                k = int((pending.payload_starts_at_s - end_s) / step_s) - 2
            elif player._active is not None:
                k = far                   # completion wakes the player
            elif (level < threshold_s
                  and mpd.has_segment(player._next_segment_index)):
                return False              # would issue next step
            else:
                k = far
            mode = (_PL_INERT if state is PlaybackState.STARTUP
                    else _PL_STALL)
        if k < _MIN_LAZY:
            return False
        self._pl_mode[j] = mode
        self._pl_sync[j] = self._fast_steps
        wake = math.inf if k >= far else end_step + k
        self._pl_wake[j] = wake
        if wake < self._pl_wake_min:
            self._pl_wake_min = wake
        return True

    def _step_fast(self) -> None:
        """One fluid MAC step that runs only work with an observable effect.

        This is ``Cell.step`` between its boundaries (:meth:`run` fires
        due controllers before it and step hooks after it), with the
        same phases in the same order: request issuance, claims, the
        GBR pass in bearer-priority order, the PF waterfill over the
        post-GBR residual demand, the PF average update, delivery with
        its completion callbacks, and playback.  Everything that runs
        copies the object path's expressions verbatim.  What it skips
        is provably a no-op there, or is deferred and replayed exactly:

        * Issue gates.  A hot player calls ``issue_requests`` only when
          the call can act; a lazy player skips the gate, because its
          wake bound proves the gate cannot fire before then.
        * Unbacklogged flows.  Their demand is 0.0, so the GBR walk's
          ``need <= 0`` guard and the PF candidate filter pass over
          them without touching the budget, and ``totals += 0.0``, the
          PF update and the RB-trace record are no-ops.  Their channel
          result is never read, so only backlogged slots query theirs.
          That is exact for a channel whose answer does not depend on
          which earlier steps queried it.  Primed-table channels
          refresh every slot at the first step of each fading bucket,
          where the object path's per-bucket caches fill.
        * Idle-TCP accumulation and playback drains.  These are
          deferred, then replayed with identical float operations by
          ``_idle_materialize`` and ``_pl_materialize``.
        """
        cell = self._cell
        step = cell._steps
        step_s = self._step_s
        # repro.util.step_time, inlined (a call per step costs ~2%).
        now = step * step_s
        end = (step + 1) * step_s
        self._mirrors_hot = True
        if self._pl_wake_min <= step:
            self._pl_promote(step, now)
        if self._act_stale:
            self._act_rescan()

        # --- Vector-lane entry/exit (hysteresis, see _VEC_MIN). ------
        if self._vec_ok:
            if self._vec_hot:
                if len(self._act_slots) < _VEC_EXIT:
                    self._vec_flush()
            elif len(self._act_slots) >= _VEC_MIN:
                self._vec_gather()

        # --- Issue gate: hot players only (lazy ones provably skip). -
        playing = PlaybackState.PLAYING
        finished = PlaybackState.FINISHED
        issue_info = self._issue_info
        pl_slot = self._pl_slot
        member = self._act_member
        act_slots = self._act_slots
        videos = self._videos
        for j in self._pl_hot_list:
            (player, buffer, start_s, threshold_s, can_abandon,
             mpd) = issue_info[j]
            state = player.state
            if state is finished or now < start_s:
                player._step_end_s = end
                continue
            pending = player._pending
            active = player._active
            called = False
            if pending is not None:
                if now >= pending.payload_starts_at_s:
                    player.issue_requests(now)
                    called = True
            elif active is not None:
                if (state is playing and active.ladder_index != 0
                        and can_abandon):
                    player.issue_requests(now)
                    called = True
            elif (buffer._level_s < threshold_s
                  and mpd.has_segment(player._next_segment_index)):
                player.issue_requests(now)
                called = True
            player._step_end_s = end
            if called:
                slot = pl_slot[j]
                if videos[slot]._download_active and not member[slot]:
                    self._idle_materialize(slot)
                    member[slot] = True
                    insort(act_slots, slot)
                    if self._vec_hot:
                        self._vec_join(slot)

        # --- Channel table refresh (shared by both MAC phases). ------
        if self._tbl_slots:
            bucket = math.floor(now / self._tbl_period)
            if bucket != self._tbl_bucket:
                self._fill_table(now, bucket)
                self._tbl_bucket = bucket
        if self._vec_hot:
            # --- Vectorised MAC phase (claims .. completions). -------
            self._vec_step(now, end, step_s)
        else:
            # --- Claims over the maybe-backlogged set. ---------------
            (modes, const_bpp, bpp, wanted, demand, videos_h, channels,
             cwnd, step_over_rtt, mbr_cap, pf_avg, pf_seen, alloc_prbs,
             alloc_bytes, zeros, totals, idle, init_cwnd, max_cwnd,
             growth, rtt_over_step, cum_prbs, cum_bytes,
             cum_seen) = self._hot
            tbl_itbs = self._tbl_itbs
            mode_pos = self._mode_pos
            gbr_slots = self._gbr_slots
            # Without GBR bearers the PF candidate set can be built fused
            # into the claims loop (phase 1 never touches demand); with
            # them it is rebuilt after the GBR phase, like the reference.
            fused_cand = not gbr_slots
            step_act: list[int] = []
            active_list: list[int] = []
            cand: list[int] = []
            weights: list[float] = []
            caps: list[float] = []
            pruned = False
            for i in act_slots:
                video = videos_h[i]
                if video is None:
                    backlog = math.inf
                elif video._download_active:
                    backlog = video._remaining_bytes
                else:
                    # Download finished or was abandoned: the slot reverts
                    # to the object path's idle branch (wanted = 0, lazy
                    # idle accumulation from this step onwards).  demand
                    # is pinned to 0.0 so the GBR phase sees the object
                    # path's value for slots the claims loop no longer
                    # visits.
                    wanted[i] = 0.0
                    demand[i] = 0.0
                    member[i] = False
                    pruned = True
                    continue
                step_act.append(i)
                mode = modes[i]
                if mode == _CONST:
                    bytes_per_prb = const_bpp[i]
                elif mode == _TABLE:
                    bytes_per_prb = BYTES_PER_PRB_TABLE[tbl_itbs[mode_pos[i]]]
                elif mode == _CYCLIC:
                    # Inlined CyclicItbsChannel.itbs_at (same float
                    # operations in the same order).
                    pos = mode_pos[i]
                    cycle = self._cyc_cycle[pos]
                    phase = ((now + self._cyc_off[pos]) % cycle) / cycle
                    if phase < 0.5:
                        level = (self._cyc_lo[pos]
                                 + 2.0 * phase * self._cyc_span[pos])
                    else:
                        level = (self._cyc_hi[pos]
                                 - 2.0 * (phase - 0.5) * self._cyc_span[pos])
                    bytes_per_prb = BYTES_PER_PRB_TABLE[int(round(level))]
                else:  # _PLAIN: the base-class bytes_per_prb_at chain
                    bytes_per_prb = BYTES_PER_PRB_TABLE[
                        validate_itbs(channels[i].itbs_at(now))]
                bpp[i] = bytes_per_prb
                wanted[i] = backlog
                if backlog <= 0:
                    flow_demand = 0.0
                else:
                    limit = cwnd[i] * step_over_rtt[i]
                    flow_demand = backlog if backlog <= limit else limit
                    cap = mbr_cap[i]
                    if flow_demand > cap:
                        flow_demand = cap
                demand[i] = flow_demand
                if flow_demand > 0:
                    active_list.append(i)
                    if fused_cand and flow_demand > 1e-9 and bytes_per_prb > 0:
                        cand.append(i)
                        achievable = (bytes_per_prb * 8) / step_s
                        avg = pf_avg[i]
                        weights.append(
                            achievable / (avg if avg >= 1e3 else 1e3))
                        caps.append(flow_demand / bytes_per_prb)
            if pruned:
                self._act_slots = [i for i in act_slots if member[i]]

            # --- Phase 1: GBR guarantees in bearer-priority order. -------
            # PrioritySetScheduler's phase 1, restricted to active bearer
            # slots.  The restriction is exact: a bearer slot outside the
            # active set has demand pinned to 0.0, so the full walk hits
            # a no-op guard there — ``slot_bpp <= 0: continue`` or
            # ``need <= 0: continue`` — never touching the budget or any
            # per-slot state, and the budget-exhausted break still
            # precedes the first grant-eligible slot.  Walking the active
            # bearers in rank order therefore reproduces the full walk's
            # grants and float sequence.
            alloc_prbs[:] = zeros
            alloc_bytes[:] = zeros
            remaining_budget = self._budget
            if gbr_slots:
                gbr_rank = self._gbr_rank
                gbr_rate = self._gbr_rate
                gbr_act = [i for i in step_act if gbr_rank[i] >= 0]
                if len(gbr_act) > 1:
                    gbr_act.sort(key=gbr_rank.__getitem__)
                for slot in gbr_act:
                    slot_bpp = bpp[slot]
                    if slot_bpp <= 0:
                        continue
                    if remaining_budget <= 1e-12:
                        break
                    slot_demand = demand[slot]
                    guarantee = gbr_rate[slot]
                    need = (guarantee if guarantee <= slot_demand
                            else slot_demand)
                    if need <= 0:
                        continue
                    prbs_needed = need / slot_bpp
                    prbs = (prbs_needed if prbs_needed <= remaining_budget
                            else remaining_budget)
                    delivered = prbs * slot_bpp
                    remaining_budget -= prbs
                    demand[slot] = slot_demand - delivered
                    alloc_prbs[slot] += prbs
                    alloc_bytes[slot] += delivered

            # --- Phase 2: proportional-fair waterfill of the rest. -------
            if remaining_budget > 1e-12:
                if not fused_cand:
                    # Post-GBR candidate rebuild.  The object path scans
                    # all claims; restricting to step_act is exact because
                    # every other slot has demand pinned to 0.0
                    # (rescan/prune).
                    for i in step_act:
                        if demand[i] > 1e-9 and bpp[i] > 0:
                            cand.append(i)
                            achievable = (bpp[i] * 8) / step_s
                            avg = pf_avg[i]
                            weights.append(
                                achievable / (avg if avg >= 1e3 else 1e3))
                            caps.append(demand[i] / bpp[i])
                if len(cand) == 1:
                    i = cand[0]
                    weight = weights[0]
                    share = remaining_budget * weight / weight
                    prb_cap = caps[0]
                    prbs = prb_cap if share >= prb_cap - 1e-12 else share
                    if prbs > 0:
                        delivered = prbs * bpp[i]
                        slot_demand = demand[i]
                        if delivered > slot_demand:
                            delivered = slot_demand
                        demand[i] = slot_demand - delivered
                        alloc_prbs[i] += prbs
                        alloc_bytes[i] += delivered
                elif cand:
                    grants = _waterfill(remaining_budget, caps, weights)
                    for g, i in enumerate(cand):
                        prbs = grants[g]
                        if prbs <= 0:
                            continue
                        delivered = prbs * bpp[i]
                        slot_demand = demand[i]
                        if delivered > slot_demand:
                            delivered = slot_demand
                        demand[i] = slot_demand - delivered
                        alloc_prbs[i] += prbs
                        alloc_bytes[i] += delivered

            # --- PF served-average EWMA (active flows only). -------------
            decay = step_s / self._sched_obj.pf.time_constant_s
            if decay > 1.0:
                decay = 1.0
            one_minus = 1 - decay
            for i in active_list:
                rate = (alloc_bytes[i] * 8) / step_s
                pf_avg[i] = one_minus * pf_avg[i] + decay * rate
                pf_seen[i] = True

            # --- Delivery over the backlogged slots. ---------------------
            fast_steps = self._fast_steps
            idle_sync = self._idle_sync
            slot_pl = self._slot_pl
            for i in step_act:
                delivered = alloc_bytes[i]
                prbs = alloc_prbs[i]
                totals[i] += delivered
                # wanted[i] > 0 here: FluidTcp.on_delivered's active branch.
                idle[i] = 0.0
                idle_sync[i] = fast_steps + 1
                flow_wanted = wanted[i]
                limit = cwnd[i] * step_over_rtt[i]
                window_min = flow_wanted if flow_wanted <= limit else limit
                if delivered >= window_min - 1e-9:
                    grown = cwnd[i] * growth[i]
                    cwnd[i] = grown if grown <= max_cwnd[i] else max_cwnd[i]
                else:
                    granted_per_rtt = delivered * rtt_over_step[i]
                    target = granted_per_rtt * 1.25
                    if target < init_cwnd[i]:
                        target = init_cwnd[i]
                    cwnd[i] += 0.5 * (target - cwnd[i])
                if delivered > 0:
                    video = videos_h[i]
                    if video is not None and video._download_active:
                        remaining = video._remaining_bytes - delivered
                        if remaining <= 1e-6:
                            # Completion boundary.  The callback chain
                            # (HasPlayer._on_complete) reads only
                            # player-local state, but the mirrors are
                            # written back in full first so any observer
                            # sees the object path's state; lazy playback
                            # of the completing player is replayed before
                            # the callback runs.
                            self._flush_mirrors()
                            pj = slot_pl[i]
                            if pj is not None and self._pl_mode[pj] != _PL_HOT:
                                self._pl_materialize(pj, end)
                                insort(self._pl_hot_list, pj)
                            video._remaining_bytes = 0.0
                            video._download_active = False
                            callback = video._completion_callback
                            video._completion_callback = None
                            if callback is not None:
                                callback()
                            if (not self._dirty and cell.registry.version
                                    != self._reg_version):
                                self._resync_registry()
                            self._mirrors_hot = True
                        else:
                            video._remaining_bytes = remaining
                if prbs > 0 or delivered > 0:
                    # Inlined RbTraceModule.record.
                    cum_prbs[i] += prbs
                    cum_bytes[i] += delivered
                    cum_seen[i] = True

        # --- Playback: hot players only (lazy drains are replayed). --
        hot = self._pl_hot_list
        for j in hot:
            info = issue_info[j]
            player = info[0]
            buffer = info[1]
            level = buffer._level_s
            if player.state is playing and level >= step_s:
                player._step_end_s = end
                buffer._level_s = level - step_s
                buffer._total_played_s += step_s
            else:
                player.advance_playback(end, step_s)

        cell._steps = step + 1
        self._fast_steps += 1
        if hot and self._lazy_ok:
            self._pl_hot_list = [j for j in hot
                                 if not self._pl_try_lazy(j, step + 1, end)]

    def _fill_table(self, now: float, bucket: int) -> None:
        """Refresh the per-slot iTbs snapshot for one fading bucket.

        Primed channels answer from their epoch table.  Handovers land
        only at epoch boundaries, before ``NetworkShard._prime_epoch``
        primes the epoch, so the fallback serves lockstep mode, which
        primes nothing: an unprimed channel answers from its scalar
        ``itbs_at``, evaluated at ``now``, the bucket's first stepped
        time, exactly when the scalar cache would have evaluated it.
        That is why the idle stride never skips the step of a bucket
        whose table is not filled yet, and lands no later than the next
        bucket's first step: a later first query would evaluate the
        chain at a later time.
        """
        channels = self._tbl_channels
        itbs = self._tbl_itbs
        for j, channel in enumerate(channels):
            value = channel.primed_itbs(bucket)
            if value is None:
                value = channel.itbs_at(now)
            itbs[j] = value


@sequential_replay
def _waterfill(budget: float, caps: list[float],
               weights: list[float]) -> list[float]:
    """Slot-indexed replica of :func:`repro.mac.scheduler.waterfill_prbs`.

    Operates on precomputed PRB caps instead of ``_Claim`` objects;
    float-for-float identical to the object path's progressive fill.
    Callers guarantee every cap and weight is strictly positive
    (phase-2 candidates require backlog and a usable channel), so the
    object path's initial activity filter reduces to the identity.
    """
    grants = [0.0] * len(caps)
    active = list(range(len(caps)))
    remaining = budget
    while remaining > 1e-12 and active:
        total_weight = 0.0
        for i in active:
            total_weight += weights[i]
        if total_weight <= 0:
            break
        capped = False
        next_active: list[int] = []
        consumed = 0.0
        for i in active:
            share = remaining * weights[i] / total_weight
            room = caps[i] - grants[i]
            if share >= room - 1e-12:
                grants[i] += room
                consumed += room
                capped = True
            else:
                next_active.append(i)
        if not capped:
            for i in next_active:
                share = remaining * weights[i] / total_weight
                grants[i] += share
                consumed += share
            remaining = 0.0
            break
        remaining -= consumed
        active = next_active
    return grants


def run_cells(cells: Sequence[Cell], until_s: float) -> int:
    """Advance a batch of cells to ``until_s``, one fused kernel
    invocation per cell.

    Each cell stops at the first step whose TTI count reaches
    ``until_s``, as :meth:`~repro.sim.cell.Cell.run` does.

    This is the multi-cell network's intra-shard batch entry point:
    within an exchange epoch cells are fully independent (interference
    penalties are frozen, handovers happen only at epoch boundaries),
    so instead of the lockstep per-step Python loop — N cells x M
    steps of interleaved ``Cell.step()`` dispatch — each cell's whole
    epoch runs as a single :meth:`TtiKernel.run` call over its
    struct-of-arrays mirrors.  Cells the kernel declines (an
    unmirrorable configuration, an armed tracer or sanitizer) fall back
    to their object step loop, cell by cell; either way every cell
    reaches ``until_s`` and ends on a flushed observation boundary.

    Returns:
        The number of cells that ran on the fast path (feeds the
        ``BENCH_metro.json`` artifact).
    """
    require_positive("until_s", until_s)
    fast = 0
    for cell in cells:
        stop = cell._stop_step(until_s)
        if cell._steps < stop and cell._run_to(stop):
            fast += 1
    return fast
