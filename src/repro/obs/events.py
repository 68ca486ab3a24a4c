"""Typed trace-event schema of the observability layer.

Every event a :class:`~repro.obs.tracer.Tracer` emits is a flat JSON
object with two mandatory keys — ``type`` (one of the names below) and
``t`` (simulation time in seconds) — plus the event-specific fields
documented in :data:`EVENT_SCHEMA`.  The schema dict is the single
source of truth: ``docs/observability.md`` is tested against it, and
sinks may use it to validate or filter.

Field-name conventions: ``*_s`` seconds, ``*_bps`` bits/second,
``*_bytes`` bytes, ``*_kbps`` kilobits/second, ``prbs`` fractional
physical resource blocks (PRB x TTI units).
"""

from __future__ import annotations

# -- MAC layer ---------------------------------------------------------
TTI_ALLOC = "tti.alloc"
MAC_SCHED = "mac.sched"
GBR_UPDATE = "gbr.update"

# -- FLARE core --------------------------------------------------------
BAI_SOLVE = "bai.solve"
CLIENT_ATTACH = "client.attach"

# -- HAS player --------------------------------------------------------
SEG_REQUEST = "seg.request"
SEG_DONE = "seg.done"
SEG_ABANDON = "seg.abandon"

# -- Simulation driver -------------------------------------------------
SIM_STEP = "sim.step"

# -- Multi-cell network ------------------------------------------------
NET_HANDOVER = "net.handover"

#: Every event type with its fields and units.  ``type`` and ``t``
#: (simulation seconds) are implicit on all events; parallel-worker
#: shards additionally carry a ``task`` field (submission index).
EVENT_SCHEMA: dict[str, dict[str, str]] = {
    TTI_ALLOC: {
        "flow": "flow id the grant belongs to",
        "ue": "UE id of the flow",
        "kind": "'video' or 'data'",
        "prbs": "fractional PRBs granted this MAC step",
        "gbr_prbs": "PRBs granted in the GBR phase (phase 1) of the step",
        "tbs_bytes": "transport-block bytes delivered by the grant",
        "itbs": "the UE's TBS index at the step start",
    },
    MAC_SCHED: {
        "budget_prbs": "PRB budget of the step",
        "gbr_prbs": "PRBs spent honouring GBR guarantees (phase 1)",
        "pf_prbs": "PRBs handed to the proportional-fair phase 2",
        "backlogged": "number of flows with queued data this step",
    },
    GBR_UPDATE: {
        "flow": "flow id whose bearer was retuned",
        "gbr_bps": "new guaranteed bit rate (bits/s; 0 = non-GBR)",
        "mbr_bps": "new maximum bit rate (bits/s; null = unchanged)",
    },
    BAI_SOLVE: {
        "cell": "cell id the BAI ran against",
        "num_video": "video flows in the optimization instance",
        "num_data": "PCRF-reported data-flow count n",
        "total_rbs": "RB capacity N of the BAI",
        "r": "RB share assigned to video flows (0..1)",
        "utility": "objective value at the discrete rates",
        "solve_s": "wall-clock solver time in seconds (Fig. 9 metric)",
        "feasible": "false when even minimum ladder rates overflow N",
        "flows": ("per-flow hysteresis verdicts: list of {flow, "
                  "recommended, enforced, rate_bps, up_streak, "
                  "required_streak, action} — action is one of "
                  "'upgrade', 'hold', 'downgrade', 'keep' (Alg. 1)"),
    },
    CLIENT_ATTACH: {
        "flow": "video flow id created for the client",
        "ue": "UE id of the client",
        "ladder_kbps": "the disclosed bitrate ladder in kbps",
        "max_bitrate_bps": "client-side rate cap (null = none)",
        "skimming": "whether the skimming hint is set",
    },
    SEG_REQUEST: {
        "flow": "video flow id issuing the request",
        "segment": "segment index requested",
        "index": "ladder index selected",
        "bitrate_bps": "bitrate of the selected representation",
        "size_bytes": "segment payload size",
        "buffer_s": "playout-buffer level at request time",
        "state": "player state ('startup'/'playing'/'stalled')",
    },
    SEG_DONE: {
        "flow": "video flow id that finished a download",
        "segment": "segment index completed",
        "bitrate_bps": "bitrate of the downloaded representation",
        "throughput_bps": "segment throughput (size / transfer time)",
        "buffer_s": "playout-buffer level after the segment was added",
        "stalls": "cumulative stall events of the player so far",
        "state": "player state after completion",
    },
    SEG_ABANDON: {
        "flow": "video flow id abandoning an in-flight download",
        "segment": "segment index being abandoned",
        "index": "ladder index of the abandoned representation",
        "buffer_s": "playout-buffer level at abandonment",
    },
    SIM_STEP: {
        "cell": "cell id",
        "flows": "flows attached to the cell",
        "prbs": "PRBs granted this step (all flows)",
        "bytes": "bytes delivered this step (all flows)",
    },
    NET_HANDOVER: {
        "flow": "video flow id handed over",
        "ue": "UE id of the flow",
        "source": "source cell id",
        "target": "target cell id",
    },
}

#: The four event families the CLI ``trace`` command reports on.
#: ``net.handover`` is deliberately absent: the trace scenarios are
#: single-cell, so a "net" family would (correctly) never fire there.
EVENT_FAMILIES = {
    "tti.alloc": (TTI_ALLOC,),
    "bai.solve": (BAI_SOLVE,),
    "seg": (SEG_REQUEST, SEG_DONE, SEG_ABANDON),
    "sim.step": (SIM_STEP,),
}
