"""GBR/MBR bearer management and the Continuous GBR Updater.

In LTE, a bearer's guaranteed bit rate (GBR) is normally fixed when
the bearer is set up.  The paper's femtocell adds a **Continuous GBR
Updater** module so the OneAPI server can retune each video flow's GBR
every bitrate assignment interval; AVIS similarly drives per-flow
GBR/MBR settings from its network agent.

:class:`BearerRegistry` is the in-simulator equivalent: a registry of
per-flow QoS settings that the scheduler consults every step and the
network-side controllers (FLARE's OneAPI server, AVIS's cell agent) update
at their own cadence.  All rates are in bits/second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from repro.obs import events as obs_events
from repro.obs import tracer as obs
from repro.util import bits_to_bytes, require_non_negative


@dataclass
class BearerQos:
    """QoS settings of one bearer (flow).

    Attributes:
        gbr_bps: guaranteed bit rate; ``0`` means a non-GBR bearer.
        mbr_bps: maximum bit rate; ``None`` means unlimited.
        priority: phase-1 service order (lower is served first).
    """

    gbr_bps: float = 0.0
    mbr_bps: float | None = None
    priority: int = 0

    def __post_init__(self) -> None:
        require_non_negative("gbr_bps", self.gbr_bps)
        if self.mbr_bps is not None:
            require_non_negative("mbr_bps", self.mbr_bps)
            if self.mbr_bps < self.gbr_bps:
                raise ValueError(
                    f"mbr_bps ({self.mbr_bps}) must be >= gbr_bps ({self.gbr_bps})"
                )

    @property
    def is_gbr(self) -> bool:
        """True if this bearer carries a guarantee."""
        return self.gbr_bps > 0


class BearerRegistry:
    """Per-flow QoS registry.

    The registry is the meeting point of three modules from the
    paper's Figure 3: the *Continuous GBR Updater* (our
    :meth:`update_gbr`), the *Communication Module* that receives GBR
    rates from the OneAPI server (our callers), and the *Scheduler
    Module* that reads the settings each TTI (our getters).
    """

    def __init__(self) -> None:
        self._bearers: dict[int, BearerQos] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped whenever the QoS settings change.

        Registering or deregistering a bearer bumps it, and so does an
        update that changes a bearer's GBR or MBR; an update that sets
        the values already in place leaves it alone.  Consumers that
        cache a derived view of the registry (the TTI kernel mirrors
        GBR/MBR byte budgets into flat arrays) compare this against
        their snapshot to know when to refresh.
        """
        return self._version

    def register(self, flow_id: int, qos: BearerQos | None = None) -> None:
        """Add a bearer for ``flow_id`` (default: best-effort non-GBR)."""
        if flow_id in self._bearers:
            raise ValueError(f"flow {flow_id} already registered")
        self._bearers[flow_id] = qos if qos is not None else BearerQos()
        self._version += 1

    def deregister(self, flow_id: int) -> None:
        """Remove the bearer of a departed flow."""
        self._bearers.pop(flow_id, None)
        self._version += 1

    def qos(self, flow_id: int) -> BearerQos:
        """QoS of ``flow_id`` (best-effort default if never registered)."""
        qos = self._bearers.get(flow_id)
        if qos is None:
            return BearerQos()
        return qos

    def update_gbr(self, flow_id: int, gbr_bps: float,
                   mbr_bps: float | None = None,
                   time_s: float = 0.0) -> None:
        """Continuously retune a bearer's GBR (and optionally MBR).

        This is the femtocell's Continuous GBR Updater: unlike stock
        LTE, the guarantee may change at any time.  An update that
        changes nothing keeps the bearer and :attr:`version` as they
        are (a traced run still records it).

        Raises:
            KeyError: if the flow was never registered.
        """
        current = self._bearers.get(flow_id)
        if current is None:
            raise KeyError(f"flow {flow_id} has no bearer")
        effective_mbr = mbr_bps if mbr_bps is not None else current.mbr_bps
        # Direct construction: this is the hottest enforcement call in
        # the simulator (one per video flow per BAI), so the dataclass
        # __init__/__post_init__ round trip is inlined with the same
        # checks and messages.
        if gbr_bps < 0:
            raise ValueError(f"gbr_bps must be >= 0, got {gbr_bps!r}")
        if effective_mbr is not None:
            if effective_mbr < 0:
                raise ValueError(
                    f"mbr_bps must be >= 0, got {effective_mbr!r}")
            if effective_mbr < gbr_bps:
                raise ValueError(
                    f"mbr_bps ({effective_mbr}) must be >= gbr_bps "
                    f"({gbr_bps})"
                )
        # Exact equality on purpose: only a bit-identical setting is
        # a no-op for the scheduler.
        if (gbr_bps != current.gbr_bps  # flarelint: disable=FL003
                or effective_mbr != current.mbr_bps):  # flarelint: disable=FL003
            qos = BearerQos.__new__(BearerQos)
            qos.gbr_bps = gbr_bps
            qos.mbr_bps = effective_mbr
            qos.priority = current.priority
            self._bearers[flow_id] = qos
            self._version += 1
        if obs.TRACER is not None:
            obs.TRACER.emit(obs_events.GBR_UPDATE, time_s, flow=flow_id,
                            gbr_bps=gbr_bps, mbr_bps=mbr_bps)

    def gbr_bytes_for_step(self, flow_id: int, step_s: float) -> float:
        """Bytes needed this step to honour the flow's guarantee."""
        return bits_to_bytes(self.qos(flow_id).gbr_bps * step_s)

    def mbr_bytes_for_step(self, flow_id: int, step_s: float) -> float:
        """Byte cap for this step from the flow's MBR (inf if none)."""
        mbr = self.qos(flow_id).mbr_bps
        if mbr is None:
            return math.inf
        return bits_to_bytes(mbr * step_s)

    def gbr_flows(self) -> list[tuple[int, BearerQos]]:
        """All bearers with a guarantee, sorted by priority."""
        items = [(fid, qos) for fid, qos in self._bearers.items() if qos.is_gbr]
        items.sort(key=lambda pair: (pair[1].priority, pair[0]))
        return items
