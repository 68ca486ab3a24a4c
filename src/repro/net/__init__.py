"""Transport and core-network substrate: flows, fluid TCP, PCRF."""

from repro.net.flows import DataFlow, Flow, FlowKind, UserEquipment, VideoFlow
from repro.net.pcrf import FlowSession, Pcrf
from repro.net.tcp import FluidTcp, INITIAL_CWND_BYTES, MSS_BYTES

__all__ = [
    "DataFlow",
    "Flow",
    "FlowKind",
    "UserEquipment",
    "VideoFlow",
    "FlowSession",
    "Pcrf",
    "FluidTcp",
    "INITIAL_CWND_BYTES",
    "MSS_BYTES",
]
