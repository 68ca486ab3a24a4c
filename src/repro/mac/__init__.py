"""MAC substrate: schedulers, GBR bearers, RB/rate tracing.

Reproduces the femtocell MAC modules of the paper's Figure 3: the
two-phase GBR Scheduler Module (:class:`PrioritySetScheduler`), the
Continuous GBR Updater (:class:`BearerRegistry`), and the RB & Rate
Trace Module / Statistics Reporter (:class:`RbTraceModule`).
"""

from repro.mac.gbr import BearerQos, BearerRegistry
from repro.mac.priority_set import PrioritySetScheduler
from repro.mac.rb_trace import FlowUsage, RbTraceModule
from repro.mac.tti_reference import TtiReferenceScheduler
from repro.mac.scheduler import (
    Allocation,
    MaxThroughputScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    Scheduler,
    waterfill_prbs,
)

__all__ = [
    "BearerQos",
    "BearerRegistry",
    "PrioritySetScheduler",
    "FlowUsage",
    "RbTraceModule",
    "Allocation",
    "MaxThroughputScheduler",
    "ProportionalFairScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "TtiReferenceScheduler",
    "waterfill_prbs",
]
