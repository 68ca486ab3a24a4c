"""FLARE's core: utility model, optimizer, Algorithm 1, OneAPI server."""

from repro.core.algorithm1 import Algorithm1, BaiDecision, FlowState
from repro.core.controller import FlareSystem, MultiCellOneApi, make_solver
from repro.core.oneapi import BaiFlowRecord, BaiRecord, OneApiServer
from repro.core.optimizer import (
    ExactSolver,
    FlowSpec,
    ProblemSpec,
    RelaxedSolver,
    Solution,
    Solver,
)
from repro.core.plugin import ClientInfo, FlarePlugin
from repro.core.utility import (
    data_utility,
    total_utility,
    video_utility,
    video_utility_derivative,
)

__all__ = [
    "Algorithm1",
    "BaiDecision",
    "FlowState",
    "FlareSystem",
    "MultiCellOneApi",
    "make_solver",
    "BaiFlowRecord",
    "BaiRecord",
    "OneApiServer",
    "ExactSolver",
    "FlowSpec",
    "ProblemSpec",
    "RelaxedSolver",
    "Solution",
    "Solver",
    "ClientInfo",
    "FlarePlugin",
    "data_utility",
    "total_utility",
    "video_utility",
    "video_utility_derivative",
]
