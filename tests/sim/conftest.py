"""Shared fixtures for the simulator tests."""

from types import SimpleNamespace

import pytest

from repro.sim.kernel import TtiKernel


@pytest.fixture
def fused_calls(monkeypatch):
    """Count the fused steps ``TtiKernel._step_fast`` takes in this process.

    ``steps`` is the steps its calls advanced and ``calls`` the calls
    themselves: one call runs a span of steps.  A run's skipped steps
    are the steps its kernels completed minus the fused steps.
    """
    counts = SimpleNamespace(steps=0, calls=0)
    step_fast = TtiKernel._step_fast

    def counting_span(kernel, until):
        start = kernel._cell._steps
        step_fast(kernel, until)
        counts.calls += 1
        counts.steps += kernel._cell._steps - start

    monkeypatch.setattr(TtiKernel, "_step_fast", counting_span)
    return counts
