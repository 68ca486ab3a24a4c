"""Shared fixtures for the simulator tests."""

import pytest

from repro.sim.kernel import TtiKernel


@pytest.fixture
def fused_calls(monkeypatch):
    """Count ``TtiKernel._step_fast`` calls in this process.

    The one-element list holds the count.  A run's skipped steps are
    the steps its kernels completed minus the fused steps they took.
    """
    calls = [0]
    step_fast = TtiKernel._step_fast

    def counting_step(kernel):
        calls[0] += 1
        step_fast(kernel)

    monkeypatch.setattr(TtiKernel, "_step_fast", counting_step)
    return calls
