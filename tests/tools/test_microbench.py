"""Tests for the telemetry-overhead budget check."""

import pytest

from tools import microbench


@pytest.mark.parametrize(("frac", "code"), [(0.03, 1), (0.01, 0)])
def test_exit_code_follows_the_budget(monkeypatch, capsys, frac, code):
    monkeypatch.setattr(
        microbench, "measure_telemetry_overhead",
        lambda: {"ues": 4096.0, "epoch_s": 1.0, "collect_s": frac,
                 "frac": frac})
    assert microbench.main([]) == code
    out = capsys.readouterr().out
    assert f"({frac:.2%})" in out
    assert ("OVER BUDGET" in out) == (code == 1)
