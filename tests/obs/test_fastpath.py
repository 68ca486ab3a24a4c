"""The no-tracer/no-profiler fast paths must not change results."""

import pytest

from repro.metrics.serialize import dump_cell_report
from repro.obs import current_tracer, prof, tracing, uninstall_tracer
from repro.workload.scenarios import build_cell_scenario, \
    build_testbed_scenario


@pytest.fixture(autouse=True)
def no_ambient_tracer():
    uninstall_tracer()
    prof.uninstall()
    yield
    uninstall_tracer()
    prof.uninstall()


class TestByteIdenticalReports:
    def test_testbed_report_identical_with_and_without_tracer(self,
                                                              tmp_path):
        assert current_tracer() is None
        bare = build_testbed_scenario("flare", seed=3,
                                      duration_s=30.0).run()
        with tracing(jsonl=tmp_path / "t.jsonl"):
            traced = build_testbed_scenario("flare", seed=3,
                                            duration_s=30.0).run()
        assert dump_cell_report(bare) == dump_cell_report(traced)

    def test_cell_report_identical_with_and_without_tracer(self, tmp_path):
        kwargs = dict(scheme="festive", seed=1, num_video=2,
                      duration_s=30.0)
        bare = build_cell_scenario(**kwargs).run()
        with tracing(jsonl=tmp_path / "t.jsonl"):
            traced = build_cell_scenario(**kwargs).run()
        assert dump_cell_report(bare) == dump_cell_report(traced)

    def test_report_identical_with_profiler_installed(self):
        assert prof.PROFILER is None
        bare = build_testbed_scenario("flare", seed=3,
                                      duration_s=30.0).run()
        with prof.profiling() as profiler:
            with profiler.span("run"):
                scenario = build_testbed_scenario("flare", seed=3,
                                                  duration_s=30.0)
                profiled = scenario.run()
        assert dump_cell_report(bare) == dump_cell_report(profiled)
        # The profiler timed the fast path without pinning another
        # one: one span per kernel run, and the fused step really ran.
        assert "run/sim.kernel.run" in profiler.stats
        assert scenario.cell._kernel._fast_steps > 0

    def test_trace_identical_with_profiler_installed(self, tmp_path):
        import json

        def events(path):
            # bai.solve's solve_s is measured wall time and differs
            # between any two runs; everything else must match exactly.
            out = []
            for line in path.read_text().splitlines():
                event = json.loads(line)
                event.pop("solve_s", None)
                out.append(event)
            return out

        with tracing(jsonl=tmp_path / "bare.jsonl"):
            build_testbed_scenario("flare", seed=3, duration_s=30.0).run()
        with prof.profiling():
            with tracing(jsonl=tmp_path / "prof.jsonl"):
                build_testbed_scenario("flare", seed=3,
                                       duration_s=30.0).run()
        assert (events(tmp_path / "bare.jsonl")
                == events(tmp_path / "prof.jsonl"))
