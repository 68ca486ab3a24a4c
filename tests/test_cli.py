"""Tests for the CLI."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import is_full_run


@pytest.fixture(autouse=True)
def isolated_artifacts(tmp_path, monkeypatch):
    """Keep CLI runs from writing into the repo or the user cache."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "bench"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    yield tmp_path


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "fig6", "fig12", "ablations", "all"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_scheme_option(self):
        args = build_parser().parse_args(["fig4", "--scheme", "flare"])
        assert args.scheme == "flare"

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--scheme", "bogus"])

    def test_jobs_option(self):
        args = build_parser().parse_args(["fig6", "--jobs", "4"])
        assert args.jobs == 4
        assert build_parser().parse_args(["fig6"]).jobs is None

    def test_jobs_requires_integer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--jobs", "many"])

    def test_no_cache_flag(self):
        assert build_parser().parse_args(["fig6", "--no-cache"]).no_cache
        assert not build_parser().parse_args(["fig6"]).no_cache


class TestMain:
    def test_fig9_runs(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "128 clients" in out

    def test_fig4_single_scheme(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert main(["fig4", "--scheme", "flare"]) == 0
        out = capsys.readouterr().out
        assert "flare" in out
        assert "bitrate" in out

    def test_writes_bench_artifact(self, isolated_artifacts):
        assert main(["fig9"]) == 0
        path = isolated_artifacts / "bench" / "BENCH_fig9.json"
        record = json.loads(path.read_text())
        assert record["name"] == "fig9"
        assert record["command"] == "fig9"
        assert record["wall_time_s"] > 0
        assert record["jobs"] >= 1
        for key in ("runs_executed", "cache_hits", "cache_hit_rate",
                    "total_cells", "metrics"):
            assert key in record

    def test_full_flag_does_not_leak(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        # fig9's cost does not depend on the experiment scale, so it
        # is a cheap way to exercise the --full path end to end.
        assert main(["fig9", "--full"]) == 0
        assert "REPRO_FULL" not in os.environ
        assert not is_full_run()

    def test_full_flag_recorded_in_bench(self, isolated_artifacts,
                                         monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert main(["fig9", "--full"]) == 0
        record = json.loads(
            (isolated_artifacts / "bench" / "BENCH_fig9.json").read_text())
        assert record["full_scale"] is True

    def test_jobs_recorded_in_bench(self, isolated_artifacts):
        assert main(["fig9", "--jobs", "3"]) == 0
        record = json.loads(
            (isolated_artifacts / "bench" / "BENCH_fig9.json").read_text())
        assert record["jobs"] == 3


class TestTraceCommand:
    def test_trace_writes_all_event_families(self, isolated_artifacts,
                                             capsys):
        from repro.obs import EVENT_FAMILIES

        out = isolated_artifacts / "trace.jsonl"
        assert main(["trace", "testbed", "--out", str(out),
                     "--duration", "20"]) == 0
        emitted = {json.loads(line)["type"]
                   for line in out.read_text().splitlines()}
        for family, members in EVENT_FAMILIES.items():
            assert emitted & set(members), f"{family} missing"
        stdout = capsys.readouterr().out
        assert "trace written to" in stdout
        for family in EVENT_FAMILIES:
            assert family in stdout

    def test_trace_scenario_choices(self):
        args = build_parser().parse_args(["trace", "cell"])
        assert args.scenario == "cell"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "bogus"])

    def test_trace_flag_traces_other_commands(self, isolated_artifacts):
        out = isolated_artifacts / "fig4.jsonl"
        assert main(["fig4", "--scheme", "festive",
                     "--trace", str(out)]) == 0
        assert out.exists()
        types = {json.loads(line)["type"]
                 for line in out.read_text().splitlines()}
        assert "tti.alloc" in types

    def test_trace_records_obs_in_bench(self, isolated_artifacts):
        out = isolated_artifacts / "trace.jsonl"
        assert main(["trace", "testbed", "--out", str(out),
                     "--duration", "20"]) == 0
        record = json.loads(
            (isolated_artifacts / "bench" / "BENCH_trace.json").read_text())
        assert "solver.exact.solve_s" in record["obs"]["histograms"]

    def test_trace_writes_report_sibling(self, isolated_artifacts):
        out = isolated_artifacts / "trace.jsonl"
        assert main(["trace", "testbed", "--out", str(out),
                     "--duration", "20"]) == 0
        sibling = isolated_artifacts / "trace.jsonl.report.json"
        assert sibling.exists()
        from repro.metrics.serialize import load_cell_report

        report = load_cell_report(sibling.read_text())
        assert report.clients


class TestProfileCommand:
    def test_scenario_targets_and_command_targets_parse(self):
        parser = build_parser()
        assert parser.parse_args(["profile"]).scenario == "testbed"
        assert parser.parse_args(["profile", "cell"]).scenario == "cell"
        assert parser.parse_args(["profile", "table1"]).scenario == "table1"
        with pytest.raises(SystemExit):
            parser.parse_args(["profile", "bogus"])

    def test_profile_scenario_writes_trace_and_bench(self, capsys,
                                                     isolated_artifacts):
        trace_out = isolated_artifacts / "prof.trace.json"
        assert main(["profile", "testbed", "--duration", "20",
                     "--out", str(trace_out)]) == 0
        stdout = capsys.readouterr().out
        assert "% coverage" in stdout
        assert "chrome trace written to" in stdout
        payload = json.loads(trace_out.read_text())
        assert payload["traceEvents"]
        record = json.loads((isolated_artifacts / "bench"
                             / "BENCH_profile.json").read_text())
        assert record["profile"]["phases"]["run"]["calls"] == 1
        assert "run/sim.kernel.run" in record["profile"]["phases"]

    def test_no_ambient_profiler_leaks(self, isolated_artifacts):
        from repro.obs import prof

        trace_out = isolated_artifacts / "prof.trace.json"
        assert main(["profile", "testbed", "--duration", "20",
                     "--out", str(trace_out)]) == 0
        assert prof.PROFILER is None

    def test_profile_parallel_command_merges_workers(self, capsys,
                                                     isolated_artifacts):
        trace_out = isolated_artifacts / "t1.trace.json"
        assert main(["profile", "table1", "--jobs", "2", "--no-cache",
                     "--out", str(trace_out)]) == 0
        payload = json.loads(trace_out.read_text())
        pids = {event["pid"] for event in payload["traceEvents"]}
        assert pids - {0}, "worker tracks missing from the merged trace"
        record = json.loads((isolated_artifacts / "bench"
                             / "BENCH_profile.json").read_text())
        # Parent "run" span + one per worker task (3 table1 schemes).
        assert record["profile"]["phases"]["run"]["calls"] == 4

    def test_self_times_cover_total(self, isolated_artifacts):
        trace_out = isolated_artifacts / "prof.trace.json"
        assert main(["profile", "testbed", "--duration", "20",
                     "--out", str(trace_out)]) == 0
        record = json.loads((isolated_artifacts / "bench"
                             / "BENCH_profile.json").read_text())
        profile = record["profile"]
        assert profile["self_total_s"] == pytest.approx(
            profile["total_s"], rel=0.05)


class TestMetroCommand:
    def test_metro_options_parse(self):
        parser = build_parser()
        args = parser.parse_args(["metro", "--cells", "8",
                                  "--ues-per-cell", "2",
                                  "--duration", "20", "--jobs", "2"])
        assert args.command == "metro"
        assert args.cells == 8
        assert args.ues_per_cell == 2
        assert parser.parse_args(["metro"]).cells is None

    def test_profile_accepts_metro_target(self):
        args = build_parser().parse_args(["profile", "metro"])
        assert args.scenario == "metro"

    def test_metro_writes_scaling_bench(self, capsys, isolated_artifacts):
        assert main(["metro", "--cells", "4", "--ues-per-cell", "1",
                     "--duration", "8", "--jobs", "2"]) == 0
        stdout = capsys.readouterr().out
        assert "shards" in stdout
        assert "speedup" in stdout
        record = json.loads(
            (isolated_artifacts / "bench"
             / "BENCH_metro.json").read_text())
        scaling = record["scaling"]
        assert scaling["cells"] == 4
        assert [row["shards"] for row in scaling["rows"]] == [1, 2]
        assert record["wall_time_s"] > 0
        assert record["total_cells"] == 8  # 4 cells x 2 shard counts


class TestAnalyzeCommand:
    def test_requires_a_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze"])

    def test_missing_trace_exits(self):
        with pytest.raises(SystemExit):
            main(["analyze", "/no/such/trace.jsonl"])

    def test_analyze_traced_run_cross_validates(self, capsys,
                                                isolated_artifacts):
        out = isolated_artifacts / "trace.jsonl"
        assert main(["trace", "testbed", "--out", str(out),
                     "--duration", "20"]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "video session(s)" in stdout
        assert "qoe cross-check: OK" in stdout

    def test_analyze_without_sibling_report_skips_check(self, capsys,
                                                        isolated_artifacts):
        out = isolated_artifacts / "trace.jsonl"
        assert main(["trace", "testbed", "--out", str(out),
                     "--duration", "20"]) == 0
        (isolated_artifacts / "trace.jsonl.report.json").unlink()
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        assert "qoe cross-check: skipped" in capsys.readouterr().out
