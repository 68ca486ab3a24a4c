"""Command-line interface: regenerate any paper table or figure.

Usage::

    flare-repro table1            # static testbed summary (Table I)
    flare-repro table2            # dynamic testbed summary (Table II)
    flare-repro fig4 --scheme flare   # testbed time series panels
    flare-repro fig6 ... fig12    # simulation-study figures
    flare-repro ablations         # DESIGN.md design-choice ablations
    flare-repro all               # everything, in order
    flare-repro report --out results/   # full results directory + CSVs
    flare-repro metro --cells 16 --jobs 2   # multi-cell scaling study

Scale control: ``--full`` (or ``REPRO_FULL=1``) runs paper-fidelity
experiments (1200 s, 20 seeds); the default is a quick mode suitable
for smoke runs.

Execution control: ``--jobs N`` fans the scheme x seed matrix over N
worker processes; completed cells are cached on disk (see
``REPRO_CACHE_DIR``) and reused on re-runs unless ``--no-cache`` is
given.  Every command writes a machine-readable
``BENCH_<command>.json`` artifact (wall time, cells executed vs
cached, worker count, aggregate QoE metrics, metrics-registry delta)
to ``REPRO_BENCH_DIR`` (default: the current directory).

Observability: ``flare-repro trace <scenario> --out trace.jsonl``
runs one scenario with event tracing on and writes a JSONL trace
(schema: ``docs/observability.md``); ``--trace PATH`` does the same
for any other command, merging parallel workers' shards in
deterministic task order.

Profiling and analytics: ``flare-repro profile <target>`` runs any
table/figure command or trace scenario with the span profiler on,
prints a per-phase self-time report and writes a Chrome trace-event
JSON (loadable in Perfetto / ``chrome://tracing``);
``flare-repro analyze <trace>`` reconstructs player sessions from a
JSONL trace, attributes every stall to a cause (channel, scheduler,
solver, client) and cross-checks trace-derived QoE against the
scenario's CellReport when one was saved next to the trace.

Metro telemetry: ``flare-repro metro --telemetry rollups.jsonl``
records one compact health record per cell per exchange epoch (flows,
handover churn, stalls, BAI solver health, assigned bitrate, RB
utilization); ``flare-repro analyze rollups.jsonl --metro`` renders
the health report (hot cells, handover storms, solver churn).
Sharded metro runs also export per-shard pipeline-occupancy stats in
``BENCH_metro.json`` (``rows[].pipeline``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from contextlib import nullcontext
from collections.abc import Callable, Sequence

from repro import check as chk
from repro.experiments import (
    ablation_text,
    generate_report,
    figure6_text,
    figure7_text,
    figure8_text,
    figure9_text,
    figure10_text,
    figure11_text,
    figure12_text,
    figure_time_series,
    is_full_run,
    render_time_series,
    table1_text,
    table2_text,
)
from repro.experiments.bench import BenchRecord, measure, write_bench_json
from repro.experiments.metro import run_metro_scaling
from repro.experiments.parallel import execution_defaults, resolve_jobs
from repro.experiments.runner import full_mode
from repro.metrics.serialize import dump_cell_report, load_cell_report
from repro.obs import EVENT_FAMILIES, MetricsRegistry, tracing
from repro.obs import prof
from repro.obs import telemetry as obs_telemetry
from repro.obs.analyze import (
    analyze_telemetry,
    analyze_trace,
    render_analysis,
    render_metro_health,
)
from repro.workload.scenarios import (
    build_cell_scenario,
    build_mixed_scenario,
    build_scale_scenario,
    build_testbed_scenario,
    build_trace_scenario,
)


def _fig4(scheme: str, dynamic: bool) -> str:
    duration = 600.0 if is_full_run() else 240.0
    traces = figure_time_series(scheme, dynamic=dynamic,
                                duration_s=duration)
    return render_time_series(traces)


def _all_schemes_fig(dynamic: bool) -> str:
    return "\n\n".join(_fig4(scheme, dynamic)
                       for scheme in ("festive", "google", "flare"))


#: Scenario name -> (builder, fixed kwargs) for the ``trace`` command.
TRACE_SCENARIOS = {
    "testbed": (build_testbed_scenario, {}),
    "testbed-dynamic": (build_testbed_scenario, {"dynamic": True}),
    "cell": (build_cell_scenario, {}),
    "cell-mobile": (build_cell_scenario, {"mobile": True}),
    "mixed": (build_mixed_scenario, {}),
    "trace-driven": (build_trace_scenario, {}),
    "scale": (build_scale_scenario, {}),
}


def _scenario_duration(args: argparse.Namespace) -> float:
    if args.duration is not None:
        return float(args.duration)
    return 600.0 if is_full_run() else 120.0


def _trace_command(args: argparse.Namespace) -> str:
    """Run one scenario with tracing on; report per-family counts."""
    builder, fixed = TRACE_SCENARIOS[args.scenario]
    out = args.out if args.out != "results" else "trace.jsonl"
    duration = _scenario_duration(args)
    scheme = args.scheme if args.scheme else "flare"
    counts = MetricsRegistry()
    with tracing(jsonl=out, registry=counts) as tracer:
        report = builder(scheme=scheme, seed=args.seed,
                         duration_s=duration, **fixed).run()
        emitted = tracer.events_emitted
    # Save the collector's view next to the trace so `analyze` can
    # cross-validate trace-derived QoE against it.
    report_path = pathlib.Path(f"{out}.report.json")
    report_path.write_text(dump_cell_report(report) + "\n",
                           encoding="utf-8")
    lines = [f"trace written to {out} ({emitted} events)",
             f"cell report written to {report_path}"]
    for family, types in EVENT_FAMILIES.items():
        total = sum(counts.counter(f"events.{name}").value
                    for name in types)
        lines.append(f"  {family:<12} {total:>8}")
    return "\n".join(lines)


def _metro_command(args: argparse.Namespace,
                   record: BenchRecord | None = None) -> str:
    """Run the metro scaling study; stash it in the BENCH artifact.

    Shard counts swept: 1 plus the resolved ``--jobs`` count (when
    more than one worker is configured), so the emitted
    ``BENCH_metro.json`` always contains the 1-shard baseline the
    speedup column is relative to.
    """
    jobs = resolve_jobs(None)
    shard_counts = (1,) if jobs <= 1 else (1, jobs)
    num_cells = (args.cells if args.cells is not None
                 else (100 if is_full_run() else 16))
    ues_per_cell = (args.ues_per_cell if args.ues_per_cell is not None
                    else (10 if is_full_run() else 4))
    duration = (float(args.duration) if args.duration is not None
                else (120.0 if is_full_run() else 40.0))
    study = run_metro_scaling(
        num_cells=num_cells, ues_per_cell=ues_per_cell,
        duration_s=duration, shard_counts=shard_counts,
        scheme=args.scheme if args.scheme else "flare", seed=args.seed)
    if record is not None:
        record.extra["scaling"] = study
    lines = [f"metro scaling study: {study['cells']} cells, "
             f"{study['ues']} UEs, {study['duration_s']:g} s simulated",
             f"{'shards':>7} {'wall_s':>9} {'speedup':>8} "
             f"{'UE-s/s':>10} {'handovers':>10} {'kernel_cells':>13}"]
    for row in study["rows"]:
        lines.append(f"{row['shards']:>7} {row['wall_time_s']:>9.2f} "
                     f"{row['speedup']:>8.2f} {row['ues_per_s']:>10.0f} "
                     f"{row['handovers']:>10} {row['kernel_cell_runs']:>13}")
    return "\n".join(lines)


def _profile_command(args: argparse.Namespace) -> None:
    """Run any command/scenario under the span profiler.

    Only the profiled run happens here (inside the measured region);
    trace export and the text report are emitted afterwards by
    :func:`_profile_export`, so they do not inflate the wall time
    ``BENCH_profile.json`` records for the run.
    """
    profiler = prof.current()
    assert profiler is not None  # installed by main() for this command
    target = args.scenario
    table = _command_table()
    with profiler.span("run"):
        if target in table:
            table[target](args)
        elif target == "metro":
            _metro_command(args)
        elif target == "all":
            for handler in table.values():
                handler(args)
        elif target == "report":
            generate_report(args.out if args.out != "results"
                            else "results")
        else:
            builder, fixed = TRACE_SCENARIOS[target]
            scheme = args.scheme if args.scheme else "flare"
            builder(scheme=scheme, seed=args.seed,
                    duration_s=_scenario_duration(args), **fixed).run()


def _profile_export(args: argparse.Namespace,
                    profiler: prof.Profiler) -> str:
    """Write the Chrome trace and render the per-phase report."""
    trace_out = (args.out if args.out != "results"
                 else f"profile_{args.scenario}.trace.json")
    trace_path = profiler.write_chrome_trace(trace_out)
    lines = [profiler.report(),
             f"chrome trace written to {trace_path} "
             f"(load in Perfetto or chrome://tracing)"]
    return "\n".join(lines)


def _find_sibling_report(trace_path: pathlib.Path) -> pathlib.Path | None:
    """The ``<trace>.report.json`` the trace command writes, if any."""
    if trace_path.is_dir():
        candidates = sorted(trace_path.glob("*.report.json"))
        return candidates[0] if candidates else None
    sibling = pathlib.Path(f"{trace_path}.report.json")
    return sibling if sibling.exists() else None


def _analyze_command(args: argparse.Namespace) -> str:
    """Offline trace analytics: sessions, stalls, solver health.

    With ``--metro`` the positional is a per-epoch telemetry rollup
    stream (written by ``metro --telemetry``) instead of an event
    trace, and the output is the metro health report: per-cell
    rollups, hot cells, handover storms and solver churn.
    """
    trace_path = pathlib.Path(args.scenario)
    if not trace_path.exists():
        raise SystemExit(f"flare-repro analyze: no trace at {trace_path}")
    if args.metro:
        records = obs_telemetry.load_telemetry(trace_path)
        return render_metro_health(analyze_telemetry(records))
    report = None
    report_path = _find_sibling_report(trace_path)
    if report_path is not None:
        report = load_cell_report(report_path.read_text(encoding="utf-8"))
    analysis = analyze_trace(trace_path, report)
    return render_analysis(analysis)


def _command_table() -> dict[str, Callable[[argparse.Namespace], str]]:
    return {
        "table1": lambda args: table1_text(),
        "table2": lambda args: table2_text(),
        "fig4": lambda args: (_fig4(args.scheme, False) if args.scheme
                              else _all_schemes_fig(False)),
        "fig5": lambda args: (_fig4(args.scheme, True) if args.scheme
                              else _all_schemes_fig(True)),
        "fig6": lambda args: figure6_text(),
        "fig7": lambda args: figure7_text(),
        "fig8": lambda args: figure8_text(),
        "fig9": lambda args: figure9_text(),
        "fig10": lambda args: figure10_text(),
        "fig11": lambda args: figure11_text(),
        "fig12": lambda args: figure12_text(),
        "ablations": lambda args: ablation_text(),
    }


class _Parser(argparse.ArgumentParser):
    """Argument parser with per-command ``scenario`` validation.

    The positional ``scenario`` means different things per command
    (trace scenario, profile target, trace path for ``analyze``), so
    static ``choices`` cannot express it — this hook validates after
    parsing, keeping argparse's usual ``SystemExit`` error behaviour.
    """

    def parse_args(self, args: Sequence[str] | None = None,  # type: ignore[override]
                   namespace: argparse.Namespace | None = None
                   ) -> argparse.Namespace:
        parsed = super().parse_args(args, namespace)
        if parsed.command == "trace":
            if parsed.scenario is None:
                parsed.scenario = "testbed"
            if parsed.scenario not in TRACE_SCENARIOS:
                self.error(
                    f"argument scenario: invalid choice: "
                    f"{parsed.scenario!r} (choose from "
                    f"{', '.join(sorted(TRACE_SCENARIOS))})")
        elif parsed.command == "profile":
            targets = ({*TRACE_SCENARIOS, *_command_table(),
                        "all", "report", "metro"})
            if parsed.scenario is None:
                parsed.scenario = "testbed"
            if parsed.scenario not in targets:
                self.error(
                    f"argument scenario: invalid profile target: "
                    f"{parsed.scenario!r} (choose from "
                    f"{', '.join(sorted(targets))})")
        elif parsed.command == "analyze":
            if parsed.scenario is None:
                self.error("analyze requires a JSONL trace file or a "
                           "directory of trace shards")
        return parsed


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = _Parser(
        prog="flare-repro",
        description="Reproduce FLARE (ICDCS 2017) tables and figures.",
    )
    commands = [*_command_table(), "all", "report", "metro", "trace",
                "profile", "analyze"]
    parser.add_argument("command", choices=commands,
                        help="which table/figure to regenerate")
    parser.add_argument("scenario", nargs="?", default=None,
                        help="scenario for the trace/profile commands "
                             "(default: testbed), or the trace "
                             "file/directory for analyze")
    parser.add_argument("--scheme", default=None,
                        choices=("festive", "google", "flare"),
                        help="single scheme for fig4/fig5 panels and "
                             "the trace command (default there: flare)")
    parser.add_argument("--full", action="store_true",
                        help="paper-fidelity scale (slow); equivalent to "
                             "REPRO_FULL=1")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the experiment matrix "
                             "(default: REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every cell instead of reusing the "
                             "on-disk result cache")
    parser.add_argument("--out", default="results",
                        help="output directory for the report command, "
                             "or JSONL path for the trace command "
                             "(default there: trace.jsonl)")
    parser.add_argument("--check", action="store_true",
                        help="enable the runtime invariant sanitizer "
                             "(equivalent to REPRO_CHECK=1; workers "
                             "inherit it)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSONL event trace of the whole "
                             "command to PATH (any command)")
    parser.add_argument("--duration", type=float, default=None,
                        metavar="SECONDS",
                        help="simulated duration for the trace command "
                             "(default: 120, or 600 with --full) and "
                             "the metro command (default: 40/120)")
    parser.add_argument("--cells", type=int, default=None, metavar="N",
                        help="metro command: number of cells "
                             "(default: 16, or 100 with --full)")
    parser.add_argument("--ues-per-cell", type=int, default=None,
                        metavar="N",
                        help="metro command: UEs per cell "
                             "(default: 4, or 10 with --full)")
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="metro command (also under profile): "
                             "write per-epoch per-cell health rollups "
                             "as JSONL to PATH; inspect them with "
                             "`flare-repro analyze PATH --metro`")
    parser.add_argument("--metro", action="store_true",
                        help="analyze command: treat the input as a "
                             "telemetry rollup stream and print the "
                             "metro health report")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for the trace command")
    return parser


def _dispatch(args: argparse.Namespace,
              record: BenchRecord | None = None) -> int:
    table = _command_table()
    if args.command == "metro":
        print(_metro_command(args, record))
        return 0
    if args.command == "trace":
        print(_trace_command(args))
        return 0
    if args.command == "profile":
        _profile_command(args)
        return 0
    if args.command == "analyze":
        print(_analyze_command(args))
        return 0
    if args.command == "report":
        path = generate_report(args.out)
        print(f"report written to {path}")
        return 0
    if args.command == "all":
        for name, handler in table.items():
            print(f"\n### {name}\n")
            print(handler(args))
        return 0
    print(table[args.command](args))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    scale_context = full_mode(True) if args.full else nullcontext()
    check_context = chk.checked_run() if args.check else nullcontext()
    # The trace command installs its own tracer; --trace covers the rest.
    trace_context = (tracing(jsonl=args.trace)
                     if args.trace and args.command != "trace"
                     else nullcontext())
    profile_context = (
        prof.profiling(event_min_s=prof.DEFAULT_EVENT_MIN_S)
        if args.command == "profile" else nullcontext())
    telemetry_context = (obs_telemetry.collecting() if args.telemetry
                         else nullcontext())
    with scale_context, check_context, trace_context, \
            execution_defaults(jobs=args.jobs,
                               use_cache=not args.no_cache):
        with profile_context as profiler, \
                telemetry_context as collector:
            with measure(args.command, command=args.command,
                         full_scale=is_full_run()) as record:
                status = _dispatch(args, record)
        if profiler is not None:
            record.extra["profile"] = profiler.bench_section()
            print(_profile_export(args, profiler))
        if collector is not None:
            rollup_path = collector.write_jsonl(args.telemetry)
            record.extra["telemetry"] = {
                "path": str(rollup_path),
                "records": len(collector),
            }
            print(f"telemetry rollups written to {rollup_path} "
                  f"({len(collector)} records); inspect with "
                  f"`flare-repro analyze {rollup_path} --metro`")
        bench_path = write_bench_json(record)
    print(f"[bench] {bench_path}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
