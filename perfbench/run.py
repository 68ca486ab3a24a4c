"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload metro --seed 0 --seconds 10 --trace 0

``--trace 0`` repeats the workload in fresh processes (``rep.py``),
at least twice and until ``--seconds`` have passed, and reports the
end-to-end metrics over the repetitions (see
:func:`end_to_end_metrics`).  ``--trace 1``
runs the workload once untraced and once with the outside-in layer
trace (``spans.py``), until ``--seconds`` have passed, and reports
the per-layer metrics.  ``metro_2shard`` also runs ``metro``
on the same seed and counts the sessions of every cell whose report
differs as failed.  The last line of standard output is the JSON
result; a record with provenance, QoE, digests and overload flag goes
to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from names import END_TO_END, LAYERS, QOE_RECORDED
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: A run must finish inside this many seconds, whatever --seconds says.
DEADLINE_S = 170.0

#: Workloads serving fewer sessions than this are flagged overloaded.
OVERLOAD_SERVED_FRAC = 0.9

#: Untraced runs time at least this many repetitions, however short
#: --seconds is: one repetition of a metro workload outlasts it, and
#: on a shared virtual host one repetition alone moves by ±10%.
MIN_TIMED_REPS = 2


class RepFailed(RuntimeError):
    """A repetition process crashed, timed out or printed no result."""


def rep(workload: str, seed: int, mode: str, deadline: float,
        extra: tuple[str, ...] = ()) -> dict[str, Any]:
    """Run ``rep.py`` in a fresh process group and parse its result."""
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, *extra]
    # A fixed hash seed keeps dict and set layouts, and so the work done,
    # the same from one repetition to the next.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        out, err = child.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # A hung repetition, and any shard or pool worker a crash left
        # behind, die with the process group.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if out is None:
        child.communicate()
        raise RepFailed(f"{workload} {mode} repetition timed out")
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RepFailed(f"{workload} {mode} repetition exited "
                        f"{child.returncode}:\n{err[-4000:]}")
    return json.loads(lines[-1])


def identity_failures(result: dict[str, Any],
                      reference: dict[str, Any]) -> tuple[int, list[str]]:
    """Sessions of cells whose report differs from the reference run."""
    differing = sorted(
        (label for label in set(result["cells"]) | set(reference["cells"])
         if result["cells"].get(label) != reference["cells"].get(label)),
        key=lambda label: int(label) if label.isdigit() else label)
    flows: set[int] = set()
    for label in differing:
        flows.update(result["flows"].get(label, []))
        flows.update(reference["flows"].get(label, []))
    problems = ([f"cells {', '.join(differing)} differ from "
                 f"{reference['workload']} on the same seed"]
                if differing else [])
    return len(flows), problems


def provenance(workload: Any) -> dict[str, Any]:
    """Host and build stamp recorded with every result."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # numpy is a dependency; record its absence
        numpy_version = None
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "revision": revision,
        "jobs": workload.jobs,
        "shards": workload.shards,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    results: list[dict[str, Any]] = []
    errors: list[str] = []
    attempted = 0
    failed = 0
    reference = None
    try:
        if workload.reference is not None:
            reference = rep(workload.reference, args.seed, "timed",
                            deadline)
        if args.trace:
            trace_dir = OUT / "trace" / f"{workload.name}-seed{args.seed}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            modes = [("timed", ()),
                     ("traced", ("--trace-dir", str(trace_dir)))]
        else:
            modes = [("timed", ())]
        min_rounds = 1 if args.trace else MIN_TIMED_REPS
        measure_start = time.monotonic()
        rounds = 0
        while True:
            for mode, extra in modes:
                attempted += workload.sessions
                results.append(rep(workload.name, args.seed, mode,
                                   deadline, extra))
            rounds += 1
            spent = time.monotonic() - measure_start
            if rounds >= min_rounds and spent >= args.seconds:
                break
            if time.monotonic() + spent / rounds > deadline - 5.0:
                break
    except RepFailed as error:
        errors.append(str(error))
        failed += workload.sessions

    problems: list[str] = []
    for result in results:
        failed_here = result["failed"]
        problems += result["problems"]
        if reference is not None:
            diverged, why = identity_failures(result, reference)
            failed_here = max(failed_here, diverged)
            problems += why
        failed += failed_here
    problems = list(dict.fromkeys(problems))
    digests = sorted({r["digest"] for r in results})
    correct = (not errors and bool(results) and len(digests) == 1
               and all(not r["problems"] for r in results))
    if len(digests) > 1:
        problems.append(f"repetitions disagree: {len(digests)} digests")

    timed = [r for r in results if r["mode"] == "timed"]
    traced = [r for r in results if r["mode"] == "traced"]
    units = LAYERS if args.trace else END_TO_END
    metrics: dict[str, float] = {}
    if timed and (traced or not args.trace):
        end_to_end = end_to_end_metrics(timed)
        metrics = (layer_medians(timed, traced) if args.trace
                   else end_to_end)
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "provenance": provenance(workload),
            "overloaded": (workload.always_overloaded
                           or end_to_end["served_frac"]
                           < OVERLOAD_SERVED_FRAC),
            "digest": digests[0] if len(digests) == 1 else digests,
            "end_to_end": end_to_end,
            "qoe": {name: timed[0]["qoe"][name] for name in QOE_RECORDED},
            "layers": metrics if args.trace else None,
            "repetitions": len(results),
            "problems": problems + errors,
        }
        record["headline"] = not record["overloaded"]
        OUT.mkdir(exist_ok=True)
        (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(record, indent=2) + "\n")
        for name, value in metrics.items():
            print(f"{name:28s} {value:16.6f} {units[name]}")
        for name, value in record["qoe"].items():
            print(f"{name:28s} {value:16.6f} (recorded, not bounded)")
        for name in ("digest", "overloaded", "provenance"):
            print(f"{name:28s} {record[name]}")
    for line in problems + errors:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": min(failed, max(attempted, 1)),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def end_to_end_metrics(timed: list[dict[str, Any]]) -> dict[str, float]:
    """End-to-end metrics over the timed repetitions, plus the run's QoE.

    Throughput is that of the fastest repetition and set-up time that
    of the fastest set-up sample.  Every repetition does the same work,
    and on a shared host other tenants only ever slow it down: the
    host runs in phases up to 1.7x apart that last from a fraction of
    a second to minutes.  The fastest measurement is the steadiest
    estimate of the program's own speed, as ``timeit`` advises; a
    median of a few lands on whichever phase they happened to hit.
    """
    qoe = timed[0]["qoe"]
    return {
        "sim_ue_s_per_s": max(r["client_s"] / r["wall_s"] for r in timed),
        "sim_ue_s_per_cpu_s": max(r["client_s"] / r["cpu_s"] for r in timed),
        "setup_s": min(t for r in timed for t in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        **{name: qoe[name] for name in END_TO_END if name in qoe},
    }


def layer_medians(timed: list[dict[str, Any]],
                  traced: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer medians over traced repetitions, plus trace overhead."""
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in LAYERS}
    layers["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in timed) - 1.0)
    return layers


if __name__ == "__main__":
    sys.exit(main())
