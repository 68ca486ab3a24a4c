"""Same-runner benchmark pairs: gate a head checkout against its base.

Usage::

    python tools/bench_pair.py BASE HEAD [--pairs N] [--json PATH]

BASE and HEAD are two checkouts of the repository that carry the same
benchmark: ``BENCHMARK.json`` and every directory its ``paths`` lists
must be byte-identical, so only the code under test differs.  For each
workload the tool runs ``BENCHMARK.json``'s command on both checkouts
``--pairs`` times (:data:`PAIRS` by default) at seed :data:`SEED` for
``run_seconds``, alternating which side runs first from one pair to
the next.  It prints, per workload and end-to-end metric, each side's
median over the pairs, how many pairs the head won (a tie counts for
neither side), the change and the metric's bound, as a markdown
table.  With ``--json PATH`` it also writes that table and the raw
runs to PATH: per workload and metric each side's values in pair
order, the medians, pairs won, change, bound and verdict; each run's
digest and failed and attempted sessions; the host's CPU count, the
Python version and the seed.

Exit codes: ``0`` the head is within every bound; ``1`` on some
workload an end-to-end metric's head median is worse than the base
median by more than its bound, the head failed a larger share of
sessions, or a head run was not ``correct``; ``2`` bad input (an
unreadable ``BENCHMARK.json``, benchmarks that differ between the
checkouts, or a run that printed no result).  Report digests are
printed but not gated: a change may move them on purpose.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Pairs of runs per workload unless ``--pairs`` says otherwise: what
#: CI's time budget allows.  A claimed gain needs at least 10.
PAIRS = 3

#: Workload seed of every run.
SEED = 0

SIDES = ("base", "head")


class BadInput(Exception):
    """A checkout or a run the comparison cannot use."""


@dataclass
class Run:
    """The result line (and record digest) of one benchmark run."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    digest: str


def load_benchmark(checkout: Path) -> dict[str, Any]:
    """``BENCHMARK.json`` of ``checkout``, with the fields used here."""
    path = checkout / "BENCHMARK.json"
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
        missing = [key for key in ("command", "paths", "run_seconds",
                                   "workloads", "end_to_end")
                   if key not in config]
        if missing:
            raise ValueError(f"no {', '.join(missing)}")
        for metric in config["end_to_end"]:
            if metric["better"] not in ("higher", "lower"):
                raise ValueError(f"{metric['name']}: better must be "
                                 f"'higher' or 'lower'")
            float(metric["bound"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BadInput(f"cannot use {path}: {exc!r}") from exc
    return config


def tree_files(root: Path) -> dict[str, bytes]:
    """Relative path -> contents of every file under ``root``.

    Bytecode caches are left out: running the benchmark writes them.
    """
    if not root.is_dir():
        raise BadInput(f"{root} is not a directory")
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
            and "__pycache__" not in path.relative_to(root).parts}


def same_benchmark(base: Path, head: Path) -> dict[str, Any]:
    """The shared benchmark config; raises unless both sides match."""
    config = load_benchmark(head)
    if load_benchmark(base) != config:
        raise BadInput("BENCHMARK.json differs between the checkouts")
    for name in config["paths"]:
        base_files = tree_files(base / name)
        head_files = tree_files(head / name)
        differing = sorted(rel for rel in base_files.keys() | head_files
                           if base_files.get(rel) != head_files.get(rel))
        if differing:
            raise BadInput(
                f"{name}/ differs between the checkouts "
                f"({', '.join(differing[:5])}); copy the head's "
                f"benchmark over the base")
    return config


def run_once(checkout: Path, config: dict[str, Any],
             workload: str) -> Run:
    """Run the benchmark command once in ``checkout``."""
    record = checkout / ".perfbench" / f"{workload}-seed{SEED}-trace0.json"
    record.unlink(missing_ok=True)
    command = [*config["command"], "--workload", workload,
               "--seed", str(SEED), "--seconds", str(config["run_seconds"]),
               "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, stdin=subprocess.DEVNULL, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: float(entry["value"])
                   for name, entry in result["metrics"].items()}
        attempted, failed = int(result["attempted"]), int(result["failed"])
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        raise BadInput(f"{checkout}: {workload} printed no result "
                       f"(exit {done.returncode}):\n"
                       f"{done.stderr[-2000:]}") from exc
    digest = "-"
    if record.is_file():
        # A record whose repetitions disagree lists every digest.
        found = json.loads(record.read_text(encoding="utf-8"))["digest"]
        digest = found if isinstance(found, str) else "/".join(found)
    return Run(bool(result["correct"]), attempted, failed, metrics, digest)


def run_pairs(checkouts: dict[str, Path], config: dict[str, Any],
              pairs: int = PAIRS) -> dict[str, dict[str, list[Run]]]:
    """workload -> side -> runs, alternating the side that goes first."""
    runs: dict[str, dict[str, list[Run]]] = {}
    turn = 0
    for workload in config["workloads"]:
        name = workload["name"]
        runs[name] = {side: [] for side in SIDES}
        for pair in range(1, pairs + 1):
            order = SIDES if turn % 2 == 0 else SIDES[::-1]
            turn += 1
            for side in order:
                print(f"bench-pair: {name} pair {pair}/{pairs}: {side}",
                      file=sys.stderr, flush=True)
                runs[name][side].append(
                    run_once(checkouts[side], config, name))
    return runs


def relative_change(base: float, head: float) -> float:
    """``(head - base) / |base|``; infinite when only the base is 0."""
    if base == 0.0:
        return 0.0 if head == 0.0 else math.copysign(math.inf, head)
    return (head - base) / abs(base)


def compare(config: dict[str, Any],
            runs: dict[str, dict[str, list[Run]]]
            ) -> tuple[list[str], list[str], dict[str, Any]]:
    """The markdown table rows, the reasons the head fails, and the
    per-workload record of runs and verdicts."""
    rows: list[str] = []
    failures: list[str] = []
    record: dict[str, Any] = {}
    for name, sides in runs.items():
        metrics = {metric["name"]: _metric_entry(metric, sides)
                   for metric in config["end_to_end"]}
        for key, entry in metrics.items():
            rows.append(_metric_row(name, key, entry, failures))
        rows += _session_rows(name, sides, failures)
        record[name] = {
            "metrics": metrics,
            **{side: {"digest": [run.digest for run in sides[side]],
                      "failed": [run.failed for run in sides[side]],
                      "attempted": [run.attempted for run in sides[side]],
                      "correct": [run.correct for run in sides[side]]}
               for side in SIDES},
        }
    return rows, failures, record


def _metric_entry(metric: dict[str, Any],
                  sides: dict[str, list[Run]]) -> dict[str, Any]:
    """One end-to-end metric: runs, medians, pairs won, change, verdict."""
    key = metric["name"]
    values = {side: [run.metrics.get(key) for run in sides[side]]
              for side in SIDES}
    medians: dict[str, float | None] = {}
    for side in SIDES:
        present = [value for value in values[side] if value is not None]
        medians[side] = statistics.median(present) if present else None
    pairs = [(b, h) for b, h in zip(values["base"], values["head"])
             if b is not None and h is not None]
    higher = metric["better"] == "higher"
    bound = float(metric["bound"])
    change: float | None = None
    verdict = "-"
    base, head = medians["base"], medians["head"]
    if base is not None and head is not None:
        change = relative_change(base, head)
        worse = change < -bound if higher else change > bound
        verdict = "WORSE" if worse else "ok"
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": bound,
        "base": values["base"], "head": values["head"],
        "base_median": base, "head_median": head,
        "head_won": sum(h > b if higher else h < b for b, h in pairs),
        "pairs": len(pairs), "change": change, "verdict": verdict,
    }


def _metric_row(name: str, key: str, entry: dict[str, Any],
                failures: list[str]) -> str:
    """One end-to-end metric's table row; a WORSE verdict fails."""
    base, head = entry["base_median"], entry["head_median"]
    change, bound = entry["change"], entry["bound"]
    if entry["verdict"] == "WORSE":
        failures.append(f"{name}: {key} head median {head:.6g} is "
                        f"{abs(change):.1%} worse than base {base:.6g} "
                        f"(bound {bound:.0%})")
    return _row(name, f"{key} ({entry['unit']})", _num(base), _num(head),
                f"{entry['head_won']}/{entry['pairs']}",
                "-" if change is None else f"{change:+.1%}",
                f"{bound:.0%}", entry["verdict"])


def _session_rows(name: str, sides: dict[str, list[Run]],
                  failures: list[str]) -> list[str]:
    """Failed sessions and correct runs (gated), digests (printed)."""
    base, head = sides["base"], sides["head"]
    base_failed = sum(run.failed for run in base)
    base_tried = sum(run.attempted for run in base)
    head_failed = sum(run.failed for run in head)
    head_tried = sum(run.attempted for run in head)
    more_failed = head_failed * base_tried > base_failed * head_tried
    if more_failed:
        failures.append(f"{name}: head failed {head_failed} of "
                        f"{head_tried} sessions, base {base_failed} of "
                        f"{base_tried}")
    base_correct = sum(run.correct for run in base)
    head_correct = sum(run.correct for run in head)
    if head_correct < len(head):
        failures.append(f"{name}: {len(head) - head_correct} of "
                        f"{len(head)} head runs not correct")
    digests = [", ".join(sorted({run.digest[:16] for run in runs}))
               for runs in (base, head)]
    return [
        _row(name, "failed sessions", f"{base_failed}/{base_tried}",
             f"{head_failed}/{head_tried}", "", "", "",
             "WORSE" if more_failed else "ok"),
        _row(name, "correct runs", f"{base_correct}/{len(base)}",
             f"{head_correct}/{len(head)}", "", "", "",
             "ok" if head_correct == len(head) else "WORSE"),
        _row(name, "digest", *digests, "", "", "",
             "same" if digests[0] == digests[1]
             else "differs (not gated)"),
    ]


def _num(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def _row(*cells: str) -> str:
    return "| " + " | ".join(cells) + " |"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_pair",
        description="Run the benchmark in alternating base/head pairs "
                    "and fail when the head is worse than a bound.")
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("head", type=Path, help="checkout under test")
    parser.add_argument("--pairs", type=int, default=PAIRS, metavar="N",
                        help=f"pairs of runs per workload (default {PAIRS})")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the table and the raw runs "
                             "to PATH as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"base": args.base.resolve(), "head": args.head.resolve()}
    try:
        config = same_benchmark(checkouts["base"], checkouts["head"])
        runs = run_pairs(checkouts, config, args.pairs)
    except BadInput as exc:
        print(f"bench-pair: {exc}", file=sys.stderr)
        return 2
    rows, failures, record = compare(config, runs)
    table = [_row("workload", "metric", "base median", "head median",
                  "head won", "change", "bound", "verdict"),
             "|---|---|---:|---:|---:|---:|---:|---|", *rows]
    print(f"## Benchmark pairs: {checkouts['base']} (base) vs "
          f"{checkouts['head']} (head)\n\n"
          f"{args.pairs} pairs per workload, seed {SEED}, "
          f"{config['run_seconds']} s per run, {os.cpu_count()} CPUs.\n")
    print("\n".join(table))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "base": str(args.base), "head": str(args.head),
            "pairs": args.pairs, "seed": SEED,
            "run_seconds": config["run_seconds"],
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "table": table, "workloads": record, "failures": failures,
            "verdict": "FAIL" if failures else "OK",
        }, indent=2) + "\n", encoding="utf-8")
    if failures:
        print("\n**bench-pair: FAIL**\n")
        print("\n".join(f"- {reason}" for reason in failures))
        return 1
    print("\n**bench-pair: OK**: every end-to-end metric within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
