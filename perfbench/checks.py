"""Output checks, QoE reduction and report digests for one run.

One operation is one client session.  A session fails when the report
that holds it fails a check; every session of a run fails when the
run's reports miss or duplicate a planned session, or when table1's
results lose the paper's shape.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any

from repro.has.mpd import SIMULATION_LADDER
from repro.metrics.serialize import dump_cell_report
from repro.workload.scenarios import TESTBED_LADDER

#: No client can average more than the top rung of any ladder in use.
MAX_BITRATE_BPS = max(SIMULATION_LADDER.rates_bps[-1],
                      TESTBED_LADDER.rates_bps[-1])


def report_digest(report: Any) -> str:
    """SHA-256 of one serialized CellReport."""
    return hashlib.sha256(dump_cell_report(report).encode()).hexdigest()


def run_digest(cell_digests: dict[str, str]) -> str:
    """SHA-256 over every labelled report digest, in label order."""
    text = "\n".join(f"{label} {digest}"
                     for label, digest in sorted(cell_digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def report_problems(report: Any, duration_s: float) -> list[str]:
    """Why a report's values are not finite or not in range (empty: ok)."""
    problems = []
    for client in report.clients:
        where = f"flow {client.flow_id}"
        if not (_finite(client.average_bitrate_bps)
                and 0.0 <= client.average_bitrate_bps <= MAX_BITRATE_BPS):
            problems.append(f"{where}: bitrate {client.average_bitrate_bps}")
        if not (_finite(client.rebuffer_time_s)
                and 0.0 <= client.rebuffer_time_s <= duration_s):
            problems.append(f"{where}: rebuffer {client.rebuffer_time_s}")
        if not 0 <= client.num_bitrate_changes <= max(
                client.segments_downloaded - 1, 0):
            problems.append(f"{where}: changes {client.num_bitrate_changes}")
        if client.startup_delay_s is not None and not (
                _finite(client.startup_delay_s)
                and 0.0 <= client.startup_delay_s <= duration_s):
            problems.append(f"{where}: startup {client.startup_delay_s}")
        if not (_finite(client.video_throughput_bps)
                and client.video_throughput_bps >= 0.0):
            problems.append(f"{where}: throughput "
                            f"{client.video_throughput_bps}")
    for flow_id, rate in report.data_throughput_bps.items():
        if not (_finite(rate) and rate >= 0.0):
            problems.append(f"data flow {flow_id}: throughput {rate}")
    jain = report.jain_video_rates
    if jain is not None and not (_finite(jain) and 0.0 < jain <= 1.0 + 1e-9):
        problems.append(f"jain {jain}")
    return problems


def table1_shape(reports: dict[str, Any]) -> list[str]:
    """The paper's Table I shape, on reports labelled ``scheme/seed``.

    FLARE changes bitrate no more often than FESTIVE and never
    rebuffers, and FESTIVE leaves the data flow the most throughput.
    """
    by_scheme: dict[str, list[Any]] = {}
    for label, report in reports.items():
        by_scheme.setdefault(label.split("/")[0], []).append(report)
    clients = {scheme: [c for r in group for c in r.clients]
               for scheme, group in by_scheme.items()}

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    changes = {scheme: mean([c.num_bitrate_changes for c in group])
               for scheme, group in clients.items()}
    data = {scheme: mean([r.mean_data_throughput_bps for r in group])
            for scheme, group in by_scheme.items()}
    problems = []
    if changes.get("flare", math.inf) > changes.get("festive", -math.inf):
        problems.append(f"FLARE changes {changes.get('flare')} > "
                        f"FESTIVE {changes.get('festive')}")
    rebuffer = sum(c.rebuffer_time_s for c in clients.get("flare", []))
    if "flare" not in clients or rebuffer != 0.0:
        problems.append(f"FLARE rebuffers {rebuffer} s")
    if not data or max(data, key=lambda s: data[s]) != "festive":
        problems.append(f"data-flow throughput by scheme {data}")
    return problems


def check_outcome(outcome: Any, shape: bool) -> dict[str, Any]:
    """Check a run's reports and reduce them to QoE numbers.

    Returns ``failed`` (failed session count), ``problems`` (why),
    ``cells`` (label -> report digest), ``digest`` and ``qoe``.
    """
    reports = outcome.reports
    problems: list[str] = []
    failed_flows: set[tuple[str, int]] = set()
    for label, report in reports.items():
        found = report_problems(report, outcome.duration_s)
        if found:
            problems += [f"{label}: {p}" for p in found]
            failed_flows.update((label, c.flow_id) for c in report.clients)
    sessions = sum(len(r.clients) for r in reports.values())
    whole_run_failed = False
    if outcome.planned is not None:
        seen = sorted(c.flow_id for r in reports.values() for c in r.clients)
        if seen != sorted(outcome.planned):
            problems.append(f"{len(seen)} sessions reported for "
                            f"{len(outcome.planned)} planned UEs, or a "
                            "UE reported by more than one cell")
            whole_run_failed = True
        sessions = len(outcome.planned)
    if outcome.expected is not None:
        for label, flows in outcome.expected.items():
            report = reports.get(label)
            got = sorted(c.flow_id for c in report.clients) if report else []
            if got != sorted(flows):
                problems.append(f"{label}: sessions {got} != {flows}")
                whole_run_failed = True
        sessions = sum(len(flows) for flows in outcome.expected.values())
    if shape:
        found = table1_shape(reports)
        problems += found
        whole_run_failed = whole_run_failed or bool(found)
    failed = sessions if whole_run_failed else len(failed_flows)
    cells = {label: report_digest(r) for label, r in reports.items()}
    return {
        "sessions": sessions,
        "failed": failed,
        "problems": problems,
        "cells": cells,
        "flows": {label: [c.flow_id for c in r.clients]
                  for label, r in reports.items()},
        "digest": run_digest(cells),
        "qoe": qoe_summary(reports),
    }


def qoe_summary(reports: dict[str, Any]) -> dict[str, float]:
    """Session-level QoE of one run (deterministic for a fixed seed)."""
    clients = [c for r in reports.values() for c in r.clients]
    count = len(clients) or 1
    jains = [r.jain_video_rates for r in reports.values()
             if r.jain_video_rates is not None]
    return {
        "served_frac": sum(1 for c in clients
                           if c.segments_downloaded > 0) / count,
        "mean_bitrate_kbps": sum(c.average_bitrate_bps
                                 for c in clients) / count / 1e3,
        "mean_changes": sum(c.num_bitrate_changes
                            for c in clients) / count,
        "mean_rebuffer_s": sum(c.rebuffer_time_s for c in clients) / count,
        "jain_fairness": sum(jains) / len(jains) if jains else 0.0,
        "segments": sum(c.segments_downloaded for c in clients),
    }
