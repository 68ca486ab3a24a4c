"""JSONL audit exports: the simulation's decision trail on disk.

Every coordinated run leaves two machine-readable trails: the OneAPI
server's per-BAI decisions and each player's per-segment history.
These exporters serialise them as JSON Lines — one event per line —
the format log-analysis tooling (jq, pandas, DuckDB) consumes
directly.
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Iterator
from typing import Any, Union

from repro.core.oneapi import OneApiServer
from repro.has.player import HasPlayer

PathLike = Union[str, pathlib.Path]


def dump_bai_log(server: OneApiServer, path: PathLike) -> pathlib.Path:
    """Write the server's BAI decision trail as JSONL.

    One line per BAI: timestamp, flow populations, the solver's raw
    recommendation, the enforced (post-hysteresis) assignment, the RB
    share ``r``, the objective value, and the solve time.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for record in server.records:
            handle.write(json.dumps({
                "time_s": round(record.time_s, 6),
                "num_video_flows": record.num_video_flows,
                "num_data_flows": record.num_data_flows,
                "recommended": {str(flow.flow_id): flow.recommended
                                for flow in record.flows},
                "enforced": {str(flow.flow_id): flow.enforced
                             for flow in record.flows},
                "rates_bps": {str(flow.flow_id): flow.rate_bps
                              for flow in record.flows},
                "r": round(record.r, 6),
                "utility": round(record.utility, 6),
                "solve_time_ms": round(record.solve_time_s * 1e3, 4),
                "feasible": record.feasible,
            }) + "\n")
    return path


def dump_segment_log(player: HasPlayer, path: PathLike) -> pathlib.Path:
    """Write one player's per-segment history as JSONL."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for record in player.log.records:
            handle.write(json.dumps({
                "segment": record.index,
                "bitrate_bps": record.bitrate_bps,
                "size_bytes": record.size_bytes,
                "request_time_s": round(record.request_time_s, 6),
                "start_time_s": round(record.start_time_s, 6),
                "finish_time_s": round(record.finish_time_s, 6),
                "throughput_bps": round(record.throughput_bps, 3),
            }) + "\n")
    return path


def read_jsonl(path: PathLike) -> Iterator[dict[str, Any]]:
    """Yield parsed events from a JSONL file (for tests/analysis)."""
    with pathlib.Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)
