"""Memory bounds: long metro runs keep memory flat.

Two stores grow with simulated time in every cell: the OneAPI server's
BAI ring (one row per BAI, up to ``MAX_RECORDS``) and each UE's fading
trace (one sample per fading period).  The soak test bounds what they
and everything else add per simulated hour; the size tests pin the
compact layout of each.
"""

import gc
import os
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np

import repro
from repro.phy.channel import FadingProcess
from repro.sim.network import Network, NetworkShard
from repro.workload.metro import build_metro_plan

#: A metro run in a fresh interpreter; prints its peak RSS (ru_maxrss).
SOAK = """\
import resource
import sys

from repro.sim.network import Network
from repro.workload.metro import build_metro_plan

plan = build_metro_plan(num_cells=16, ues_per_cell=2, seed=0)
Network(plan).run(float(sys.argv[1]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

#: Peak-RSS growth a metro may show per simulated hour: between the
#: plan's growth with a full BAI decision per ring entry and list-backed
#: fading traces (about 60 MB/h) and with compact rows and packed
#: traces (about 20 MB/h: the rows, segment logs and handover records).
MAX_GROWTH_MB_PER_HOUR = 30.0

#: Bytes a BAI row of four flows may take, shared objects amortised.
MAX_ROW_BYTES = 600


def peak_rss_mb(duration_s):
    """Peak RSS of a fresh process that runs the soak metro."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", SOAK, str(duration_s)], env=env,
        capture_output=True, text=True, timeout=300, check=True)
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    unit = 1 if sys.platform == "darwin" else 1024
    return int(done.stdout.split()[-1]) * unit / 2 ** 20


def test_metro_memory_growth_per_simulated_hour():
    short_s, long_s = 300.0, 1200.0
    short_mb = peak_rss_mb(short_s)
    long_mb = peak_rss_mb(long_s)
    growth = (long_mb - short_mb) / (long_s - short_s) * 3600.0
    assert growth <= MAX_GROWTH_MB_PER_HOUR, (
        f"peak RSS {short_mb:.1f} MB after {short_s:.0f} s, "
        f"{long_mb:.1f} MB after {long_s:.0f} s: "
        f"{growth:.1f} MB per simulated hour")


def deep_size(obj, seen):
    """Bytes ``obj`` reaches that ``seen`` does not hold yet."""
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, type):
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        stack.extend(gc.get_referents(item))
    return total


def test_bai_rows_are_compact(monkeypatch):
    shards = []
    init = NetworkShard.__init__

    def keep(shard, *args, **kwargs):
        init(shard, *args, **kwargs)
        shards.append(shard)

    monkeypatch.setattr(NetworkShard, "__init__", keep)
    Network(build_metro_plan(num_cells=16, ues_per_cell=4,
                             seed=0)).run(120.0)
    [shard] = shards
    rows = [record
            for cell_id in shard.cell_ids
            for record in shard.built(cell_id).system.server.records
            if record.num_video_flows == 4]
    assert len(rows) > 50
    seen = set()
    per_row = sum(deep_size(row, seen) for row in rows) / len(rows)
    assert per_row <= MAX_ROW_BYTES


def test_fading_trace_is_packed():
    process = FadingProcess(np.random.default_rng(0), sample_period_s=0.5)
    process.fading_db(9.9)
    assert isinstance(process._samples, array)
    assert process._samples.itemsize == 8
    assert len(process._samples) == 20
