"""Tests for the same-runner benchmark pair gate, on two fake checkouts."""

import json
import sys

import pytest

from tools.bench_pair import PAIRS, main

#: The fake benchmark: identical in both checkouts, it prints the
#: canned result of the checkout it runs in, writes the record the
#: real benchmark writes, and logs the call next to the checkouts.
STUB = '''\
import argparse
import json
from pathlib import Path

parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
root = Path.cwd()
with open(root.parent / "calls.log", "a") as log:
    log.write(f"{root.name} {args.workload}\\n")
result = json.loads((root / "result.json").read_text())[args.workload]
record = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace0.json"
record.parent.mkdir(exist_ok=True)
record.write_text(json.dumps({"digest": result.pop("digest")}))
print("human-readable metric lines")
print(json.dumps(result))
'''

END_TO_END = [
    {"name": "sim_ue_s_per_s", "unit": "client-s/s", "better": "higher",
     "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def result(throughput=1000.0, setup_s=1.0, failed=0, correct=True,
           digest="d1gest"):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {
                "sim_ue_s_per_s": {"value": throughput,
                                   "unit": "client-s/s"},
                "setup_s": {"value": setup_s, "unit": "s"}},
            "digest": digest}


def checkout(root, side, results):
    tree = root / side
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB)
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 1,
        "workloads": [{"name": name, "why": "test"} for name in results],
        "end_to_end": END_TO_END,
    }))
    (tree / "result.json").write_text(json.dumps(results))
    return str(tree)


def run_pair(tmp_path, head, base=None):
    """Exit code of the gate over ``{workload: result}`` per side."""
    if base is None:
        base = {name: result() for name in head}
    return main([checkout(tmp_path, "base", base),
                 checkout(tmp_path, "head", head)])


def test_equal_sides_pass_and_alternate_the_first_side(tmp_path, capsys):
    assert run_pair(tmp_path, {"w1": result(), "w2": result()}) == 0
    out = capsys.readouterr().out
    assert "bench-pair: OK" in out
    assert "| w2 | sim_ue_s_per_s (client-s/s) | 1000 | 1000 | +0.0% |" in out
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert len(calls) == 2 * 2 * PAIRS
    firsts = [calls[i].split()[0] for i in range(0, len(calls), 2)]
    assert firsts == ["base", "head", "base", "head", "base", "head"]
    assert calls[:2] == ["base w1", "head w1"]
    assert calls[-2:] == ["head w2", "base w2"]


def test_slower_head_fails_naming_metric_and_workload(tmp_path, capsys):
    head = {"w1": result(), "w2": result(throughput=700.0)}
    assert run_pair(tmp_path, head) == 1
    out = capsys.readouterr().out
    assert "bench-pair: FAIL" in out
    failures = [line for line in out.splitlines() if line.startswith("- ")]
    assert len(failures) == 1
    assert "w2: sim_ue_s_per_s" in failures[0]
    assert "30.0% worse" in failures[0]


def test_slowdown_inside_the_bound_passes(tmp_path):
    assert run_pair(tmp_path, {"w1": result(throughput=900.0)}) == 0


def test_slower_setup_fails(tmp_path, capsys):
    assert run_pair(tmp_path, {"w1": result(setup_s=1.3)}) == 1
    assert "w1: setup_s" in capsys.readouterr().out


def test_more_failed_sessions_fail(tmp_path, capsys):
    assert run_pair(tmp_path, {"w1": result(failed=1)}) == 1
    assert "head failed 3 of 300 sessions" in capsys.readouterr().out


def test_incorrect_head_run_fails(tmp_path, capsys):
    assert run_pair(tmp_path, {"w1": result(correct=False)}) == 1
    assert "head runs not correct" in capsys.readouterr().out


def test_digest_change_is_printed_not_gated(tmp_path, capsys):
    assert run_pair(tmp_path, {"w1": result(digest="moved")}) == 0
    assert "| w1 | digest | d1gest | moved |" in capsys.readouterr().out


def test_differing_benchmark_trees_are_bad_input(tmp_path, capsys):
    base = checkout(tmp_path, "base", {"w1": result()})
    head = checkout(tmp_path, "head", {"w1": result()})
    (tmp_path / "head" / "perfbench" / "extra.py").write_text("# new\n")
    assert main([base, head]) == 2
    assert "extra.py" in capsys.readouterr().err
    assert not (tmp_path / "calls.log").exists()


@pytest.mark.parametrize("broken", ["", "{", '{"command": []}'],
                         ids=["empty", "truncated", "no-keys"])
def test_unusable_benchmark_json_is_bad_input(tmp_path, broken):
    base = checkout(tmp_path, "base", {"w1": result()})
    head = checkout(tmp_path, "head", {"w1": result()})
    (tmp_path / "head" / "BENCHMARK.json").write_text(broken)
    assert main([base, head]) == 2
