#!/usr/bin/env python3
"""Fast self-test of the harness: each workload the harness knows, at the
tiny size, untraced and traced, must print a last line that follows the
result contract and carries every metric BENCHMARK.json names, with its unit.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

The tiny size trains too little for the statistical gate, so a tiny run may
report correct=false; the test only requires the exit code to agree with it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def run_tiny(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    return done


def check_result(workload: str, trace: int) -> None:
    done = run_tiny(workload, trace)
    lines = done.stdout.strip().splitlines()
    assert lines, f"{workload}: no output; stderr:\n{done.stderr}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert (done.returncode == 0) == result["correct"], (done.returncode, result["correct"])
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in expected}
    assert set(got) == names, sorted(set(got) ^ names)
    for m in expected:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (m["name"], value["unit"], m["unit"])
        assert isinstance(value["value"], (int, float)), (m["name"], value)
    if not trace:
        assert all(got[m["name"]]["value"] != 0 for m in expected if m["name"] != "ok_ratio")


def test_workloads_untraced():
    for name in WORKLOADS:
        check_result(name, 0)


def test_workloads_traced():
    for name in WORKLOADS:
        check_result(name, 1)


def test_refuses_without_source():
    bare = os.path.join(ROOT, ".perfbench_work", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, os.path.join(bare, "perfbench", "run.py"),
                           "--workload", BENCHMARK["workloads"][0]["name"], "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)


if __name__ == "__main__":
    for test in (test_refuses_without_source, test_workloads_untraced, test_workloads_traced):
        test()
        print(f"{test.__name__}: ok")
