"""Short smoke run of every workload through the benchmark's command.

Run from the repository root::

    python3 -m pytest -q ttibench

Each workload runs untraced and traced over a short work window; the
test checks that every metric named in ``BENCHMARK.json`` is printed
with its unit, and that the two runs did exactly the same work.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_TTIS = 30

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--work-ttis", str(SMOKE_TTIS)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    work_line = next(line for line in lines if line.startswith("work: "))
    return json.loads(lines[-1]), json.loads(work_line[len("work: "):])


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    plain, plain_work = bench(workload, 0)
    traced, traced_work = bench(workload, 1)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected
    assert plain_work == traced_work
    assert plain_work["encode_msgs"] > 0
    assert plain_work["dl_delivered_bytes"] > 0
