"""The TTI-budget benchmark: one workload, one seed, one JSON result.

Usage, from the repository root::

    python3 ttibench/run.py --workload scale --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
``SAMPLES`` fresh worker processes (see ``worker.py``) each build the
workload, warm it up and sample a share of the window; set-up time is
the median over the processes and the TTI timings are pooled.
``--trace 1`` runs one untraced and one traced worker on the same
seed and reports the per-layer metrics; it fails unless both did
exactly the same work.

The last line of standard output is the result object; the ``work:``
line before it holds the exact work counters of the work window.
Exits 1 when a validity gate or correctness check fails.
See ``README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import end_to_end, ops, per_layer  # noqa: E402

WORKLOADS = ("scale", "fading", "centralized")

SAMPLES = 3
"""Worker processes per untraced run.  Set-up time is their median;
pooling the window over several processes also averages out per-process
luck such as memory layout."""

WORK_TTIS = 340
"""TTIs each worker samples at least, and over which the simulated
metrics and work counters are taken.  Three workers give >= 1000 pooled
TTIs, so at least ten lie beyond the p99."""

RUN_LIMIT_S = 170
"""Workers still running this long after the start are killed and the
run fails: that is a hang, not a slow host."""


def run_worker(workload: str, seed: int, seconds: float, work_ttis: int,
               trace: bool, deadline: float) -> Dict[str, object]:
    env = dict(os.environ)
    # One thread per workload process: no BLAS pool beside the loop.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--work-ttis", str(work_ttis),
           "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker killed: run past {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


WRAPPED_WORK = (
    # (work counter, span, tracer field): what the wrappers counted must
    # equal what the program itself counted.
    ("encode_msgs", "protocol.encode", "items"),
    ("encode_bytes", "protocol.encode", "size"),
    ("decode_msgs", "protocol.decode", "items"),
    ("decode_bytes", "protocol.decode", "size"),
    ("rib_msgs", "controller.rib_apply", "size"),
)


def wrapper_mismatches(traced: Dict[str, object],
                       work: Dict[str, int]) -> List[str]:
    return [f"wrappers counted {traced[field].get(span, 0)} {key}, "
            f"the program {work[key]}"
            for key, span, field in WRAPPED_WORK
            if traced[field].get(span, 0) != work[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-ttis", type=int, default=WORK_TTIS,
                        help="work window per worker (shorten for a "
                             "smoke run)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        untraced = run_worker(args.workload, args.seed, 0.0,
                              args.work_ttis, False, deadline)
        traced = run_worker(args.workload, args.seed, args.seconds / 2,
                            args.work_ttis, True, deadline)
        runs = [untraced, traced]
    else:
        share = args.seconds / SAMPLES
        samples = [run_worker(args.workload, args.seed, share,
                              args.work_ttis, False, deadline)
                   for _ in range(SAMPLES)]
        runs = samples

    problems: List[str] = []
    for i, run in enumerate(runs):
        problems.extend(f"worker {i}: {v}" for v in run["violations"])
    work = runs[0]["work"]
    for i, run in enumerate(runs[1:], start=1):
        if run["work"] != work:
            diff = sorted(k for k in work if run["work"][k] != work[k])
            problems.append(f"worker {i} did different work: {diff}")

    if args.trace:
        problems.extend(wrapper_mismatches(traced["traced"], work))
        metrics = per_layer(traced, args.work_ttis)
    else:
        metrics = end_to_end(samples, args.work_ttis)
    attempted, failed = ops(work)
    for line in problems:
        print("INVALID:", line)
    print("reference loop ms per worker:",
          [round(run["reference_s"] * 1e3, 4) for run in runs])
    print("work:", json.dumps(work, sort_keys=True))
    if args.trace:
        t = traced["traced"]
        print("traced work:", json.dumps({
            "ue_reports": t["items"].get("agent.stats", 0),
            "rib_batches": t["items"].get("controller.rib_apply", 0)}))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
