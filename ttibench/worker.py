"""One measured process: build a workload, warm it up, sample a window.

Run by ``run.py`` in a fresh interpreter per sample::

    python ttibench/worker.py --workload scale --seed 0 --seconds 10 \\
        --work-ttis 340 --trace 0

The main thread steps the simulation one TTI at a time (a closed
loop: TTI n+1 starts only after TTI n returns) and times each step.
The window runs for at least ``--seconds`` and at least
``--work-ttis`` TTIs; the simulated metrics and the exact work
counters cover exactly the first ``--work-ttis`` TTIs, so they repeat
bit for bit for a seed whatever the host's speed.

Prints one JSON line: timings, work counters, validity violations.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _links(sim):
    for conn in sim.connections.values():
        yield "ul", conn.channel.uplink
        yield "dl", conn.channel.downlink


def work_counters(sim) -> Dict[str, int]:
    """Cumulative program counters that define the work done.

    All are read from program state, so the untraced run has them too.
    """
    master = sim.master
    endpoints = [ep for conn in sim.connections.values()
                 for ep in (conn.agent_side, conn.master_side)]
    stats = master.task_manager.stats
    regs = master.registry.registrations()
    c = {
        "encode_msgs": sum(ep.sent_messages for ep in endpoints),
        "decode_msgs": sum(ep.received_messages for ep in endpoints),
        "ul_bytes": 0, "dl_bytes": 0,
        "encode_bytes": 0, "decode_bytes": 0, "dropped_msgs": 0,
        "ue_changes": sum(enb.change_seq for enb in sim.enbs.values()),
        "rib_msgs": master.updater.counters.messages,
        "stats_replies": master.updater.counters.stats_replies,
        "commands": (master.northbound.counters.dl_commands
                     + master.northbound.counters.ul_commands),
        "dl_delivered_bytes": sum(enb.counters.dl_delivered_bytes
                                  for enb in sim.enbs.values()),
        "app_runs": sum(reg.runs for reg in regs),
        "apps_deferred": stats.deferred_total,
        "apps_quarantined": stats.quarantined_total,
        "app_crashes": (master.supervisor.faults_contained
                        if master.supervisor is not None else 0),
        "dispatch_failures": sum(a.dispatch_unknown + a.dispatch_errors
                                 for a in sim.agents.values())
        + master.updater.counters.unknown,
    }
    for direction, link in _links(sim):
        c[direction + "_bytes"] += link.total_bytes
        c["encode_bytes"] += link.offered_bytes
        c["decode_bytes"] += link.delivered_bytes
        c["dropped_msgs"] += link.dropped_messages
    return c


def app_runs(sim) -> Dict[str, int]:
    return {reg.app.name: reg.runs
            for reg in sim.master.registry.registrations()}


def violations(workload, window_ttis: int, runs_before: Dict[str, int],
               work: Dict[str, int]) -> List[str]:
    """The validity gate: a degraded or inconsistent run is refused."""
    sim = workload.sim
    master = sim.master
    out: List[str] = []
    if master.supervisor is not None:
        quarantined = master.supervisor.quarantined_names()
        if quarantined:
            out.append(f"apps quarantined: {quarantined}")
    for key in ("apps_deferred", "apps_quarantined", "app_crashes",
                "dispatch_failures", "dropped_msgs"):
        if work[key]:
            out.append(f"{key} = {work[key]} inside the window")
    runs_after = app_runs(sim)
    for name in workload.every_tti_apps:
        ran = runs_after.get(name, 0) - runs_before.get(name, 0)
        if ran != window_ttis:
            out.append(f"app {name} ran on {ran} of {window_ttis} TTIs")
    for direction, link in _links(sim):
        accounted = (link.delivered_messages + link.dropped_messages
                     + link.in_flight())
        if link.offered_messages != accounted:
            out.append(f"{link.name} {direction}: offered "
                       f"{link.offered_messages} != delivered + dropped "
                       f"+ in flight {accounted}")
    rib = master.rib
    rib_agents = set(rib.agent_ids())
    for agent_id, agent in sorted(sim.agents.items()):
        if agent_id not in rib_agents or not rib.agent(agent_id).alive:
            out.append(f"agent {agent_id} missing from the RIB")
            continue
        known = {rnti for cell in rib.agent(agent_id).cells.values()
                 for rnti in cell.ues}
        missing = set(agent.enb.rntis()) - known
        if missing:
            out.append(f"agent {agent_id}: {len(missing)} UEs missing "
                       f"from the RIB")
    return out


REFERENCE_ITERS = 1000
_REFERENCE_TABLE = dict.fromkeys(range(64), 0)


def reference_loop() -> int:
    """A fixed pure-Python loop, timed after every TTI to track host
    speed (see README.md, "Steadiness").  It allocates no object the
    garbage collector tracks, so it leaves the program's collection
    schedule alone."""
    table = _REFERENCE_TABLE
    total = 0
    for i in range(REFERENCE_ITERS):
        table[i & 63] += i
        total += i * 3
    return total


OVERHEAD_BLOCK_TTIS = 10
"""After its work window the traced worker alternates blocks of this
many untraced and traced TTIs; comparing them in one process, close in
time, sizes the tracing overhead without host drift between runs."""

MIN_OVERHEAD_TTIS = 100
"""Traced TTIs the overhead estimate rests on at least."""


def measure(name: str, seed: int, seconds: float, work_ttis: int,
            trace: bool) -> Dict[str, object]:
    clock = time.perf_counter
    start = clock()
    workload = workloads.build(name, seed)
    sim = workload.sim
    sim.run(workloads.WARMUP_TTIS)
    setup_s = clock() - start
    # Settle: collect the set-up garbage now rather than inside the
    # window.  The program itself runs unchanged.
    gc.collect()

    master = sim.master
    links = [link for _, link in _links(sim)]
    enbs = list(sim.enbs.values())
    tti_s: List[float] = []
    master_s: List[float] = []
    reference_s: List[float] = []

    def step() -> float:
        master_before = master.processing_time_s
        t0 = clock()
        sim.run(1)
        t1 = clock()
        reference_loop()
        reference_s.append(clock() - t1)
        tti_s.append(t1 - t0)
        master_s.append(master.processing_time_s - master_before)
        return t1 - t0

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, sim)
    runs_before = app_runs(sim)
    base = work_counters(sim)
    deadline = clock() + seconds
    in_flight_max = 0
    changed_ues = 0
    for _ in range(work_ttis):
        if tracer is None:
            step()
            continue
        seqs = [enb.change_seq for enb in enbs]
        step()
        in_flight_max = max(in_flight_max,
                            sum(link.in_flight() for link in links))
        changed_ues += sum(1 for enb, seq in zip(enbs, seqs)
                           for rnti in enb.rntis()
                           if enb.ue_change_seq(rnti) > seq)
    now = work_counters(sim)
    work = {k: now[k] - base[k] for k in now}
    ues = sum(len(enb.rntis()) for enb in enbs)
    result: Dict[str, object] = {"setup_s": setup_s, "work": work}
    if tracer is None:
        while clock() < deadline:
            step()
    else:
        result["traced"] = {
            "self_s": dict(tracer.self_s),
            "items": dict(tracer.items),
            "size": dict(tracer.size),
            "in_flight_max": in_flight_max,
            "changed_ue_share": changed_ues / (ues * work_ttis),
        }
        blocks: Dict[bool, List[float]] = {False: [], True: []}
        traced = True
        while (clock() < deadline
               or len(blocks[True]) < MIN_OVERHEAD_TTIS):
            traced = not traced
            if traced:
                tracing.install(tracer, sim)
            else:
                tracer.uninstall()
            blocks[traced].extend(step()
                                  for _ in range(OVERHEAD_BLOCK_TTIS))
        tracer.uninstall()
        result["trace_overhead"] = (statistics.median(blocks[True])
                                    / statistics.median(blocks[False]) - 1)
    result.update(
        tti_s=tti_s, master_s=master_s,
        reference_s=statistics.median(reference_s),
        violations=violations(workload, len(tti_s), runs_before, work),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work-ttis", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds,
                     args.work_ttis, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
