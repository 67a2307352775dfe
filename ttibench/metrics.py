"""Turn worker samples into the named metrics, each with its unit.

The metric names, units and directions are listed in
``BENCHMARK.json``; what each one means, and which layer should move
which end-to-end metric, is in ``README.md``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

Metrics = Dict[str, Tuple[float, str]]

TTI_S = 0.001


def percentile(samples: Sequence[float], q: int) -> float:
    """The *q*-th percentile, interpolated between order statistics."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


REFERENCE_S = 100e-6
"""The reference loop's time on the nominal host.  Median TTI and
master-cycle times, and the TTI rate, are scaled by ``REFERENCE_S``
over the worker's median reference-loop time: they are reported at
nominal host speed.  The p99s and set-up time stay raw host time; they
are dominated by garbage collection, host bursts and allocation, which
do not scale with the loop's speed."""


def end_to_end(samples: List[dict], work_ttis: int) -> Metrics:
    """Untraced metrics over one or more workers' windows."""
    def pooled(key: str, scaled: bool) -> List[float]:
        return [s * 1e3 * (REFERENCE_S / run["reference_s"]
                           if scaled else 1.0)
                for run in samples for s in run[key]]

    tti_ms = pooled("tti_s", True)
    master_ms = pooled("master_s", True)
    work = samples[0]["work"]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in samples), "s"),
        "tti_ms.p50": (percentile(tti_ms, 50), "ms"),
        "tti_ms.p99": (percentile(pooled("tti_s", False), 99), "ms"),
        "sim_tti_per_s": (len(tti_ms) / (sum(tti_ms) / 1e3), "1/s"),
        "master_cycle_ms.p50": (percentile(master_ms, 50), "ms"),
        "master_cycle_ms.p99": (percentile(pooled("master_s", False), 99),
                                "ms"),
        "dl_goodput_mbps": (work["dl_delivered_bytes"] * 8
                            / (work_ttis * TTI_S) / 1e6, "Mbit/s"),
        "ctrl_bytes_per_tti": ((work["ul_bytes"] + work["dl_bytes"])
                               / work_ttis, "B"),
        "ok_ops_share": (ok_share(work), "ratio"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"]
                                          for r in samples) / 1024, "MB"),
    }


def ops(work: Dict[str, int]) -> Tuple[int, int]:
    """(attempted, failed) operations of one work window.

    Attempted: control messages sent plus master app invocations due.
    Failed: messages dropped or not handled, plus app invocations
    deferred, quarantined or crashed.
    """
    failed_apps = (work["apps_deferred"] + work["apps_quarantined"]
                   + work["app_crashes"])
    attempted = work["encode_msgs"] + work["app_runs"] + failed_apps
    failed = work["dropped_msgs"] + work["dispatch_failures"] + failed_apps
    return attempted, failed


def ok_share(work: Dict[str, int]) -> float:
    attempted, failed = ops(work)
    return (attempted - failed) / attempted


def per_layer(traced: dict, work_ttis: int) -> Metrics:
    """Per-TTI layer metrics of the traced run's work window."""
    t = traced["traced"]
    work = traced["work"]
    n = work_ttis

    def ms(*names: str) -> float:
        return sum(t["self_s"].get(name, 0.0) for name in names) * 1e3 / n

    def items(name: str) -> int:
        return t["items"].get(name, 0)

    def size(name: str) -> int:
        return t["size"].get(name, 0)

    def us_per_kb(name: str) -> float:
        kb = size(name) / 1e3
        return t["self_s"].get(name, 0.0) * 1e6 / kb if kb else 0.0

    return {
        "traffic.tick_ms": (ms("traffic.tick"), "ms"),
        "lte.plan_ms": (ms("lte.plan"), "ms"),
        "lte.build_context_ms": (ms("lte.build_context"), "ms"),
        "lte.transmit_ms": (ms("lte.transmit"), "ms"),
        "lte.ue_changes": (work["ue_changes"] / n, "count"),
        "lte.ue_change_share": (t["changed_ue_share"], "ratio"),
        "agent.stats_ms": (ms("agent.stats"), "ms"),
        "agent.tx_self_ms": (ms("agent.tick_tx"), "ms"),
        "agent.rx_self_ms": (ms("agent.tick_rx"), "ms"),
        "agent.ue_reports": (items("agent.stats") / n, "count"),
        "agent.ue_report_share": (
            items("agent.stats") / size("agent.stats")
            if size("agent.stats") else 0.0, "ratio"),
        "protocol.encode_ms": (ms("protocol.encode"), "ms"),
        "protocol.decode_ms": (ms("protocol.decode"), "ms"),
        "protocol.encode_msgs": (items("protocol.encode") / n, "count"),
        "protocol.decode_msgs": (items("protocol.decode") / n, "count"),
        "protocol.encode_bytes": (size("protocol.encode") / n, "B"),
        "protocol.encode_us_per_kb": (us_per_kb("protocol.encode"),
                                      "us/kB"),
        "protocol.decode_us_per_kb": (us_per_kb("protocol.decode"),
                                      "us/kB"),
        "net.ul_bytes": (work["ul_bytes"] / n, "B"),
        "net.dl_bytes": (work["dl_bytes"] / n, "B"),
        "net.send_self_ms": (ms("net.send.ul", "net.send.dl"), "ms"),
        "net.in_flight_max": (t["in_flight_max"], "count"),
        "net.dropped": (work["dropped_msgs"] / n, "count"),
        "controller.rib_apply_ms": (ms("controller.rib_apply"), "ms"),
        "controller.apps_ms": (ms("controller.apps"), "ms"),
        "controller.events_ms": (ms("controller.events"), "ms"),
        "controller.drain_self_ms": (ms("controller.drain_self"), "ms"),
        "controller.rib_msgs": (size("controller.rib_apply") / n, "count"),
        "controller.commands": (work["commands"] / n, "count"),
        "controller.over_budget_share": (
            items("controller.over_budget") / n, "ratio"),
        "trace.overhead": (traced["trace_overhead"], "ratio"),
    }
