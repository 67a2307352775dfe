"""Observability overhead: the disabled-mode tax and the enabled-mode cost.

The obs subsystem promises that instrumentation left in the TTI loop is
near-free while disabled: every site calls the current backend
unconditionally, and the null backend's instruments are shared no-ops.
A site costs one module-global read, one no-op span record
(``ob.tracer.complete(...)`` with the interval the site already timed)
and one null counter ``inc``.  This benchmark bounds that tax below 5%
of the per-TTI budget by timing the idiom directly and multiplying by
the number of site executions a real run performs, and then reports
what turning everything on (metrics + spans + xid correlation) actually
costs end to end.
"""

from __future__ import annotations

from time import perf_counter

from conftest import print_table, run_once

from repro import obs
from repro.core.protocol.messages import ReportType
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.net.clock import Phase
from repro.sim.simulation import Simulation
from repro.traffic.generators import SaturatingSource

RUN_TTIS = 3000
DISABLED_TAX_BUDGET = 0.05


def build_sim() -> Simulation:
    """The quickstart-shaped workload: agented cell, stats every 10 TTIs."""
    sim = Simulation(with_master=True)
    enb = sim.add_enb()
    agent = sim.add_agent(enb, rtt_ms=2.0)
    ue = Ue("001", FixedCqi(15))
    sim.add_ue(enb, ue)
    sim.add_downlink_traffic(enb, ue, SaturatingSource(start_tti=20))

    def subscribe(tti: int) -> None:
        if tti == 50:
            sim.master.northbound.request_stats(
                agent.agent_id, report_type=ReportType.PERIODIC,
                period_ttis=10)
    sim.clock.register(Phase.POST, subscribe)
    return sim


def timed_run(*, mode: str) -> float:
    """Wall-clock seconds for one RUN_TTIS run in the given obs mode."""
    if mode == "disabled":
        obs.disable()
    elif mode == "metrics":
        obs.enable(trace=False)
    elif mode == "full":
        obs.enable()
    else:
        raise ValueError(mode)
    try:
        sim = build_sim()
        start = perf_counter()
        sim.run(RUN_TTIS)
        return perf_counter() - start
    finally:
        obs.disable()


def site_cost_ns(iterations: int = 200_000) -> float:
    """Nanoseconds per disabled-mode site: fetch the backend, record a
    span interval and bump a counter, all on the null backend."""
    assert not obs.get().enabled, "obs must be disabled here"
    args = {"enb": 1}
    start = perf_counter()
    for tti in range(iterations):
        pass
    empty = perf_counter() - start
    start = perf_counter()
    for tti in range(iterations):
        ob = obs.get()
        ob.tracer.complete("enb", "plan", start, start, tti, args)
        ob.registry.counter("mac.sched.runs").inc()
    sited = perf_counter() - start
    return max(sited - empty, 0.0) / iterations * 1e9


def sites_per_tti() -> float:
    """How many instrumented sites one TTI executes, measured from a
    real run.

    A full-instrumentation run records one trace event per span site
    and four correlator stages per message; sites that record no event
    (bare counters and histograms) are covered by a 3x safety factor.
    """
    ob = obs.enable()
    try:
        build_sim().run(RUN_TTIS)
        events = len(ob.tracer.events) + ob.tracer.dropped_events
        stages = (4 * len(ob.correlator.completed)
                  + ob.correlator.dropped_messages
                  + ob.correlator.in_flight())
        return 3.0 * (events + stages) / RUN_TTIS
    finally:
        obs.disable()


def test_disabled_mode_tax(benchmark):
    """The null-backend tax on a disabled run stays under 5%."""

    def experiment():
        baseline_s = min(timed_run(mode="disabled") for _ in range(3))
        ns_per_site = site_cost_ns()
        sites = sites_per_tti()
        baseline_us_per_tti = baseline_s * 1e6 / RUN_TTIS
        tax_us_per_tti = ns_per_site * sites / 1e3
        tax = tax_us_per_tti / baseline_us_per_tti
        return (baseline_us_per_tti, ns_per_site, sites,
                tax_us_per_tti, tax)

    baseline, ns_per_site, sites, tax_us, tax = run_once(benchmark,
                                                         experiment)
    print_table(
        "Observability disabled-mode tax (budget: < 5% of TTI time)",
        ["us/TTI disabled", "ns/site", "sites/TTI",
         "tax us/TTI", "tax %"],
        [[baseline, ns_per_site, sites, tax_us, tax * 100.0]])
    assert tax < DISABLED_TAX_BUDGET
    assert sites > 0


def test_enabled_mode_cost(benchmark):
    """Report what metrics-only and full tracing cost per TTI."""

    def experiment():
        out = {}
        for mode in ("disabled", "metrics", "full"):
            out[mode] = min(timed_run(mode=mode)
                            for _ in range(2)) * 1e6 / RUN_TTIS
        return out

    out = run_once(benchmark, experiment)
    rows = [[mode, out[mode], out[mode] / out["disabled"]]
            for mode in ("disabled", "metrics", "full")]
    print_table(
        "Observability enabled-mode cost (quickstart workload)",
        ["mode", "us/TTI", "x disabled"], rows)
    # Full tracing is the expensive mode, but still the same order of
    # magnitude as the platform itself -- usable on any benchmark run.
    assert out["full"] < 25 * out["disabled"]
