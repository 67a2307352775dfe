"""Instrument census: what one fixed run records, pinned exactly.

A seeded survivability run with every obs backend on -- centralized
scheduling (remote scheduler, ``DlMacCommand`` dispatch), an app
crash window, a poisoned VSF, a control-link partition long enough to
disconnect the agent, and a controller restart from a checkpoint --
then a census of what the instrumentation recorded: the event count
and args keys of every span ``(component, name)``, the instants, every
counter's value, each gauge's update count and each histogram's
observation count.  None of these depend on wall-clock timing (the
master runs non-realtime), so any change to how the platform is
instrumented must leave the census unchanged: an instrument dropped,
renamed or fired twice shows up here.
"""

from collections import Counter, defaultdict

from repro import obs
from repro.sim.scenarios import FaultSpec, chaos_survivability

RUN_TTIS = 1000

_AGENT = ("agent", "tti")
_SEND = ("direction", "peer", "tti")

SPANS = {
    ("agent", "tick_rx"): (1000, _AGENT),
    ("agent", "tick_tx"): (1000, _AGENT),
    ("agent_dispatch", "ConfigRequest"): (5, _AGENT),
    ("agent_dispatch", "DlMacCommand"): (557, _AGENT),
    ("agent_dispatch", "PolicyReconfiguration"): (2, _AGENT),
    ("agent_dispatch", "StatsRequest"): (1, _AGENT),
    ("agent_dispatch", "SyncConfig"): (1, _AGENT),
    ("agent_dispatch", "VsfUpdate"): (1, _AGENT),
    ("enb", "plan"): (1000, ("enb", "tti")),
    ("enb", "transmit"): (1000, ("enb", "tti")),
    ("master", "tick"): (1000, ("tti",)),
    ("scheduler", "round_robin"): (91, ("cell", "tti")),
    ("task_manager", "apps"): (1000, ("tti",)),
    ("task_manager", "rib_updater"): (1000, ("tti",)),
    ("transport", "send:ConfigReply"): (5, _SEND),
    ("transport", "send:ConfigRequest"): (5, _SEND),
    ("transport", "send:DlMacCommand"): (947, _SEND),
    ("transport", "send:EchoRequest"): (2, _SEND),
    ("transport", "send:EventNotification"): (7, _SEND),
    ("transport", "send:Hello"): (3, _SEND),
    ("transport", "send:PolicyReconfiguration"): (2, _SEND),
    ("transport", "send:StatsReply"): (907, _SEND),
    ("transport", "send:StatsRequest"): (1, _SEND),
    ("transport", "send:SubframeTrigger"): (907, _SEND),
    ("transport", "send:SyncConfig"): (1, _SEND),
    ("transport", "send:VsfUpdate"): (1, _SEND),
}

INSTANTS = {
    ("agent", "disconnected"): 1,
    ("agent", "reconnected"): 1,
}

COUNTERS = {
    "agent.connection.disconnects": 1,
    "agent.connection.keepalives": 2,
    "agent.connection.reconnect_attempts": 1,
    "agent.connection.reconnects": 1,
    "mac.sched.assignments": 91,
    "mac.sched.prb_cache.hits": 2717,
    "mac.sched.prb_cache.misses": 215,
    "mac.sched.runs": 91,
    "master.cycle.apps_quarantined": 499,
    "master.rib.by_type.configreply": 5,
    "master.rib.by_type.eventnotification": 7,
    "master.rib.by_type.hello": 2,
    "master.rib.by_type.statsreply": 608,
    "master.rib.by_type.subframetrigger": 608,
    "master.rib.messages": 1230,
    "net.rx.bytes": 277219,
    "net.rx.messages": 1797,
    "net.tx.bytes": 392529,
    "net.tx.messages": 2788,
    "survive.app.closed": 1,
    "survive.app.crashes": 3,
    "survive.app.crashes.chaos_probe": 3,
    "survive.app.faults": 3,
    "survive.app.faults.chaos_probe": 3,
    "survive.app.quarantines": 1,
    "survive.app.quarantines.chaos_probe": 1,
    "survive.app.readmissions": 1,
    "survive.chaos.actions": 4,
    "survive.checkpoint.taken": 19,
    "survive.restore.performed": 1,
    "survive.restore.resyncs": 1,
    "survive.vsf.faults": 1,
    "survive.vsf.quarantined.mac.dl_scheduling.poisoned": 1,
    "survive.vsf.rollbacks": 1,
}

GAUGE_UPDATES = {
    "master.rib_updater.drained_messages": 1000,
    "survive.app.quarantined_now": 1,
    "survive.checkpoint.last_tti": 19,
}

HISTOGRAM_COUNTS = {
    "agent.tick_us": 2000,
    "enb.plan_us": 1000,
    "enb.transmit_us": 1000,
    "master.cycle.app_ms": 1000,
    "master.cycle.core_ms": 1000,
}


def _census():
    with obs.enabled_scope() as ob:
        sc = chaos_survivability(
            ues_per_enb=3, crash_window=(60, 90), poison_at=120,
            restart_at=850, checkpoint_period_ttis=50, clearance_ttis=100,
            fault=FaultSpec(partitions=((250, 640),)))
        # Non-realtime master (the restart inherits its config): app
        # deferrals and deadlines would otherwise follow the wall clock.
        sc.sim.master._config["realtime"] = False
        sc.sim.master.task_manager.realtime = False
        sc.sim.run(RUN_TTIS)
        spans = defaultdict(lambda: [0, set()])
        instants = Counter()
        for event in ob.tracer.events:
            key = (event["cat"], event["name"])
            if event["ph"] == "X":
                spans[key][0] += 1
                spans[key][1].update(event["args"])
            else:
                instants[key] += 1
        metrics = {kind: {} for kind in ("counter", "gauge", "histogram")}
        for metric in ob.registry:
            metrics[metric.KIND][metric.name] = (
                metric.value if metric.KIND == "counter"
                else metric.updates if metric.KIND == "gauge"
                else metric.count)
        return {
            "spans": {key: (n, tuple(sorted(args)))
                      for key, (n, args) in spans.items()},
            "instants": dict(instants),
            "counters": metrics["counter"],
            "gauges": metrics["gauge"],
            "histograms": metrics["histogram"],
            "dropped_events": ob.tracer.dropped_events,
            "fired": [tti for tti, _ in sc.harness.report().fired],
        }


class TestInstrumentCensus:
    def test_census_is_pinned(self):
        census = _census()
        assert census["fired"] == [60, 90, 120, 850]
        assert census["dropped_events"] == 0
        assert census["spans"] == SPANS
        assert census["instants"] == INSTANTS
        assert census["counters"] == COUNTERS
        assert census["gauges"] == GAUGE_UPDATES
        assert census["histograms"] == HISTOGRAM_COUNTS
