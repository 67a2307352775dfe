"""The benchmark's three deployments, each built from its seed.

Every workload is a :class:`Workload` whose master runs with
``realtime=False``: in real-time mode the Task Manager defers apps
that miss the slot budget and the supervisor quarantines chronic
overrunners, so the work a seed defines would depend on host speed.
Whether the master fits its 1 ms TTI is measured, never enforced.

Offered traffic is CBR in simulated time, so the work of a run is a
function of the seed alone.  See ``README.md`` for why each workload
exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.core.protocol.messages import ReportType
from repro.lte.phy.channel import GaussMarkovSinr
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.ue import Ue
from repro.net.clock import Phase
from repro.sim.scenarios import (
    SCALE_CQI_CYCLE,
    centralized_scheduling,
    large_scale,
    sinr_for_cqi,
)
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource

WARMUP_TTIS = 100
"""TTIs run before measuring: the attach storm ends near TTI 41 and the
master's report picture converges near TTI 65 on every workload."""


@dataclass
class Workload:
    """A built deployment plus what the validity gate expects of it."""

    sim: Simulation
    #: Master apps that must run on every sampled TTI.
    every_tti_apps: List[str] = field(default_factory=list)


def _scale(seed: int) -> Workload:
    sc = large_scale(n_enbs=32, ues_per_enb=100, seed=seed)
    return Workload(sc.sim)


FADING_ENBS = 10
FADING_UES_PER_ENB = 100
FADING_SIGMA_DB = 2.0
STATS_PERIOD_TTIS = 5
LOAD_FACTOR = 0.8
RTT_MS = 2.0


def _fading(seed: int) -> Workload:
    """``scale``'s per-cell shape over Gauss-Markov fading channels.

    Built from the public :class:`Simulation` API because
    ``large_scale`` fixes each UE's channel; everything else (CQI mix,
    CBR load and phase spread, staggered periodic stats, RTT) mirrors
    it so the two workloads differ only in how often UE state moves.
    """
    sim = Simulation(with_master=True, realtime_master=False)
    agents = []
    per_ue_mbps = (LOAD_FACTOR * capacity_mbps(SCALE_CQI_CYCLE[1], 50)
                   / FADING_UES_PER_ENB)
    for e in range(FADING_ENBS):
        enb = sim.add_enb(seed=seed + e)
        agents.append(sim.add_agent(enb, rtt_ms=RTT_MS))
        for i in range(FADING_UES_PER_ENB):
            cqi = SCALE_CQI_CYCLE[i % len(SCALE_CQI_CYCLE)]
            channel = GaussMarkovSinr(sinr_for_cqi(cqi),
                                      sigma_db=FADING_SIGMA_DB,
                                      seed=[seed, e, i])
            ue = Ue(f"{e:02d}{i:04d}", channel)
            sim.add_ue(enb, ue)
            phase = (0.618033988749895
                     * (e * FADING_UES_PER_ENB + i + 1)) % 1.0
            sim.add_downlink_traffic(enb, ue, CbrSource(
                per_ue_mbps, start_tti=20, phase=phase))

    def subscribe(tti: int) -> None:
        offset = tti - 2
        if 0 <= offset < STATS_PERIOD_TTIS:
            for agent in agents[offset::STATS_PERIOD_TTIS]:
                sim.master.northbound.request_stats(
                    agent.agent_id, report_type=ReportType.PERIODIC,
                    period_ttis=STATS_PERIOD_TTIS)
    sim.clock.register(Phase.POST, subscribe)
    return Workload(sim)


def _centralized(seed: int) -> Workload:
    sc = centralized_scheduling(n_enbs=4, ues_per_enb=16, cqi=12,
                                seed=seed)
    return Workload(sc.sim, every_tti_apps=[sc.app.name])


BUILDERS: Dict[str, Callable[[int], Workload]] = {
    "scale": _scale,
    "fading": _fading,
    "centralized": _centralized,
}


def build(name: str, seed: int) -> Workload:
    """Build workload *name* from *seed*, with a non-realtime master."""
    workload = BUILDERS[name](seed)
    # The scenario functions default to a realtime master; switch it
    # before the first TTI so no app is ever deferred for host speed.
    workload.sim.master.task_manager.realtime = False
    return workload
