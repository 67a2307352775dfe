"""Cluster worker process: one shard's agents + eNodeBs over TCP.

``worker_main`` is the spawn target.  It builds a master-less
:class:`~repro.sim.simulation.Simulation` holding the shard's slice of
the scale deployment, dials the master's transport server once per
agent (streaming :class:`~repro.net.tcp.TcpEndpoint`), and then runs
the credit loop: run TTIs up to the latest grant, report progress over
the control pipe, block when out of credit.

The control pipe (``multiprocessing.Pipe``) carries only tiny
scheduler tuples -- grants down, progress up.  All protocol traffic
(reports, stats, commands) travels over the TCP data plane, exactly as
the paper's deployment does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cluster.partition import ShardSpec
from repro.net.tcp import TransportClosed

PROGRESS_CHUNK_TTIS = 8
"""How many TTIs a worker runs between progress reports."""


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs (must stay picklable)."""

    shard: ShardSpec
    host: str
    port: int
    total_ttis: int
    report_chunk: int = PROGRESS_CHUNK_TTIS
    queue_frames: int = 1024


def build_shard_sim(spec: WorkerSpec, hub=None):
    """Assemble the shard's slice of the scale deployment.

    Per eNodeB this is the :func:`~repro.sim.scenarios.large_scale`
    workload -- mixed-CQI UEs under CBR downlink load with the local
    scheduler -- so a sharded run is the same work as the
    single-process scale bench, split across processes.  Returns
    ``(sim, hub, endpoints)``.
    """
    from repro.lte.phy.tbs import capacity_mbps
    from repro.lte.phy.channel import FixedCqi
    from repro.lte.ue import Ue
    from repro.net.link import EmulatedLink
    from repro.net.tcp import TcpEndpoint, TcpHub, connect_endpoint
    from repro.sim.scenarios import SCALE_CQI_CYCLE
    from repro.sim.simulation import Simulation
    from repro.traffic.generators import CbrSource

    shard = spec.shard
    if hub is None:
        hub = TcpHub(name=f"worker{shard.shard_id}-hub").start()
    sim = Simulation(with_master=False)
    per_ue_mbps = (shard.load_factor
                   * capacity_mbps(SCALE_CQI_CYCLE[1], 50)
                   / max(1, shard.ues_per_enb))
    endpoints = []
    for agent_id in shard.agent_ids:
        enb = sim.add_enb(agent_id, seed=shard.seed + agent_id)
        endpoint = TcpEndpoint(
            EmulatedLink(name=f"agent{agent_id}.ul"),
            EmulatedLink(name=f"agent{agent_id}.dl"),
            peer=f"agent{agent_id}", tx_direction="ul",
            rx_direction="dl", streaming=True)
        connect_endpoint(hub, spec.host, spec.port, agent_id=agent_id,
                         endpoint=endpoint,
                         queue_frames=spec.queue_frames)
        sim.add_agent(enb, agent_id=agent_id, endpoint=endpoint)
        endpoints.append(endpoint)
        for i in range(shard.ues_per_enb):
            cqi = SCALE_CQI_CYCLE[i % len(SCALE_CQI_CYCLE)]
            ue = Ue(f"{agent_id:02d}{i:04d}", FixedCqi(cqi))
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(
                enb, ue, CbrSource(per_ue_mbps, start_tti=20))
    return sim, hub, endpoints


class _Control:
    """The worker's view of the control pipe: credit, stop, and the
    frames the master had sent each agent when it last granted."""

    def __init__(self) -> None:
        self.granted = 0
        self.stop = False
        self.dl_frames: Dict[int, int] = {}

    def apply(self, message) -> None:
        if message[0] == "grant":
            self.granted = max(self.granted, int(message[1]))
            self.dl_frames.update(message[2])
        elif message[0] == "stall":
            # Chaos hook: go silent (no progress reports) for the
            # scripted window -- exercises the master-side stall
            # watchdog against a live-but-wedged worker.
            time.sleep(float(message[1]))
        elif message[0] == "stop":
            self.stop = True


def worker_main(spec: WorkerSpec, pipe) -> None:
    """Spawn target: build the shard, then run the credit loop."""
    hub = None
    try:
        sim, hub, endpoints = build_shard_sim(spec)
        pipe.send(("ready", spec.shard.shard_id))
        agents = list(zip(spec.shard.agent_ids, endpoints))
        control = _Control()
        done = 0
        while done < spec.total_ttis and not control.stop:
            while control.granted <= done and not control.stop:
                control.apply(pipe.recv())  # blocks: out of credit
            if control.stop:
                break
            # Run granted TTIs only after the frames sent before the grant.
            for agent_id, endpoint in agents:
                endpoint.wait_parsed(control.dl_frames.get(agent_id, 0))
            step = min(control.granted, spec.total_ttis) - done
            step = min(step, spec.report_chunk)
            started = time.perf_counter()
            sim.run(step)
            elapsed = time.perf_counter() - started
            lost = [agent_id for agent_id, endpoint in agents
                    if not endpoint.connected]
            if lost:
                raise TransportClosed(f"data plane lost for agents {lost}")
            done += step
            while pipe.poll():  # drain grants that arrived meanwhile
                control.apply(pipe.recv())
            pipe.send(("progress", done, elapsed))
        if not control.stop:
            # Report the frames each agent sent, so the master can
            # drain exactly that many before it scores the run.
            pipe.send(("done", done, {
                agent_id: endpoint.frames_dispatched
                for agent_id, endpoint in agents}))
            # Keep the TCP connections open until the master has
            # drained everything in flight and says stop.
            while True:
                message = pipe.recv()
                if message[0] == "stop":
                    break
    except EOFError:
        pass  # master went away; nothing left to coordinate with
    except Exception as exc:  # noqa: BLE001 - report, then exit nonzero
        try:
            pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, BrokenPipeError):
            pass
        raise
    finally:
        if hub is not None:
            hub.stop()


def spawn_worker(ctx, spec: WorkerSpec) -> Tuple[object, object]:
    """Start one worker process; returns ``(process, master_pipe_end)``."""
    parent, child = ctx.Pipe()
    process = ctx.Process(target=worker_main, args=(spec, child),
                          name=f"repro-shard{spec.shard.shard_id}",
                          daemon=True)
    process.start()
    child.close()
    return process, parent
