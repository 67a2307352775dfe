"""The sharded cluster runtime: master process + worker fleet.

:class:`ClusterRuntime` hosts the real :class:`MasterController` plus
the TCP transport server, spawns one worker process per shard
(``multiprocessing`` spawn context -- no inherited state), and runs
the barrier-free credit pump:

* adopt agents as their TCP connections arrive (``connect_agent`` +
  a periodic-stats subscription, the scale-bench workload);
* poll the worker control pipes for progress and extend grants from
  the :class:`~repro.cluster.credits.CreditScheduler`;
* tick the master through every TTI below the fleet low-water mark,
  so its cross-shard RIB view is complete for each TTI it serves;
* on shard failure (or deliberate rebalancing), hand the shard's RIB
  subtrees over checkpoint snapshots to the replacement worker's
  adoption path (:meth:`respawn_shard`).

Everything protocol-level rides the TCP data plane; the pipes carry
only scheduler tuples.

Shard failures are the :class:`~repro.cluster.supervise.ShardSupervisor`'s
business: the pump feeds it every detection signal (pipe EOF, worker
errors) and runs its poll each iteration, so a killed or stalled
worker is respawned -- or, past its budget, quarantined into degraded
mode -- instead of aborting or hanging the fleet.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.cluster.credits import CreditScheduler
from repro.cluster.partition import ShardMap, ShardSpec, plan_shards
from repro.cluster.supervise import (
    FAIL_PIPE_EOF,
    FAIL_WORKER_ERROR,
    ShardSupervisor,
    SupervisionPolicy,
)
from repro.cluster.worker import (
    PROGRESS_CHUNK_TTIS,
    WorkerSpec,
    spawn_worker,
)
from repro.core.controller import MasterController
from repro.core.protocol.messages import ReportType
from repro.core.survive.snapshot import (
    merge_rib_subset,
    snapshot_rib_subset,
)
from repro.net.link import EmulatedLink
from repro.net.tcp import TcpEndpoint, TcpHub, TcpTransportServer

logger = logging.getLogger(__name__)

QUIESCE_TIMEOUT_S = 10.0
"""How long the master waits for frames a finished worker reported
sent before it gives up and raises with the count mismatch."""


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for one sharded run (defaults sized for smoke tests)."""

    workers: int = 2
    n_enbs: int = 8
    ues_per_enb: int = 25
    total_ttis: int = 400
    window: int = 32
    report_chunk: int = PROGRESS_CHUNK_TTIS
    stats_period_ttis: int = 5
    load_factor: float = 0.8
    host: str = "127.0.0.1"
    seed: int = 0
    realtime_master: bool = True
    # Supervision knobs (see repro.cluster.supervise).
    stall_timeout_s: float = 10.0
    respawn_budget: int = 3
    respawn_backoff_s: float = 0.05
    respawn_backoff_cap_s: float = 2.0
    run_deadline_s: float = 120.0


@dataclass
class ClusterReport:
    """What a sharded run produced (JSON-able via ``to_dict``)."""

    workers: int
    n_enbs: int
    ues_per_enb: int
    total_ttis: int
    wall_s: float
    us_per_tti: float
    master_ttis: int
    rib_agents: int
    rib_ues: int
    respawns: int
    max_lead_ttis: int
    agents_accepted: int
    worker_busy_s: List[float] = field(default_factory=list)
    fleet_samples_us: List[float] = field(default_factory=list)
    degraded_shards: List[int] = field(default_factory=list)
    failures: List[dict] = field(default_factory=list)
    respawn_latency_s: List[float] = field(default_factory=list)
    stall_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def degraded(self) -> bool:
        """True when at least one shard was quarantined."""
        return bool(self.degraded_shards)


class _ShardHandle:
    """Master-side bookkeeping for one worker process."""

    def __init__(self, spec: ShardSpec, process, pipe) -> None:
        self.spec = spec
        self.process = process
        self.pipe = pipe
        self.done = False
        self.ready = False
        self.quarantined = False
        self.busy_s = 0.0
        #: Frames each agent sent over TCP, as reported with ``done``.
        self.sent_frames: Dict[int, int] = {}


class ClusterRuntime:
    """Master-side orchestration of a sharded TCP deployment."""

    def __init__(self, config: ClusterConfig, *,
                 master: Optional[MasterController] = None) -> None:
        self.config = config
        self.master = master or MasterController(
            realtime=config.realtime_master)
        self.shard_map = ShardMap(plan_shards(
            config.n_enbs, config.workers,
            ues_per_enb=config.ues_per_enb,
            load_factor=config.load_factor, seed=config.seed))
        self.credits = CreditScheduler(
            config.total_ttis, config.window,
            [s.shard_id for s in self.shard_map.shards])
        self.hub = TcpHub(name="cluster-hub")
        self.server: Optional[TcpTransportServer] = None
        self.master_tti = 0
        self.respawns = 0
        self.max_lead_ttis = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._handles: Dict[int, _ShardHandle] = {}
        self._pending_lock = threading.Lock()
        self._pending_agents: List[Tuple[int, TcpEndpoint]] = []
        self._subscribed: set = set()
        self._fleet_samples_us: List[float] = []
        self._low_water_mark = 0
        self._low_water_stamp: Optional[float] = None
        self._scheduled_respawns: List[Tuple[int, int]] = []
        self.supervisor = ShardSupervisor(self, SupervisionPolicy(
            stall_timeout_s=config.stall_timeout_s,
            respawn_budget=config.respawn_budget,
            backoff_base_s=config.respawn_backoff_s,
            backoff_cap_s=config.respawn_backoff_cap_s,
            run_deadline_s=config.run_deadline_s))
        self._chaos = None

    def attach_chaos(self, harness) -> None:
        """Ride a :class:`~repro.sim.chaos.ClusterChaosHarness` on the
        pump: its due actions fire once per pump iteration, keyed on
        the fleet low-water mark (same basis as scheduled respawns)."""
        self._chaos = harness

    # -- transport-side callbacks (hub loop thread) ------------------------

    def _endpoint_factory(self, agent_id: int) -> TcpEndpoint:
        return TcpEndpoint(
            EmulatedLink(name=f"master->agent{agent_id}"),
            EmulatedLink(name=f"agent{agent_id}->master"),
            peer=f"agent{agent_id}", tx_direction="dl",
            rx_direction="ul", streaming=True)

    def _on_agent(self, agent_id: int, endpoint: TcpEndpoint) -> None:
        with self._pending_lock:
            self._pending_agents.append((agent_id, endpoint))

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ClusterRuntime":
        """Bind the transport server and spawn the worker fleet."""
        self.hub.start()
        self.server = TcpTransportServer(
            self.hub, host=self.config.host,
            endpoint_factory=self._endpoint_factory,
            on_agent=self._on_agent)
        host, port = self.server.start()
        for spec in self.shard_map.shards:
            self._spawn(spec, host, port)
        return self

    def _spawn(self, spec: ShardSpec, host: str, port: int) -> None:
        worker_spec = WorkerSpec(
            shard=spec, host=host, port=port,
            total_ttis=self.config.total_ttis,
            report_chunk=self.config.report_chunk)
        process, pipe = spawn_worker(self._ctx, worker_spec)
        self._handles[spec.shard_id] = _ShardHandle(spec, process, pipe)
        self.supervisor.note_activity(spec.shard_id)

    def close(self) -> None:
        for handle in self._handles.values():
            try:
                handle.pipe.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for handle in self._handles.values():
            handle.process.join(5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(5.0)
            handle.pipe.close()
        if self.server is not None:
            self.server.stop()
        self.hub.stop()

    def __enter__(self) -> "ClusterRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the pump ----------------------------------------------------------

    def run(self) -> ClusterReport:
        """Drive the fleet to completion; returns the run report.

        The timed window starts once every worker has built its shard
        and all agents are adopted, so ``us_per_tti`` measures
        steady-state fleet throughput, not process-spawn cost.
        """
        config = self.config
        self._wait_fleet_ready()
        self.supervisor.start_run()
        started = time.perf_counter()
        self._low_water_stamp = started
        for shard_id, grant in self.credits.grants():
            self._send_grant(shard_id, grant)
        while True:
            worked = self._adopt_pending()
            worked |= self._poll_workers()
            worked |= self.supervisor.poll()
            self._fire_scheduled_respawns()
            if self._chaos is not None:
                self._chaos.on_pump(self)
            for shard_id, grant in self.credits.grants():
                self._send_grant(shard_id, grant)
            target = self.credits.low_water()
            while self.master_tti < target:
                self.master.tick(self.master_tti)
                self.master_tti += 1
                worked = True
            if (self.credits.all_done()
                    and all(h.done for h in self._handles.values())):
                break
            if not worked:
                time.sleep(0.0002)
        self._quiesce()
        wall_s = time.perf_counter() - started
        return ClusterReport(
            workers=config.workers, n_enbs=config.n_enbs,
            ues_per_enb=config.ues_per_enb,
            total_ttis=config.total_ttis, wall_s=wall_s,
            us_per_tti=wall_s * 1e6 / config.total_ttis,
            master_ttis=self.master_tti,
            rib_agents=len(self.master.rib.agent_ids()),
            rib_ues=self.master.rib.ue_count(),
            respawns=self.respawns, max_lead_ttis=self.max_lead_ttis,
            agents_accepted=(self.server.agents_accepted
                             if self.server else 0),
            worker_busy_s=[self._handles[s].busy_s
                           for s in sorted(self._handles)],
            fleet_samples_us=list(self._fleet_samples_us),
            degraded_shards=sorted(self.supervisor.quarantined),
            failures=[f.to_dict() for f in self.supervisor.failures],
            respawn_latency_s=list(self.supervisor.respawn_latency_s),
            stall_seconds=round(self.supervisor.stall_seconds, 3))

    def _quiesce(self) -> None:
        """Wait for every frame the finished workers reported sent,
        then tick once: each was sent at a TTI below the master's
        clock, so that tick applies them all before the RIB is scored.
        """
        deadline = time.monotonic() + QUIESCE_TIMEOUT_S
        owed = {agent_id: sent
                for handle in self._handles.values()
                if handle.done and not handle.quarantined
                for agent_id, sent in handle.sent_frames.items()}
        while True:
            self._adopt_pending()
            endpoints = self.master.agent_endpoints()
            missing = sorted(set(owed) - set(endpoints))
            if not missing:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"cluster quiesce: agents {missing} never connected")
            time.sleep(0.001)
        for agent_id, sent in sorted(owed.items()):
            endpoints[agent_id].wait_parsed(
                sent, timeout=deadline - time.monotonic())
        self.master.tick(self.master_tti)
        self.master_tti += 1
        short = [f"agent {agent_id}: {endpoints[agent_id].received_messages}"
                 f"/{sent}" for agent_id, sent in sorted(owed.items())
                 if endpoints[agent_id].received_messages < sent]
        if short:
            raise RuntimeError(
                f"cluster quiesce: frames parsed but not applied: {short}")

    def _wait_fleet_ready(self, *, timeout: float = 120.0) -> None:
        """Block until every worker is built and every agent adopted."""
        deadline = time.monotonic() + timeout
        while True:
            self._poll_workers()
            self._adopt_pending()
            # Liveness only (the stall watchdog and run deadline arm at
            # start_run): a worker that dies while building its shard
            # is respawned here instead of burning the whole timeout.
            self.supervisor.poll()
            live = [h for h in self._handles.values()
                    if not h.quarantined]
            total_agents = sum(len(h.spec.agent_ids) for h in live)
            if (all(h.ready for h in live)
                    and len(self.master.agent_endpoints())
                    >= total_agents):
                return
            if time.monotonic() > deadline:
                missing = [s for s, h in self._handles.items()
                           if not h.ready]
                raise RuntimeError(
                    f"cluster startup timed out; shards not ready: "
                    f"{missing}, agents connected: "
                    f"{len(self.master.agent_endpoints())}/{total_agents}")
            time.sleep(0.001)

    def _send_grant(self, shard_id: int, grant: int) -> None:
        handle = self._handles[shard_id]
        if handle.quarantined:
            return
        # The grant carries the frames the master has sent each of the
        # shard's agents so far: the worker runs the granted TTIs only
        # after those frames arrived, so a command or subscription
        # always lands before the agent's clock runs past it.
        endpoints = self.master.agent_endpoints()
        sent = {agent_id: endpoints[agent_id].frames_dispatched
                for agent_id in handle.spec.agent_ids
                if agent_id in endpoints}
        try:
            handle.pipe.send(("grant", grant, sent))
        except (OSError, BrokenPipeError):
            # A broken grant pipe is a failure signal, not log noise:
            # feed the supervisor so the shard is healed or quarantined.
            self.supervisor.note_failure(
                shard_id, FAIL_PIPE_EOF,
                f"grant pipe broken (grant={grant})")

    def _adopt_pending(self) -> bool:
        """Connect agents whose TCP sessions arrived since last tick."""
        with self._pending_lock:
            pending, self._pending_agents = self._pending_agents, []
        for agent_id, endpoint in pending:
            owner = self.shard_map.owner(agent_id)
            if self._handles[owner.shard_id].quarantined:
                # A quarantined shard's straggler connection (e.g. its
                # worker died between dialing and the quarantine
                # decision) must not re-enter the census.
                endpoint.close()
                continue
            if agent_id in self.master.agent_endpoints():
                # A respawned shard's agent reconnecting: swap the
                # dead socket's endpoint for the live one.
                self.master.disconnect_agent(agent_id)
            self.master.connect_agent(agent_id, endpoint)
            # The scale workload: subscribe each agent to periodic
            # full stats as soon as it is adopted (idempotent per
            # connection; a reconnect re-subscribes the fresh agent).
            self.master.northbound.request_stats(
                agent_id, report_type=ReportType.PERIODIC,
                period_ttis=self.config.stats_period_ttis)
            self._subscribed.add(agent_id)
        return bool(pending)

    def _poll_workers(self) -> bool:
        worked = False
        for shard_id, handle in list(self._handles.items()):
            if handle.quarantined:
                continue
            while True:
                try:
                    if not handle.pipe.poll():
                        break
                    message = handle.pipe.recv()
                except (EOFError, OSError, BrokenPipeError):
                    # A vanished worker (SIGKILL sends no error message)
                    # must NOT mark the shard done: its credits would
                    # never complete and the pump would spin forever.
                    # Classify the EOF and let the supervisor heal it.
                    self.supervisor.note_failure(
                        shard_id, FAIL_PIPE_EOF,
                        "control pipe EOF (worker vanished)")
                    break
                worked = True
                kind = message[0]
                if kind == "ready":
                    handle.ready = True
                    self.supervisor.note_activity(shard_id)
                elif kind == "progress":
                    self.credits.report(shard_id, int(message[1]))
                    handle.busy_s += float(message[2])
                    self.supervisor.note_activity(shard_id)
                    self._note_low_water()
                elif kind == "done":
                    self.credits.report(shard_id, int(message[1]))
                    handle.sent_frames = dict(message[2])
                    handle.done = True
                    self.supervisor.note_activity(shard_id)
                    self._note_low_water()
                elif kind == "error":
                    self.supervisor.note_failure(
                        shard_id, FAIL_WORKER_ERROR, str(message[1]))
                    break
        return worked

    def _note_low_water(self) -> None:
        """Sample fleet throughput each time the low-water advances."""
        self.max_lead_ttis = max(self.max_lead_ttis,
                                 self.credits.max_lead())
        low = self.credits.low_water()
        if low <= self._low_water_mark:
            return
        now = time.perf_counter()
        if self._low_water_stamp is not None:
            delta_ttis = low - self._low_water_mark
            delta_s = now - self._low_water_stamp
            self._fleet_samples_us.append(delta_s * 1e6 / delta_ttis)
        self._low_water_mark = low
        self._low_water_stamp = now

    def schedule_respawn(self, at_low_water_tti: int,
                         shard_id: int) -> None:
        """Chaos hook: respawn *shard_id* once the fleet low-water mark
        reaches *at_low_water_tti*.  Fires on the pump thread, so it is
        safe against the master's single-writer discipline."""
        self._scheduled_respawns.append((at_low_water_tti, shard_id))

    def _fire_scheduled_respawns(self) -> None:
        if not self._scheduled_respawns:
            return
        low = self.credits.low_water()
        due = [(t, s) for t, s in self._scheduled_respawns if low >= t]
        self._scheduled_respawns = [
            (t, s) for t, s in self._scheduled_respawns if low < t]
        for _, shard_id in due:
            self.respawn_shard(shard_id)

    # -- shard handoff -----------------------------------------------------

    def respawn_shard(self, shard_id: int) -> List[int]:
        """Kill one worker and hand its state to a replacement.

        The handoff reuses the checkpoint primitives end to end: the
        shard's RIB subtrees are snapshotted
        (:func:`snapshot_rib_subset`), the worker process is
        terminated, and the subtrees are merged back
        (:func:`merge_rib_subset`) so the master keeps serving a warm
        view of the shard while the replacement worker reconnects and
        the normal Hello -> config-request resync path refreshes it.
        The replacement restarts its TTI range from zero; the credit
        scheduler resets only this shard, so the rest of the fleet
        keeps running through its existing grants (barrier-free).

        Returns the agent ids handed over.
        """
        if self.server is None:
            # Not an assert: those vanish under ``python -O`` and this
            # is a real runtime precondition, not a debugging aid.
            raise RuntimeError(
                "cluster transport server is not running; start() the "
                "runtime before respawning shards")
        handle = self._handles[shard_id]
        if handle.quarantined:
            raise RuntimeError(
                f"shard {shard_id} is quarantined; it cannot respawn")
        spec = handle.spec
        subset = snapshot_rib_subset(self.master.rib, spec.agent_ids)
        handle.process.terminate()
        handle.process.join(5.0)
        handle.pipe.close()
        for agent_id in spec.agent_ids:
            self.master.disconnect_agent(agent_id)
            self.master.rib.remove_agent(agent_id)
        merged = merge_rib_subset(self.master.rib, subset)
        self.credits.reset_shard(shard_id)
        self._spawn(spec, self.server.host, self.server.port)
        for sid, grant in self.credits.grants():
            if sid == shard_id:
                self._send_grant(sid, grant)
        self.respawns += 1
        _obs.get().registry.counter("cluster.respawns").inc()
        logger.warning("cluster: respawned shard %d (agents %s)",
                       shard_id, list(spec.agent_ids))
        return merged

    def quarantine_shard(self, shard_id: int) -> List[int]:
        """Degraded mode: give up on one shard so the rest can finish.

        The worker process is reaped, the shard leaves the credit
        scheduler (the low-water mark -- and with it every grant and
        the master's tick target -- is computed over the survivors),
        and its agents are disconnected and dropped from the RIB so the
        post-run census reflects exactly the fleet that completed.
        Idempotent.  Returns the agent ids removed.
        """
        handle = self._handles[shard_id]
        if handle.quarantined:
            return []
        handle.quarantined = True
        handle.done = True
        try:
            handle.process.terminate()
            handle.process.join(5.0)
        except (OSError, ValueError):
            pass  # already dead or reaped
        try:
            handle.pipe.close()
        except OSError:
            pass
        removed: List[int] = []
        connected = self.master.agent_endpoints()
        for agent_id in handle.spec.agent_ids:
            if agent_id in connected:
                self.master.disconnect_agent(agent_id)
            self.master.rib.remove_agent(agent_id)
            removed.append(agent_id)
        self.credits.remove_shard(shard_id)
        logger.error(
            "cluster: shard %d quarantined; fleet degraded to shards "
            "%s (agents %s dropped)", shard_id,
            self.credits.shard_ids(), removed)
        return removed


def run_cluster(config: ClusterConfig) -> ClusterReport:
    """Convenience wrapper: start, run, close, return the report."""
    with ClusterRuntime(config).start() as runtime:
        return runtime.run()
