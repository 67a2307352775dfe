"""Chaos harness: scripted fault schedules plus per-TTI invariants.

The survivability layer (:mod:`repro.core.survive`) claims that a
crashing application, a poisoned VSF push or a controller restart
never takes the platform down.  This module makes those claims
testable: a :class:`ChaosHarness` rides the simulation's POST phase,
fires a scripted schedule of fault actions, and asserts a set of
platform invariants every single TTI:

* ``cycle_ran`` -- the master's Task Manager completed a cycle this
  TTI (a fault never stalls the control loop).
* ``cell_decision`` -- every cell of every eNodeB received a scheduler
  decision this TTI (the data plane never idles on control faults).
* ``no_quarantined_run`` -- an application whose breaker is open was
  not executed.
* ``rib_convergence`` -- once every scripted fault has cleared (plus a
  grace period), the master's RIB matches eNodeB ground truth.

Fault actions compose freely with the link faults of
:class:`~repro.sim.scenarios.FaultSpec` (losses, jitter, partitions
installed on the control connections before the run).

The harness also scales out: the **cluster chaos** section at the
bottom scripts process-level faults against a sharded
:class:`~repro.cluster.runtime.ClusterRuntime` fleet --
:class:`WorkerKillAt` (SIGKILL, no error message on any pipe),
:class:`WorkerStallWindow` (a live-but-silent worker) and
:class:`TcpDisconnectAt` (the data plane drops under a healthy
process) -- and checks fleet-level invariants after the run: the fleet
completes, the respawn count stays within budget, and the post-run RIB
census matches the shard map minus quarantined shards.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs as _obs
from repro.core.apps.base import App
from repro.core.delegation import VsfFactoryRegistry
from repro.core.survive.snapshot import rib_ground_truth_diff
from repro.net.clock import Phase

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation


class ChaosError(RuntimeError):
    """The scripted fault raised by a chaos-crashed application."""


class PoisonedScheduler:
    """A VSF that fails on every invocation (the poisoned push)."""

    def __init__(self, message: str = "chaos: poisoned VSF") -> None:
        self.message = message
        self.invocations = 0

    def __call__(self, ctx):
        self.invocations += 1
        raise ChaosError(self.message)


def register_chaos_factories(registry: VsfFactoryRegistry) -> None:
    """Trust the chaos factories on an agent (test deployments only)."""
    registry.register("chaos:poisoned", PoisonedScheduler)


class ProbeApp(App):
    """A controllable high-priority application for fault injection.

    Healthy by default; the window actions flip ``chaos_crash`` /
    ``chaos_overrun_ms`` to script misbehavior.  Runs above the
    centralized scheduler so a crash-looping probe exercises the
    no-starvation property of the supervised app slot.
    """

    name = "chaos_probe"
    priority = 120
    period_ttis = 1

    def __init__(self, name: str = "chaos_probe",
                 priority: int = 120) -> None:
        self.name = name
        self.priority = priority
        self.chaos_crash = False
        self.chaos_overrun_ms = 0.0
        self.runs_completed = 0

    def run(self, tti: int, nb) -> None:
        if self.chaos_crash:
            raise ChaosError(f"scripted crash at tti {tti}")
        if self.chaos_overrun_ms > 0:
            time.sleep(self.chaos_overrun_ms / 1000.0)
        self.runs_completed += 1


# -- fault actions ----------------------------------------------------------


class ChaosAction(abc.ABC):
    """One entry of a scripted fault schedule."""

    @abc.abstractmethod
    def fire(self, sim: "Simulation", tti: int) -> Optional[str]:
        """Run the action's step for *tti*; a description when it fired."""

    @abc.abstractmethod
    def end_tti(self) -> int:
        """Last TTI at which this action injects a fault."""


def _find_app(sim: "Simulation", name: str):
    assert sim.master is not None
    return sim.master.registry.registration(name).app


@dataclass
class AppCrashWindow(ChaosAction):
    """Make *app* raise on every run during ``[start, end)``."""

    app: str
    start: int
    end: int

    def fire(self, sim: "Simulation", tti: int) -> Optional[str]:
        if tti == self.start:
            _find_app(sim, self.app).chaos_crash = True
            return f"app {self.app} starts crashing"
        if tti == self.end:
            _find_app(sim, self.app).chaos_crash = False
            return f"app {self.app} stops crashing"
        return None

    def end_tti(self) -> int:
        return self.end


@dataclass
class AppOverrunWindow(ChaosAction):
    """Make *app* burn ``busy_ms`` per run during ``[start, end)``."""

    app: str
    start: int
    end: int
    busy_ms: float = 2.0

    def fire(self, sim: "Simulation", tti: int) -> Optional[str]:
        if tti == self.start:
            _find_app(sim, self.app).chaos_overrun_ms = self.busy_ms
            return f"app {self.app} starts overrunning ({self.busy_ms} ms)"
        if tti == self.end:
            _find_app(sim, self.app).chaos_overrun_ms = 0.0
            return f"app {self.app} stops overrunning"
        return None

    def end_tti(self) -> int:
        return self.end


@dataclass
class VsfPoisonAt(ChaosAction):
    """Push and activate a poisoned VSF on one agent at *tti*.

    The agent must trust the ``chaos:poisoned`` factory (see
    :func:`register_chaos_factories`); the first invocation then
    faults and the CMI sandbox rolls the slot back to its last-known
    good implementation.
    """

    tti: int
    agent_id: int
    module: str = "mac"
    operation: str = "dl_scheduling"
    name: str = "poisoned"

    def fire(self, sim: "Simulation", tti: int) -> Optional[str]:
        if tti != self.tti:
            return None
        nb = sim.master.northbound
        nb.push_vsf(self.agent_id, self.module, self.operation,
                    self.name, "chaos:poisoned")
        nb.reconfigure_vsf(self.agent_id, self.module, self.operation,
                           behavior=self.name)
        return (f"poisoned VSF {self.name!r} pushed to agent "
                f"{self.agent_id} ({self.module}.{self.operation})")

    def end_tti(self) -> int:
        return self.tti


@dataclass
class ControllerRestartAt(ChaosAction):
    """Crash and cold-restart the master controller at *tti*."""

    tti: int
    restore: bool = True

    def fire(self, sim: "Simulation", tti: int) -> Optional[str]:
        if tti != self.tti:
            return None
        sim.restart_master(restore=self.restore)
        return ("controller restarted "
                + ("from checkpoint" if self.restore else "cold"))

    def end_tti(self) -> int:
        return self.tti


# -- invariants -------------------------------------------------------------


@dataclass
class Violation:
    """One invariant breach observed by the harness."""

    tti: int
    invariant: str
    detail: str


@dataclass
class ChaosReport:
    """Outcome of a chaos run."""

    ttis: int
    violations: List[Violation]
    fired: List[Tuple[int, str]]
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


class ChaosHarness:
    """Fires a fault schedule and checks invariants every TTI.

    Registers on the clock's POST phase: invariants are checked first
    (against the TTI that just executed), then due actions fire (their
    faults take effect from the next TTI's phases on).
    """

    def __init__(self, sim: "Simulation",
                 actions: Sequence[ChaosAction] = (), *,
                 clearance_ttis: int = 1000) -> None:
        if sim.master is None:
            raise ValueError("chaos harness requires a master controller")
        self.sim = sim
        self.actions = list(actions)
        self.clearance_ttis = clearance_ttis
        self.violations: List[Violation] = []
        self.fired: List[Tuple[int, str]] = []
        self.checks = 0
        #: First TTI at which the RIB-convergence invariant applies.
        self.quiesce_at = (max((a.end_tti() for a in self.actions),
                               default=0) + clearance_ttis)
        self._master_seen = sim.master
        self._prev_quarantined: Set[str] = set()
        self._prev_runs: Dict[str, int] = {}
        sim.clock.register(Phase.POST, self._on_post)

    # -- lifecycle --------------------------------------------------------

    def detach(self) -> None:
        self.sim.clock.unregister(Phase.POST, self._on_post)

    def report(self) -> ChaosReport:
        return ChaosReport(ttis=self.sim.clock.now,
                           violations=list(self.violations),
                           fired=list(self.fired), checks=self.checks)

    def _on_post(self, tti: int) -> None:
        self._check_invariants(tti)
        for action in self.actions:
            desc = action.fire(self.sim, tti)
            if desc:
                self.fired.append((tti, desc))
                _obs.get().registry.counter("survive.chaos.actions").inc()
        self._refresh_baselines()

    # -- the checkers -----------------------------------------------------

    def _violate(self, tti: int, invariant: str, detail: str) -> None:
        self.violations.append(Violation(tti, invariant, detail))
        registry = _obs.get().registry
        registry.counter("survive.chaos.violations").inc()
        registry.counter("survive.chaos.violations." + invariant).inc()

    def _check_invariants(self, tti: int) -> None:
        self.checks += 1
        master = self.sim.master
        if master is not self._master_seen:
            # A restart happened last TTI: registry and supervisor are
            # fresh objects, so the run-count baselines reset below.
            self._master_seen = master
            self._prev_quarantined = set()
            self._prev_runs = {}

        # 1. The control loop never stalls.
        record = master.task_manager.last_record
        if record is None or record.tti != tti:
            self._violate(tti, "cycle_ran",
                          f"task manager did not complete a cycle "
                          f"(last: {record.tti if record else None})")

        # 2. Every cell got a scheduling decision this TTI.
        for enb_id in sorted(self.sim.enbs):
            enb = self.sim.enbs[enb_id]
            planned = set(enb.planned_cell_ids(tti))
            missing = set(enb.cells) - planned
            if missing:
                self._violate(tti, "cell_decision",
                              f"enb {enb_id} cells {sorted(missing)} got "
                              f"no allocation decision")

        # 3. A quarantined app never runs.
        sup = master.supervisor
        if sup is not None:
            quarantined = set(sup.quarantined_names())
            for name in quarantined & self._prev_quarantined:
                try:
                    runs = master.registry.registration(name).runs
                except KeyError:
                    continue
                if runs > self._prev_runs.get(name, runs):
                    self._violate(tti, "no_quarantined_run",
                                  f"quarantined app {name} executed")

        # 4. RIB converges to ground truth after faults clear.
        if tti >= self.quiesce_at:
            truth = {agent_id: self.sim.agents[agent_id].enb
                     for agent_id in self.sim.agents}
            diffs = rib_ground_truth_diff(master.rib, truth)
            if diffs:
                self._violate(tti, "rib_convergence", "; ".join(diffs))

    def _refresh_baselines(self) -> None:
        master = self.sim.master
        sup = master.supervisor
        self._prev_quarantined = (set(sup.quarantined_names())
                                  if sup is not None else set())
        self._prev_runs = {
            reg.app.name: reg.runs
            for reg in master.registry.registrations()}


# ---------------------------------------------------------------------------
# Cluster chaos: process-level faults against a sharded worker fleet
# ---------------------------------------------------------------------------


class ClusterChaosAction(abc.ABC):
    """One scripted fault against a :class:`ClusterRuntime` fleet.

    ``fire`` runs on the master's pump thread once per pump iteration
    with the current fleet low-water TTI (the same scheduling basis as
    ``ClusterRuntime.schedule_respawn``); it returns a description the
    first time it actually fires, then never again.
    """

    @abc.abstractmethod
    def fire(self, runtime, low_water: int) -> Optional[str]:
        """Fire if due; a description when the fault was injected."""


@dataclass
class WorkerKillAt(ClusterChaosAction):
    """SIGKILL one shard's worker at a fleet low-water TTI.

    SIGKILL is the silent death: the worker gets no chance to send an
    ``error`` tuple, so the master sees only a dead process and a pipe
    EOF -- exactly the failure mode that used to deadlock the pump.
    """

    at_low_water_tti: int
    shard_id: int
    fired: bool = field(default=False, repr=False)

    def fire(self, runtime, low_water: int) -> Optional[str]:
        if self.fired or low_water < self.at_low_water_tti:
            return None
        self.fired = True
        runtime._handles[self.shard_id].process.kill()
        return (f"SIGKILLed shard {self.shard_id} worker at "
                f"low-water {low_water}")


@dataclass
class WorkerStallWindow(ClusterChaosAction):
    """Wedge one worker -- alive but silent -- for ``stall_s`` seconds.

    Sent over the control pipe; the worker sleeps without reporting
    progress, which is indistinguishable (from the master's side) from
    a worker stuck in an infinite loop.  The supervisor's low-water
    stall watchdog must detect it and respawn the shard.
    """

    at_low_water_tti: int
    shard_id: int
    stall_s: float = 5.0
    fired: bool = field(default=False, repr=False)

    def fire(self, runtime, low_water: int) -> Optional[str]:
        if self.fired or low_water < self.at_low_water_tti:
            return None
        self.fired = True
        handle = runtime._handles[self.shard_id]
        try:
            handle.pipe.send(("stall", self.stall_s))
        except (OSError, BrokenPipeError):
            return (f"stall for shard {self.shard_id} undeliverable "
                    f"(pipe already gone)")
        return (f"stalled shard {self.shard_id} worker for "
                f"{self.stall_s:.1f}s at low-water {low_water}")


@dataclass
class TcpDisconnectAt(ClusterChaosAction):
    """Drop one shard's TCP data plane while its process stays alive.

    Closes the master-side sockets of every agent in the shard; the
    worker sees its connections closed after its next run of TTIs and
    raises ``TransportClosed``, which surfaces as a worker-reported
    ``error`` on the control pipe.
    """

    at_low_water_tti: int
    shard_id: int
    fired: bool = field(default=False, repr=False)

    def fire(self, runtime, low_water: int) -> Optional[str]:
        if self.fired or low_water < self.at_low_water_tti:
            return None
        self.fired = True
        spec = runtime._handles[self.shard_id].spec
        endpoints = runtime.master.agent_endpoints()
        closed = []
        for agent_id in spec.agent_ids:
            endpoint = endpoints.get(agent_id)
            if endpoint is not None:
                endpoint.close()
                closed.append(agent_id)
        return (f"dropped TCP sessions of shard {self.shard_id} "
                f"agents {closed} at low-water {low_water}")


@dataclass
class ClusterChaosReport:
    """Outcome of a cluster chaos run (JSON-able via ``to_dict``)."""

    violations: List[Violation]
    fired: List[Tuple[int, str]]
    respawns: int
    degraded_shards: List[int]
    failures: List[dict]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [{"tti": v.tti, "invariant": v.invariant,
                            "detail": v.detail}
                           for v in self.violations],
            "fired": [{"low_water_tti": tti, "action": desc}
                      for tti, desc in self.fired],
            "respawns": self.respawns,
            "degraded_shards": list(self.degraded_shards),
            "failures": list(self.failures),
        }


class ClusterChaosHarness:
    """Scripted process-level faults + fleet invariants for a
    :class:`~repro.cluster.runtime.ClusterRuntime`.

    Attach with ``runtime.attach_chaos(harness)`` before ``run()``;
    call :meth:`check` with the finished run's report.  Invariants:

    * ``fleet_completes`` -- every non-quarantined shard finished all
      its TTIs and the master ticked through the whole run (no hang,
      no fleet-wide abort);
    * ``respawns_bounded`` -- the total respawn count never exceeds
      the fleet-wide budget (``max_respawns`` overrides the default
      ``shards x per-shard budget`` bound);
    * ``census`` -- the post-run RIB holds exactly the agents and UEs
      of the shard map minus quarantined shards.
    """

    def __init__(self, actions: Sequence[ClusterChaosAction] = (), *,
                 max_respawns: Optional[int] = None) -> None:
        self.actions = list(actions)
        self.max_respawns = max_respawns
        self.fired: List[Tuple[int, str]] = []

    def on_pump(self, runtime) -> None:
        """Pump-thread hook: fire every due action once."""
        low = runtime.credits.low_water()
        for action in self.actions:
            desc = action.fire(runtime, low)
            if desc:
                self.fired.append((low, desc))
                _obs.get().registry.counter("cluster.chaos.actions").inc()

    def check(self, runtime, report) -> ClusterChaosReport:
        """Post-run invariant sweep; violations use the run-end TTI."""
        violations: List[Violation] = []
        end_tti = report.total_ttis

        def violate(invariant: str, detail: str) -> None:
            violations.append(Violation(end_tti, invariant, detail))
            registry = _obs.get().registry
            registry.counter("cluster.chaos.violations").inc()
            registry.counter("cluster.chaos.violations." + invariant).inc()

        quarantined = set(report.degraded_shards)
        live = [s for s in runtime.shard_map.shards
                if s.shard_id not in quarantined]

        # 1. The surviving fleet completed -- no hang, no abort.
        for spec in live:
            done = runtime.credits.progress(spec.shard_id)
            if done < report.total_ttis:
                violate("fleet_completes",
                        f"shard {spec.shard_id} finished only "
                        f"{done}/{report.total_ttis} TTIs")
        if report.master_ttis < report.total_ttis:
            violate("fleet_completes",
                    f"master ticked only {report.master_ttis}/"
                    f"{report.total_ttis} TTIs")

        # 2. Self-healing stayed within its budget.
        bound = (self.max_respawns if self.max_respawns is not None
                 else len(runtime.shard_map.shards)
                 * runtime.config.respawn_budget)
        if report.respawns > bound:
            violate("respawns_bounded",
                    f"{report.respawns} respawns exceed the bound of "
                    f"{bound}")

        # 3. The RIB census is the shard map minus quarantined shards.
        expected_agents = sorted(
            a for s in live for a in s.agent_ids)
        rib_agents = runtime.master.rib.agent_ids()
        if rib_agents != expected_agents:
            violate("census",
                    f"RIB agents {rib_agents} != expected "
                    f"{expected_agents} (quarantined shards "
                    f"{sorted(quarantined)})")
        expected_ues = sum(
            s.ues_per_enb * len(s.agent_ids) for s in live)
        rib_ues = runtime.master.rib.ue_count()
        if rib_ues != expected_ues:
            violate("census",
                    f"RIB UEs {rib_ues} != expected {expected_ues}")

        return ClusterChaosReport(
            violations=violations, fired=list(self.fired),
            respawns=report.respawns,
            degraded_shards=sorted(quarantined),
            failures=list(report.failures))
