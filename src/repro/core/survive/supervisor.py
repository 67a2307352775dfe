"""Application supervision: the master's per-app fault boundary.

The paper's Task Manager exists so that "the operation of the master
controller is not affected" by slow or misbehaving applications
(Section 4.3.3).  The :class:`AppSupervisor` makes that guarantee
enforceable: every application invocation (the periodic ``run`` slot
and the event-based ``on_event`` deliveries alike) passes through
:meth:`AppSupervisor.call`, which catches exceptions, meters the
invocation against a deadline, and drives a per-app circuit breaker:

``CLOSED`` --(N consecutive faults)--> ``QUARANTINED``
--(cooldown expires)--> ``PROBATION``
--(clean probation runs)--> ``CLOSED``
--(fault during probation)--> ``QUARANTINED`` (escalated cooldown)

A quarantined app is skipped entirely -- it cannot stall the cycle or
starve other applications -- and is re-admitted on probation after a
cooldown, so a transient fault (a bad config push, a dependency blip)
does not permanently disable the app.  Repeated re-quarantines double
the cooldown up to a cap, so a crash-looping app converges to running
almost never while healthy apps keep their full slot.
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs as _obs

logger = logging.getLogger(__name__)


class BreakerState(enum.Enum):
    """Circuit-breaker state of one supervised application."""

    CLOSED = "closed"
    QUARANTINED = "quarantined"
    PROBATION = "probation"


@dataclass
class SupervisionPolicy:
    """Limits of the application fault boundary.

    ``deadline_ms`` is the default per-invocation time budget; the
    Task Manager overrides it per call with the app's own
    ``deadline_ms`` attribute or the app-slot budget.  ``None``
    disables overrun detection (crash containment still applies).
    """

    max_consecutive_faults: int = 3
    cooldown_ttis: int = 500
    probation_runs: int = 5
    deadline_ms: Optional[float] = None
    max_overrun_streak: int = 3
    escalation_factor: float = 2.0
    max_cooldown_ttis: int = 8000

    def __post_init__(self) -> None:
        if self.max_consecutive_faults <= 0:
            raise ValueError("max_consecutive_faults must be positive")
        if self.cooldown_ttis <= 0:
            raise ValueError("cooldown_ttis must be positive")
        if self.probation_runs <= 0:
            raise ValueError("probation_runs must be positive")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.max_overrun_streak <= 0:
            raise ValueError("max_overrun_streak must be positive")
        if self.escalation_factor < 1.0:
            raise ValueError("escalation_factor must be >= 1")
        if self.max_cooldown_ttis < self.cooldown_ttis:
            raise ValueError("max_cooldown_ttis must be >= cooldown_ttis")


@dataclass
class AppHealth:
    """Fault bookkeeping of one supervised application."""

    name: str
    state: BreakerState = BreakerState.CLOSED
    #: Total invocations that raised.
    crashes: int = 0
    #: Total invocations that exceeded their deadline.
    overruns: int = 0
    overrun_streak: int = 0
    consecutive_faults: int = 0
    clean_runs: int = 0
    quarantines: int = 0
    readmissions: int = 0
    quarantined_at_tti: int = -1
    #: Cooldown applied at the most recent quarantine (escalates).
    cooldown_ttis: int = 0
    probation_left: int = 0
    last_fault: str = ""
    #: Fault counts split by invocation pattern ("periodic" / "event").
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    #: (tti, state) log of every breaker transition, oldest first.
    transitions: List[Tuple[int, BreakerState]] = field(
        default_factory=list)

    def _transition(self, state: BreakerState, tti: int) -> None:
        self.state = state
        self.transitions.append((tti, state))


class AppSupervisor:
    """Fault boundary and circuit breaker over master applications."""

    def __init__(self, policy: Optional[SupervisionPolicy] = None) -> None:
        self.policy = policy or SupervisionPolicy()
        self._health: Dict[str, AppHealth] = {}
        #: Exceptions absorbed at the boundary (would have unwound the
        #: TTI cycle without supervision).
        self.faults_contained = 0

    # -- introspection ----------------------------------------------------

    def health(self, name: str) -> AppHealth:
        if name not in self._health:
            self._health[name] = AppHealth(name=name)
        return self._health[name]

    def states(self) -> Dict[str, BreakerState]:
        return {name: h.state for name, h in self._health.items()}

    def quarantined_names(self) -> List[str]:
        return sorted(name for name, h in self._health.items()
                      if h.state is BreakerState.QUARANTINED)

    # -- admission --------------------------------------------------------

    def admitted(self, name: str, tti: int) -> bool:
        """Whether *name* may run at *tti*; handles re-admission.

        A quarantined app whose cooldown has expired transitions to
        PROBATION here (and is admitted); otherwise quarantine means
        the Task Manager and the Events Notification Service skip it.
        """
        h = self.health(name)
        if h.state is not BreakerState.QUARANTINED:
            return True
        if tti - h.quarantined_at_tti < h.cooldown_ttis:
            return False
        h._transition(BreakerState.PROBATION, tti)
        h.probation_left = self.policy.probation_runs
        h.readmissions += 1
        _obs.get().registry.counter("survive.app.readmissions").inc()
        logger.info("supervisor: app %s re-admitted on probation at "
                    "tti %d (%d clean runs to close)", name, tti,
                    h.probation_left)
        return True

    # -- the boundary -----------------------------------------------------

    def call(self, name: str, fn: Callable[[], None], *, tti: int,
             kind: str = "periodic",
             deadline_ms: Optional[float] = None) -> bool:
        """Run *fn* inside the fault boundary.

        Returns True if the invocation completed (even if it overran
        its deadline), False if it raised.  Faults feed the breaker;
        the exception never propagates to the caller.
        """
        h = self.health(name)
        budget = (deadline_ms if deadline_ms is not None
                  else self.policy.deadline_ms)
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - the app fault boundary
            h.crashes += 1
            self.faults_contained += 1
            registry = _obs.get().registry
            registry.counter("survive.app.crashes").inc()
            registry.counter("survive.app.crashes." + name).inc()
            self._fault(h, tti, kind, f"exception: {exc!r}")
            return False
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if budget is not None and elapsed_ms > budget:
            h.overruns += 1
            h.overrun_streak += 1
            _obs.get().registry.counter("survive.app.overruns").inc()
            if h.overrun_streak >= self.policy.max_overrun_streak:
                self._fault(
                    h, tti, kind,
                    f"deadline: {elapsed_ms:.2f} ms > {budget} ms "
                    f"x{h.overrun_streak}")
        else:
            h.overrun_streak = 0
            self._clean(h, tti)
        return True

    # -- breaker mechanics ------------------------------------------------

    def _clean(self, h: AppHealth, tti: int) -> None:
        h.consecutive_faults = 0
        h.clean_runs += 1
        if h.state is BreakerState.PROBATION:
            h.probation_left -= 1
            if h.probation_left <= 0:
                h._transition(BreakerState.CLOSED, tti)
                _obs.get().registry.counter("survive.app.closed").inc()
                logger.info("supervisor: app %s closed its breaker at "
                            "tti %d (probation passed)", h.name, tti)

    def _fault(self, h: AppHealth, tti: int, kind: str,
               reason: str) -> None:
        h.consecutive_faults += 1
        h.last_fault = reason
        h.faults_by_kind[kind] = h.faults_by_kind.get(kind, 0) + 1
        registry = _obs.get().registry
        registry.counter("survive.app.faults").inc()
        registry.counter("survive.app.faults." + h.name).inc()
        logger.warning("supervisor: app %s fault (%s pattern) at tti %d: "
                       "%s", h.name, kind, tti, reason)
        if h.state is BreakerState.PROBATION:
            # One strike during probation: straight back to quarantine,
            # with the cooldown escalated so a crash-looper backs off.
            self._quarantine(h, tti)
        elif h.consecutive_faults >= self.policy.max_consecutive_faults:
            self._quarantine(h, tti)

    def _quarantine(self, h: AppHealth, tti: int) -> None:
        h.quarantines += 1
        cooldown = (self.policy.cooldown_ttis
                    * self.policy.escalation_factor ** (h.quarantines - 1))
        h.cooldown_ttis = int(min(cooldown, self.policy.max_cooldown_ttis))
        h.quarantined_at_tti = tti
        h.consecutive_faults = 0
        h.overrun_streak = 0
        h.probation_left = 0
        h._transition(BreakerState.QUARANTINED, tti)
        registry = _obs.get().registry
        registry.counter("survive.app.quarantines").inc()
        registry.counter("survive.app.quarantines." + h.name).inc()
        registry.gauge("survive.app.quarantined_now").set(
            len(self.quarantined_names()))
        logger.error("supervisor: app %s QUARANTINED at tti %d for %d "
                     "TTIs (%s)", h.name, tti, h.cooldown_ttis,
                     h.last_fault)

    def describe(self) -> Dict[str, Dict[str, object]]:
        """Snapshot of every supervised app's health (monitoring)."""
        return {
            name: {
                "state": h.state.value,
                "crashes": h.crashes,
                "overruns": h.overruns,
                "quarantines": h.quarantines,
                "readmissions": h.readmissions,
                "faults_by_kind": dict(h.faults_by_kind),
            }
            for name, h in sorted(self._health.items())
        }
