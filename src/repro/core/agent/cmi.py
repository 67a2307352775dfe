"""Control Module Interface: virtualized control functions and cache.

Section 4.3.1 of the paper: each eNodeB control module exposes a
well-defined set of operations through its Control Module Interface
(CMI); every operation is implemented by a Virtual Subsystem Function
(VSF).  The agent caches many implementations per operation ("the
agent cache can store many different implementations for a specific
VSF, which the master can swap at runtime") and swaps the active one
on policy reconfiguration.  Swap latency is measured per activation --
the paper reports ~100 ns VSF load time (Section 5.4).
"""

from __future__ import annotations

import abc
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import obs as _obs
from repro.core.policy import VsfPolicy

logger = logging.getLogger(__name__)


class CmiError(Exception):
    """Invalid CMI usage: unknown operation or VSF."""


@dataclass
class VsfSlot:
    """One operation of a control module: its cache and active VSF."""

    operation: str
    cache: Dict[str, Callable] = field(default_factory=dict)
    active_name: Optional[str] = None
    active: Optional[Callable] = None
    swaps: int = 0
    last_swap_ns: int = 0
    #: Sandbox state (Section 4.3.1's "sandboxed mode"): the VSF to
    #: fall back to when the active one misbehaves, and fault counters.
    fallback_name: Optional[str] = None
    faults: int = 0
    consecutive_overruns: int = 0
    quarantined: Dict[str, int] = field(default_factory=dict)
    #: Most recent VSF that completed a sandboxed invocation cleanly;
    #: quarantine rolls back to it in preference to the static fallback.
    last_good_name: Optional[str] = None


@dataclass
class SandboxPolicy:
    """Fault-isolation limits for pushed VSF code.

    The paper proposes running control modules "in a sandboxed mode"
    so "the network operator could quickly identify VSFs that present
    an unexpected behavior".  Within one process the enforceable
    sandbox is behavioural: a VSF that raises, or that repeatedly
    overruns its per-invocation time budget, is quarantined and the
    slot reverts to its fallback implementation.
    """

    time_budget_ms: Optional[float] = None
    max_consecutive_overruns: int = 3

    def __post_init__(self) -> None:
        if self.time_budget_ms is not None and self.time_budget_ms <= 0:
            raise ValueError(
                f"time budget must be positive, got {self.time_budget_ms}")
        if self.max_consecutive_overruns <= 0:
            raise ValueError("max_consecutive_overruns must be positive")


class VsfFault(Exception):
    """A sandboxed VSF misbehaved and no fallback was available."""


class ControlModule(abc.ABC):
    """Base class of the agent's eNodeB control modules (MAC, RRC, ...).

    Subclasses declare ``OPERATIONS`` -- the CMI -- and register their
    built-in VSFs in ``__init__``.  New implementations arrive at
    runtime through VSF updation (:meth:`register_vsf`) and become
    active through policy reconfiguration (:meth:`activate`).
    """

    #: Module name as referenced by policy documents (e.g. "mac").
    name: str = "module"
    #: The CMI: operation names this module supports.
    OPERATIONS: tuple = ()
    #: VSF names that only function with a live master connection
    #: (remote stubs); the connection supervisor swaps these for their
    #: fallbacks while disconnected.
    REMOTE_VSF_NAMES: frozenset = frozenset()

    def __init__(self, *, sandbox: Optional[SandboxPolicy] = None) -> None:
        self._slots: Dict[str, VsfSlot] = {
            op: VsfSlot(op) for op in self.OPERATIONS}
        self.sandbox = sandbox
        self._fault_observers: List[Callable[[str, str, str], None]] = []

    def on_vsf_fault(self, fn: Callable[[str, str, str], None]) -> None:
        """Register ``fn(operation, vsf_name, reason)`` fault callback."""
        self._fault_observers.append(fn)

    def set_fallback(self, operation: str, name: str) -> None:
        """Designate the trusted VSF to revert to on sandbox faults."""
        slot = self._slot(operation)
        if name not in slot.cache:
            raise CmiError(
                f"fallback {name!r} not in cache of {self.name}.{operation}")
        slot.fallback_name = name

    def _slot(self, operation: str) -> VsfSlot:
        try:
            return self._slots[operation]
        except KeyError:
            raise CmiError(
                f"module {self.name!r} has no operation {operation!r}; "
                f"CMI: {list(self.OPERATIONS)}") from None

    def register_vsf(self, operation: str, name: str, fn: Callable,
                     *, activate: bool = False) -> None:
        """Store a VSF implementation in the cache (VSF updation)."""
        slot = self._slot(operation)
        slot.cache[name] = fn
        logger.debug("module %s: cached VSF %s for %s",
                     self.name, name, operation)
        if activate or slot.active is None:
            self.activate(operation, name)

    def activate(self, operation: str, name: str) -> int:
        """Make a cached VSF the active one; returns swap time in ns.

        This is the runtime "VSF load": linking a CMI function call to
        one of the callbacks stored in the agent cache.
        """
        slot = self._slot(operation)
        if name not in slot.cache:
            raise CmiError(
                f"VSF {name!r} not in cache of {self.name}.{operation}; "
                f"cached: {sorted(slot.cache)}")
        start = time.perf_counter_ns()
        slot.active = slot.cache[name]
        slot.active_name = name
        elapsed = time.perf_counter_ns() - start
        slot.swaps += 1
        slot.last_swap_ns = elapsed
        logger.info("module %s: activated VSF %s for %s (%d ns)",
                    self.name, name, operation, elapsed)
        return elapsed

    def active_vsf(self, operation: str) -> Callable:
        slot = self._slot(operation)
        if slot.active is None:
            raise CmiError(f"no active VSF for {self.name}.{operation}")
        return slot.active

    def active_name(self, operation: str) -> Optional[str]:
        return self._slot(operation).active_name

    def fallback_name(self, operation: str) -> Optional[str]:
        return self._slot(operation).fallback_name

    def cached_names(self, operation: str) -> List[str]:
        return sorted(self._slot(operation).cache)

    def invoke(self, operation: str, *args: Any, **kwargs: Any) -> Any:
        """Run the active VSF of *operation* (the CMI call).

        With a :class:`SandboxPolicy` installed, exceptions and
        time-budget overruns quarantine the active VSF and revert to
        the slot's fallback implementation.
        """
        if self.sandbox is None:
            return self.active_vsf(operation)(*args, **kwargs)
        return self._invoke_sandboxed(operation, *args, **kwargs)

    def _invoke_sandboxed(self, operation: str, *args: Any,
                          **kwargs: Any) -> Any:
        slot = self._slot(operation)
        vsf = self.active_vsf(operation)
        start = time.perf_counter()
        try:
            result = vsf(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - the sandbox boundary
            self._quarantine(slot, f"exception: {exc!r}")
            # Retry once with the (trusted) fallback implementation.
            return self.active_vsf(operation)(*args, **kwargs)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        budget = self.sandbox.time_budget_ms
        if budget is not None and elapsed_ms > budget:
            slot.consecutive_overruns += 1
            if (slot.consecutive_overruns
                    >= self.sandbox.max_consecutive_overruns):
                self._quarantine(
                    slot, f"time budget: {elapsed_ms:.2f} ms > {budget} ms "
                          f"x{slot.consecutive_overruns}")
        else:
            slot.consecutive_overruns = 0
            slot.last_good_name = slot.active_name
        return result

    def _quarantine(self, slot: VsfSlot, reason: str) -> None:
        bad = slot.active_name or "<anonymous>"
        slot.faults += 1
        slot.quarantined[bad] = slot.quarantined.get(bad, 0) + 1
        slot.consecutive_overruns = 0
        logger.error("module %s: quarantining VSF %s for %s (%s)",
                     self.name, bad, slot.operation, reason)
        ob = _obs.get()
        ob.registry.counter("survive.vsf.faults").inc()
        # Name-level counter so the operator "could quickly identify
        # VSFs that present an unexpected behavior".
        ob.registry.counter(
            f"survive.vsf.quarantined.{self.name}"
            f".{slot.operation}.{bad}").inc()
        # Rollback preference: the last VSF known to have completed a
        # clean sandboxed invocation, then the designated fallback,
        # then any other cached implementation.
        fallback = slot.last_good_name
        if fallback == bad or (fallback is not None
                               and fallback not in slot.cache):
            fallback = None
        if fallback is None:
            fallback = slot.fallback_name
        if fallback is None or fallback == bad:
            candidates = [n for n in sorted(slot.cache) if n != bad]
            if not candidates:
                raise VsfFault(
                    f"{self.name}.{slot.operation}: VSF {bad!r} failed "
                    f"({reason}) and no fallback is available")
            fallback = candidates[0]
        slot.cache.pop(bad, None)  # evict the offender from the cache
        if slot.last_good_name == bad:
            slot.last_good_name = None
        self.activate(slot.operation, fallback)
        ob.registry.counter("survive.vsf.rollbacks").inc()
        for fn in list(self._fault_observers):
            fn(slot.operation, bad, reason)

    def configure_vsf(self, operation: str,
                      parameters: Dict[str, Any]) -> None:
        """Retune the active VSF's public parameters.

        VSFs expose parameters through a ``set_parameter`` method (the
        scheduler classes do); plain callables without parameters
        reject reconfiguration.
        """
        vsf = self.active_vsf(operation)
        setter = getattr(vsf, "set_parameter", None)
        if setter is None:
            raise CmiError(
                f"active VSF of {self.name}.{operation} exposes no parameters")
        for key, value in parameters.items():
            setter(key, value)

    def apply_policy(self, policy: VsfPolicy) -> None:
        """Apply one VSF entry of a policy reconfiguration message."""
        if policy.behavior is not None:
            self.activate(policy.vsf, policy.behavior)
        if policy.parameters:
            self.configure_vsf(policy.vsf, policy.parameters)

    def describe(self) -> Dict[str, Any]:
        """Snapshot of the module's CMI state (for registry/monitoring)."""
        return {
            "module": self.name,
            "operations": {
                op: {"active": slot.active_name,
                     "cached": sorted(slot.cache),
                     "swaps": slot.swaps}
                for op, slot in self._slots.items()},
        }
