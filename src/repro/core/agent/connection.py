"""Agent-side control-connection supervisor.

The paper's separation-of-concerns argument (Section 4, Fig. 2) is
that an eNodeB keeps operating through delegated local control even
when the agent's channel to the master degrades or dies.  This module
is the agent half of that claim: a small state machine that

* tracks master liveness through received traffic and its own
  echo-based keepalive probes,
* declares the connection lost after a silence timeout and falls back
  to the agent's local/delegated schedulers (the VSFs already in the
  cache -- no master round trip needed),
* attempts reconnection with capped exponential backoff, and
* on success restores the remote control functions and re-announces
  the agent so the master resynchronizes configuration.

The supervisor is transport-agnostic: it only decides *when* to probe
and *whether* normal traffic should flow; the agent wires in the
actual send/fallback actions as callbacks.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro import obs as _obs

logger = logging.getLogger(__name__)

Action = Callable[[int], None]
"""Callback ``(tti) -> None`` the agent wires to a protocol action."""


class ConnectionState(enum.Enum):
    """Where the agent believes its master connection stands."""

    CONNECTED = "connected"
    DISCONNECTED = "disconnected"


@dataclass
class ConnectionConfig:
    """Tuning of the agent's liveness and reconnect machinery."""

    keepalive_period_ttis: int = 100
    disconnect_timeout_ttis: int = 300
    reconnect_backoff_ttis: int = 50
    reconnect_backoff_cap_ttis: int = 800

    def __post_init__(self) -> None:
        if self.keepalive_period_ttis <= 0:
            raise ValueError(
                f"keepalive period must be positive, got "
                f"{self.keepalive_period_ttis}")
        if self.disconnect_timeout_ttis <= self.keepalive_period_ttis:
            raise ValueError(
                "disconnect timeout must exceed the keepalive period "
                f"(got {self.disconnect_timeout_ttis} <= "
                f"{self.keepalive_period_ttis})")
        if self.reconnect_backoff_ttis <= 0:
            raise ValueError(
                f"reconnect backoff must be positive, got "
                f"{self.reconnect_backoff_ttis}")
        if self.reconnect_backoff_cap_ttis < self.reconnect_backoff_ttis:
            raise ValueError(
                "backoff cap must be >= the initial backoff "
                f"(got {self.reconnect_backoff_cap_ttis} < "
                f"{self.reconnect_backoff_ttis})")


@dataclass
class ConnectionStats:
    """Counters of the supervisor's life so far."""

    disconnects: int = 0
    reconnects: int = 0
    reconnect_attempts: int = 0
    keepalives_sent: int = 0


class ConnectionSupervisor:
    """The agent's connection state machine (one per control channel).

    Driven from the agent's TTI hooks: :meth:`heard` per received
    message, :meth:`before_tx` once per AGENT_TX phase.  The supervisor
    stays dormant until the master has spoken once, so an agent wired
    to a never-answering endpoint (standalone deployments, unit
    harnesses) behaves exactly as before.
    """

    def __init__(self, config: Optional[ConnectionConfig] = None, *,
                 send_keepalive: Optional[Action] = None,
                 send_reconnect_probe: Optional[Action] = None,
                 on_disconnect: Optional[Action] = None,
                 on_reconnect: Optional[Action] = None) -> None:
        self.config = config or ConnectionConfig()
        self.state = ConnectionState.CONNECTED
        self.stats = ConnectionStats()
        #: (tti, state) log of every transition, oldest first.
        self.transitions: List[Tuple[int, ConnectionState]] = []
        self._send_keepalive = send_keepalive
        self._send_reconnect_probe = send_reconnect_probe
        self._on_disconnect = on_disconnect
        self._on_reconnect = on_reconnect
        self._armed = False
        self._last_heard = 0
        self._last_keepalive = -(10 ** 9)
        self._backoff = self.config.reconnect_backoff_ttis
        self._next_probe = 0

    @property
    def connected(self) -> bool:
        return self.state is ConnectionState.CONNECTED

    @property
    def armed(self) -> bool:
        """Whether the master has ever been heard (liveness active)."""
        return self._armed

    def silent_for(self, now: int) -> int:
        return now - self._last_heard

    # -- inputs ------------------------------------------------------------

    def heard(self, now: int) -> None:
        """A message from the master arrived."""
        self._last_heard = now
        self._armed = True
        if self.state is ConnectionState.DISCONNECTED:
            self._transition(ConnectionState.CONNECTED, now)
            self.stats.reconnects += 1
            self._backoff = self.config.reconnect_backoff_ttis
            logger.info("agent connection: master reachable again at "
                        "TTI %d", now)
            if self._on_reconnect is not None:
                self._on_reconnect(now)
            ob = _obs.get()
            ob.registry.counter("agent.connection.reconnects").inc()
            ob.tracer.instant("agent", "reconnected", tti=now)

    def before_tx(self, now: int) -> bool:
        """Run the per-TTI liveness logic; returns whether normal
        control traffic (hello/sync/reports/events) should be sent."""
        if not self._armed:
            return True
        if self.state is ConnectionState.CONNECTED:
            silent = self.silent_for(now)
            if silent >= self.config.disconnect_timeout_ttis:
                self._disconnect(now, silent)
                return False
            if (silent >= self.config.keepalive_period_ttis
                    and now - self._last_keepalive
                    >= self.config.keepalive_period_ttis):
                self._last_keepalive = now
                self.stats.keepalives_sent += 1
                _obs.get().registry.counter(
                    "agent.connection.keepalives").inc()
                if self._send_keepalive is not None:
                    self._send_keepalive(now)
            return True
        # DISCONNECTED: probe on the backoff schedule, suppress the rest.
        if now >= self._next_probe:
            self.stats.reconnect_attempts += 1
            _obs.get().registry.counter(
                "agent.connection.reconnect_attempts").inc()
            self._backoff = min(self._backoff * 2,
                                self.config.reconnect_backoff_cap_ttis)
            self._next_probe = now + self._backoff
            if self._send_reconnect_probe is not None:
                self._send_reconnect_probe(now)
        return False

    # -- internals ---------------------------------------------------------

    def _disconnect(self, now: int, silent: int) -> None:
        self._transition(ConnectionState.DISCONNECTED, now)
        self.stats.disconnects += 1
        self._backoff = self.config.reconnect_backoff_ttis
        self._next_probe = now + self._backoff
        logger.warning("agent connection: master silent for %d TTIs, "
                       "falling back to local control", silent)
        ob = _obs.get()
        ob.registry.counter("agent.connection.disconnects").inc()
        ob.tracer.instant("agent", "disconnected", tti=now,
                          silent_ttis=silent)
        if self._on_disconnect is not None:
            self._on_disconnect(now)

    def _transition(self, state: ConnectionState, now: int) -> None:
        self.state = state
        self.transitions.append((now, state))
