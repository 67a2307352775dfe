"""The FlexRAN Agent: local controller attached to one eNodeB.

Mirrors the architecture of the paper's Fig. 2: control modules with
their VSFs, the Reports & Events Manager, the message handler and
dispatcher, and the asynchronous communication channel to the master.
The agent can operate standalone (local control via its built-in VSFs,
no master connected) or under a master with any mix of delegated and
centralized control -- the "flexible placement of RAN control
functions" the paper emphasizes.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Dict, List, Optional

from repro import obs as _obs
from repro.core.agent.api import AgentDataPlaneApi
from repro.core.agent.cmi import ControlModule
from repro.core.agent.connection import (
    ConnectionConfig,
    ConnectionSupervisor,
)
from repro.core.agent.mac_module import MacControlModule
from repro.core.agent.pdcp_module import PdcpControlModule
from repro.core.agent.rrc_module import RrcControlModule
from repro.core.agent.reports import ReportsManager
from repro.core.delegation import VsfFactoryRegistry, load_vsf
from repro.core.policy import PolicyDocument
from repro.core.protocol.messages import (
    AbsPatternConfig,
    BearerQosConfig,
    CaCommand,
    ConfigReply,
    ConfigRequest,
    DlMacCommand,
    DrxCommand,
    EchoReply,
    EchoRequest,
    EventNotification,
    EventType,
    FlexRanMessage,
    HandoverCommand,
    Header,
    Hello,
    PolicyReconfiguration,
    PrbCapConfig,
    StatsRequest,
    SubframeTrigger,
    SyncConfig,
    UlMacCommand,
    VsfUpdate,
)
from repro.lte.constants import SUBFRAMES_PER_FRAME
from repro.lte.enodeb import EnbEvent, EnbEventType, EnodeB
from repro.lte.mac.dci import DlAssignment, UlGrant

logger = logging.getLogger(__name__)

EVENT_QUEUE_LIMIT = 256
"""Events retained while the master is unreachable (oldest dropped)."""

_ENB_EVENT_MAP = {
    EnbEventType.UE_ATTACHED: EventType.UE_ATTACH,
    EnbEventType.ATTACH_FAILED: EventType.ATTACH_FAILED,
    EnbEventType.RANDOM_ACCESS: EventType.RANDOM_ACCESS,
    EnbEventType.SCHEDULING_REQUEST: EventType.SCHEDULING_REQUEST,
    EnbEventType.HANDOVER_COMPLETE: EventType.HANDOVER_COMPLETE,
}


class FlexRanAgent:
    """Agent instance: one per eNodeB (Section 3)."""

    def __init__(self, agent_id: int, enb: EnodeB, *,
                 endpoint=None,
                 sync_enabled: bool = False,
                 vsf_registry: Optional[VsfFactoryRegistry] = None,
                 capabilities: Optional[List[str]] = None,
                 connection_config: Optional[ConnectionConfig] = None
                 ) -> None:
        self.agent_id = agent_id
        self.enb = enb
        self.api = AgentDataPlaneApi(enb)
        self.endpoint = endpoint
        self.sync_enabled = sync_enabled
        self.vsf_registry = vsf_registry or VsfFactoryRegistry()
        self.capabilities = capabilities or ["mac", "rrc", "pdcp"]

        self.mac = MacControlModule(self.api)
        self.rrc = RrcControlModule(self.api)
        self.pdcp = PdcpControlModule(self.api)
        self.modules: Dict[str, ControlModule] = {
            m.name: m for m in (self.mac, self.rrc, self.pdcp)}

        self.reports = ReportsManager(agent_id, self.api)
        self._event_queue: List[EventNotification] = []
        self.api.subscribe_events(self._on_enb_event)
        # Sandbox faults (quarantined pushed code) are reported to the
        # master as events so the operator "could quickly identify VSFs
        # that present an unexpected behavior" (Section 4.3.1).
        for module in self.modules.values():
            module.on_vsf_fault(self._on_vsf_fault)

        self._hello_sent = False
        self._last_hello_tti = -(10 ** 9)
        self._xid = 0
        self.processing_time_s = 0.0
        self._span_args = {"agent": agent_id}
        self.messages_handled = 0
        #: Messages dropped because no handler is registered for them.
        self.dispatch_unknown = 0
        #: Messages whose handler raised (caught at the dispatch
        #: boundary so one malformed command cannot kill the agent).
        self.dispatch_errors = 0

        # Connection supervisor: liveness, local fallback, reconnect.
        # Only meaningful with an endpoint; it stays dormant until the
        # master has spoken once.
        self.connection: Optional[ConnectionSupervisor] = None
        self._suspended_remote: List[tuple] = []
        if endpoint is not None:
            self.connection = ConnectionSupervisor(
                connection_config,
                send_keepalive=self._send_keepalive,
                send_reconnect_probe=self._send_reconnect_probe,
                on_disconnect=self._enter_local_control,
                on_reconnect=self._on_reconnected)

        self._handlers: Dict[type, Callable[[FlexRanMessage, int], None]] = {
            EchoRequest: self._handle_echo,
            EchoReply: self._handle_echo_reply,
            ConfigRequest: self._handle_config_request,
            AbsPatternConfig: self._handle_abs_pattern,
            BearerQosConfig: self._handle_bearer_qos,
            SyncConfig: self._handle_sync_config,
            PrbCapConfig: self._handle_prb_cap,
            StatsRequest: self._handle_stats_request,
            DlMacCommand: self._handle_dl_command,
            UlMacCommand: self._handle_ul_command,
            DrxCommand: self._handle_drx,
            CaCommand: self._handle_ca,
            HandoverCommand: self._handle_handover,
            VsfUpdate: self._handle_vsf_update,
            PolicyReconfiguration: self._handle_policy,
        }

    # -- outbound ---------------------------------------------------------

    def _next_xid(self) -> int:
        self._xid += 1
        return self._xid

    def _send(self, message: FlexRanMessage, now: int) -> None:
        if self.endpoint is None:
            return
        message.header.agent_id = self.agent_id
        message.header.tti = now
        self.endpoint.send(message, now=now)

    def _hello_due(self, now: int) -> bool:
        if not self._hello_sent:
            return True
        # Until the master has spoken once, the announcement may have
        # been lost in transit: keep re-offering it on the keepalive
        # cadence (connection establishment retry).
        return (self.connection is not None
                and not self.connection.armed
                and now - self._last_hello_tti
                >= self.connection.config.keepalive_period_ttis)

    def _send_keepalive(self, now: int) -> None:
        self._send(EchoRequest(header=Header(xid=self._next_xid())), now)

    def _send_reconnect_probe(self, now: int) -> None:
        # Probing with Hello doubles as re-announcement: the master's
        # Hello handling triggers a full config resync on reattach.
        self._send(Hello(header=Header(xid=self._next_xid()),
                         capabilities=list(self.capabilities),
                         n_cells=len(self.api.cell_ids)), now)

    def tick_tx(self, now: int) -> None:
        """AGENT_TX phase: hello, sync, due reports, queued events."""
        start = time.perf_counter()
        if self.connection is not None and not self.connection.before_tx(now):
            # Disconnected: the supervisor owns the channel (probes on
            # its backoff schedule); suppress normal control traffic and
            # bound the event queue until the master is reachable again.
            if len(self._event_queue) > EVENT_QUEUE_LIMIT:
                self._event_queue = self._event_queue[-EVENT_QUEUE_LIMIT:]
            self._account(start, now, "tick_tx")
            return
        if self.endpoint is not None and self._hello_due(now):
            self._send(Hello(header=Header(xid=self._next_xid()),
                             capabilities=list(self.capabilities),
                             n_cells=len(self.api.cell_ids)), now)
            self._hello_sent = True
            self._last_hello_tti = now
        if self.sync_enabled:
            self._send(SubframeTrigger(
                header=Header(xid=self._next_xid()),
                sfn=now // SUBFRAMES_PER_FRAME,
                sf=now % SUBFRAMES_PER_FRAME), now)
        for reply in self.reports.due_replies(now):
            self._send(reply, now)
        events, self._event_queue = self._event_queue, []
        for event in events:
            self._send(event, now)
        self._account(start, now, "tick_tx")

    # -- inbound ----------------------------------------------------------

    def tick_rx(self, now: int) -> None:
        """AGENT_RX phase: dispatch every received protocol message."""
        if self.endpoint is None:
            return
        start = time.perf_counter()
        for message in self.endpoint.receive(now=now):
            if self.connection is not None:
                self.connection.heard(now)
            self.dispatch(message, now)
        self._account(start, now, "tick_rx")

    def _account(self, start: float, now: int, span: str) -> None:
        """Charge one tick to ``processing_time_s`` and obs."""
        end = time.perf_counter()
        self.processing_time_s += end - start
        ob = _obs.get()
        ob.tracer.complete("agent", span, start, end, now, self._span_args)
        ob.registry.histogram("agent.tick_us").observe((end - start) * 1e6)

    # -- connection resilience --------------------------------------------

    def _enter_local_control(self, now: int) -> None:
        """Swap remote-stub VSFs for their local fallbacks.

        Called by the connection supervisor on disconnect: any
        operation currently driven by the master (a VSF listed in its
        module's ``REMOTE_VSF_NAMES``) reverts to the designated
        fallback so the cell keeps scheduling instead of idling on
        decisions that will never arrive.
        """
        for module in self.modules.values():
            for operation in module.OPERATIONS:
                active = module.active_name(operation)
                if active is None or active not in module.REMOTE_VSF_NAMES:
                    continue
                fallback = module.fallback_name(operation)
                if fallback is None or fallback == active:
                    continue
                self._suspended_remote.append((module, operation, active))
                module.activate(operation, fallback)
                logger.warning(
                    "agent %d: %s.%s falls back %s -> %s (master lost)",
                    self.agent_id, module.name, operation, active, fallback)

    def _on_reconnected(self, now: int) -> None:
        """Restore suspended remote VSFs and re-announce to the master."""
        suspended, self._suspended_remote = self._suspended_remote, []
        for module, operation, name in suspended:
            if name in module.cached_names(operation):
                module.activate(operation, name)
                logger.info("agent %d: %s.%s restored to %s (reconnected)",
                            self.agent_id, module.name, operation, name)
        # Re-announce so the master resynchronizes configuration even if
        # the reconnect was triggered by inbound traffic rather than one
        # of our Hello probes.  Reports restart from a full snapshot:
        # any delta replies lost during the outage must not leave the
        # master's RIB permanently behind.
        self._hello_sent = False
        self.reports.force_full()

    def dispatch(self, message: FlexRanMessage, now: int) -> None:
        """Route one protocol message to its handler (message handler
        and dispatcher entity of Fig. 2).

        The dispatch boundary is hardened: an unknown message type or
        a handler that raises (e.g. a command naming a module this
        agent does not run) is counted and dropped instead of killing
        the agent's RX tick -- the control channel stays up.
        """
        ob = _obs.get()
        msg_type = type(message).__name__
        handler = self._handlers.get(type(message))
        if handler is None:
            self.dispatch_unknown += 1
            ob.registry.counter("agent.dispatch.unknown").inc()
            logger.warning("agent %d: dropping unhandled message type %s",
                           self.agent_id, msg_type)
            return
        start = time.perf_counter()
        try:
            handler(message, now)
        except Exception as exc:  # noqa: BLE001 - the dispatch boundary
            self.dispatch_errors += 1
            ob.registry.counter("agent.dispatch.errors").inc()
            logger.error("agent %d: handler for %s failed, message "
                         "dropped: %r", self.agent_id, msg_type, exc)
            return
        finally:
            ob.tracer.complete("agent_dispatch", msg_type, start,
                               time.perf_counter(), now, self._span_args)
        if self.endpoint is not None:
            ob.correlator.on_handle(
                self.endpoint.peer, self.endpoint.rx_direction,
                msg_type, message.header.xid, now)
        self.messages_handled += 1

    # -- handlers ---------------------------------------------------------

    def _handle_echo(self, message: EchoRequest, now: int) -> None:
        self._send(EchoReply(header=Header(xid=message.header.xid)), now)

    def _handle_echo_reply(self, message: EchoReply, now: int) -> None:
        # Keepalive answer: liveness already noted in tick_rx.
        pass

    def _handle_config_request(self, message: ConfigRequest, now: int) -> None:
        reply = ConfigReply(
            header=Header(xid=message.header.xid),
            enb_id=self.api.enb_id,
            cells=self.api.get_cell_configs(),
            ues=self.api.get_ue_configs())
        if message.scope == "cells":
            reply.ues = []
        elif message.scope == "ues":
            reply.cells = []
        self._send(reply, now)

    def _handle_abs_pattern(self, message: AbsPatternConfig,
                            now: int) -> None:
        self.api.set_abs_pattern(message.cell_id, list(message.subframes))

    def _handle_bearer_qos(self, message: BearerQosConfig, now: int) -> None:
        from repro.lte.mac.qos import QosProfile
        gbr = message.gbr_kbps / 1000.0 if message.gbr_kbps else None
        profile = QosProfile(qci=message.qci, gbr_mbps=gbr)
        self.api.configure_bearer(message.rnti, message.lcid, profile)

    def _handle_sync_config(self, message: SyncConfig, now: int) -> None:
        self.sync_enabled = message.enabled

    def _handle_prb_cap(self, message: PrbCapConfig, now: int) -> None:
        cap = message.n_prb if message.capped else None
        self.api.set_prb_cap(message.cell_id, cap)

    def _handle_stats_request(self, message: StatsRequest, now: int) -> None:
        self.reports.register(message, now)

    def _handle_dl_command(self, message: DlMacCommand, now: int) -> None:
        assignments = [
            DlAssignment(rnti=d.rnti, n_prb=d.n_prb, cqi_used=d.cqi_used)
            for d in message.assignments]
        self.mac.apply_remote_decision(
            message.cell_id, message.target_tti, assignments, now)

    def _handle_ul_command(self, message: UlMacCommand, now: int) -> None:
        grants = [UlGrant(rnti=g.rnti, n_prb=g.n_prb, cqi_used=g.cqi_used)
                  for g in message.grants]
        self.mac.apply_remote_ul_decision(
            message.cell_id, message.target_tti, grants, now)

    def _handle_drx(self, message: DrxCommand, now: int) -> None:
        self.api.set_drx(message.rnti, cycle_ttis=message.cycle_ttis,
                         on_duration_ttis=message.on_duration_ttis,
                         inactivity_ttis=message.inactivity_ttis)

    def _handle_ca(self, message: CaCommand, now: int) -> None:
        self.api.set_scell(message.rnti, message.scell_id,
                           message.activate, tti=now)

    def _handle_handover(self, message: HandoverCommand, now: int) -> None:
        self.rrc.execute_handover(
            message.rnti, message.source_cell, message.target_cell, now)

    def _handle_vsf_update(self, message: VsfUpdate, now: int) -> None:
        module = self.modules.get(message.module)
        if module is None:
            raise KeyError(
                f"agent {self.agent_id} has no control module "
                f"{message.module!r}")
        logger.info("agent %d: VSF update %s.%s <- %s (%d bytes)",
                    self.agent_id, message.module, message.operation,
                    message.name, len(message.blob))
        vsf = load_vsf(message.blob, self.vsf_registry)
        bind = getattr(vsf, "bind", None)
        if callable(bind):
            # Some VSFs (e.g. ABS-time stubs) need the owning module's
            # remote-decision store; binding is the loader's link step.
            bind(module)
        module.register_vsf(message.operation, message.name, vsf)

    def _handle_policy(self, message: PolicyReconfiguration, now: int) -> None:
        logger.info("agent %d: policy reconfiguration received",
                    self.agent_id)
        document = PolicyDocument.from_text(message.text)
        for module_name, policies in document.modules.items():
            module = self.modules.get(module_name)
            if module is None:
                raise KeyError(
                    f"agent {self.agent_id} has no control module "
                    f"{module_name!r}")
            for policy in policies:
                module.apply_policy(policy)

    # -- events -----------------------------------------------------------

    def _on_vsf_fault(self, operation: str, vsf_name: str,
                      reason: str) -> None:
        self._event_queue.append(EventNotification(
            header=Header(xid=self._next_xid()),
            event_type=int(EventType.VSF_FAULT),
            details={"operation": operation, "vsf": vsf_name,
                     "reason": reason[:120]}))

    def _on_enb_event(self, event: EnbEvent) -> None:
        kind = _ENB_EVENT_MAP.get(event.type)
        if kind is None:
            return
        self._event_queue.append(EventNotification(
            header=Header(xid=self._next_xid()),
            event_type=int(kind), rnti=event.rnti or 0,
            cell_id=event.cell_id or 0,
            details={str(k): str(v) for k, v in event.payload.items()}))
