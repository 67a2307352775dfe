"""FlexRAN protocol messages.

The protocol carries the five interaction classes of the FlexRAN Agent
API (Table 1 of the paper): configuration, statistics, commands,
event triggers and control delegation, plus the master--agent subframe
synchronization used by centralized real-time scheduling.

Each message class declares:

* ``MSG_TYPE`` -- the one-byte wire discriminator;
* ``CATEGORY`` -- the accounting category used for the signaling
  breakdowns of Fig. 7 (agent management / sync / stats reporting /
  master commands);
* its fields, each once, with :func:`~repro.core.protocol.wire.wire`
  naming the field's wire kind.  Wire order is declaration order.

All messages share a :class:`Header` (agent id, transaction id, TTI
stamp) as their first field.  :mod:`repro.core.protocol.codec`
compiles the encoders and decoders from these declarations and frames
the result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, Dict, List

from repro.core.protocol.wire import wire


class Category:
    """Signaling-accounting categories (the Fig. 7 series names)."""

    AGENT_MANAGEMENT = "agent_management"
    SYNC = "master_agent_sync"
    STATS = "stats_reporting"
    COMMANDS = "master_commands"


class ReportType(enum.IntEnum):
    """Statistics report flavours (Section 4.3.1, Reports & Events)."""

    ONE_OFF = 0
    PERIODIC = 1
    TRIGGERED = 2
    CANCEL = 3


class StatsFlags(enum.IntFlag):
    """Which statistic groups a request subscribes to."""

    QUEUES = 0x01
    CQI = 0x02
    HARQ = 0x04
    RLC = 0x08
    PDCP = 0x10
    CELL = 0x20
    FULL = 0x3F


class EventType(enum.IntEnum):
    """Event-trigger kinds (Table 1)."""

    UE_ATTACH = 0
    ATTACH_FAILED = 1
    RANDOM_ACCESS = 2
    SCHEDULING_REQUEST = 3
    HANDOVER_COMPLETE = 4
    TTI_START = 5
    VSF_FAULT = 6


@dataclass
class Header:
    """Common message header."""

    agent_id: int = wire("varint")
    xid: int = wire("varint")
    tti: int = wire("varint")


@dataclass
class FlexRanMessage:
    """Base class of every protocol message."""

    MSG_TYPE: ClassVar[int] = 0
    CATEGORY: ClassVar[str] = Category.AGENT_MANAGEMENT

    header: Header = wire("record", of=Header)


# -- agent management ---------------------------------------------------


@dataclass
class Hello(FlexRanMessage):
    """Agent registration announcing its capabilities."""

    MSG_TYPE: ClassVar[int] = 1

    capabilities: List[str] = wire("strings")
    n_cells: int = wire("varint", 1)


@dataclass
class EchoRequest(FlexRanMessage):
    """Keepalive probe from the master."""

    MSG_TYPE: ClassVar[int] = 2


@dataclass
class EchoReply(FlexRanMessage):
    """Keepalive answer from the agent."""

    MSG_TYPE: ClassVar[int] = 3


@dataclass
class ConfigRequest(FlexRanMessage):
    """Synchronous configuration read (Table 1, Configuration)."""

    MSG_TYPE: ClassVar[int] = 4

    scope: str = wire("string", "enb")  # "enb" | "cells" | "ues"


@dataclass
class CellConfigRep:
    """Cell configuration record inside a ConfigReply."""

    cell_id: int = wire("varint")
    n_prb_dl: int = wire("varint", 50)
    n_prb_ul: int = wire("varint", 50)
    band: int = wire("varint", 5)
    antenna_ports: int = wire("varint", 1)
    transmission_mode: int = wire("varint", 1)


@dataclass
class UeConfigRep:
    """UE configuration record inside a ConfigReply."""

    rnti: int = wire("varint")
    imsi: str = wire("string")
    cell_id: int = wire("varint")
    labels: Dict[str, str] = wire("str_map")


@dataclass
class ConfigReply(FlexRanMessage):
    """Full eNodeB configuration snapshot."""

    MSG_TYPE: ClassVar[int] = 5

    enb_id: int = wire("varint")
    cells: List[CellConfigRep] = wire("records", of=CellConfigRep)
    ues: List[UeConfigRep] = wire("records", of=UeConfigRep)


@dataclass
class StatsRequest(FlexRanMessage):
    """Asynchronous statistics subscription (one-off/periodic/triggered)."""

    MSG_TYPE: ClassVar[int] = 7

    report_type: int = wire("varint", int(ReportType.ONE_OFF))
    period_ttis: int = wire("varint", 1)
    flags: int = wire("varint", int(StatsFlags.FULL))


# -- statistics reporting -----------------------------------------------


@dataclass
class UeStatsReport:
    """Per-UE statistics record (the bulk of agent-to-master traffic).

    Mirrors the statistics the paper's agent streams at TTI granularity:
    buffer status per logical channel, wideband and per-subband CQI,
    HARQ process states, RLC/PDCP counters and power headroom.
    """

    rnti: int = wire("varint")
    queues: Dict[int, int] = wire("int_map")
    wb_cqi: int = wire("byte")
    wb_cqi_clear: int = wire("byte")
    subband_cqi: List[int] = wire("uints")
    subband_sinr_db_x10: List[int] = wire("sints")
    harq_states: List[int] = wire("uints")
    ul_buffer_bytes: int = wire("varint")
    power_headroom_db: int = wire("varint")
    rlc_bytes_in: int = wire("varint")
    rlc_bytes_out: int = wire("varint")
    pdcp_tx_bytes: int = wire("varint")
    pdcp_rx_bytes: int = wire("varint")
    rx_bytes_total: int = wire("varint")
    rrc_state: int = wire("byte")
    neighbor_cqi: Dict[int, int] = wire("int_map")


@dataclass
class CellStatsReport:
    """Per-cell aggregate statistics record."""

    cell_id: int = wire("varint")
    n_prb: int = wire("varint")
    connected_ues: int = wire("varint")
    tb_ok: int = wire("varint")
    tb_err: int = wire("varint")
    dl_bytes: int = wire("varint")
    noise_interference_per_prb_x10: List[int] = wire("sints")
    # Cell-wide air-interface occupancy, reported per PRB each TTI as
    # OAI's agent does; fixed-size content that amortizes over UEs and
    # contributes to Fig. 7a's sublinear growth.
    dl_prb_occupancy: List[int] = wire("uints")
    ul_prb_occupancy: List[int] = wire("uints")


@dataclass
class StatsReply(FlexRanMessage):
    """Aggregated statistics report from an agent.

    One message carries *all* UE reports of an eNodeB ("aggregation of
    relevant information in the FlexRAN protocol messages, e.g. list of
    UE status reports"), which is what makes agent-to-master signaling
    grow sublinearly with UE count (Fig. 7a).
    """

    MSG_TYPE: ClassVar[int] = 8
    CATEGORY: ClassVar[str] = Category.STATS

    report_type: int = wire("byte", int(ReportType.PERIODIC))
    #: 1 when ``ue_reports`` covers every attached UE; 0 for a delta
    #: reply that carries only the UEs whose reportable state changed
    #: since the subscription's previous reply.  Cell reports are
    #: always complete either way.
    full: int = wire("byte", 1)
    ue_reports: List[UeStatsReport] = wire("records", of=UeStatsReport)
    cell_reports: List[CellStatsReport] = wire("records", of=CellStatsReport)


# -- synchronization ----------------------------------------------------


@dataclass
class SubframeTrigger(FlexRanMessage):
    """Per-TTI subframe indication keeping the master in sync.

    The master's view of the agent subframe "is always outdated by an
    offset equal to half the RTT delay" (Section 5.3) -- exactly what
    this message's propagation through the emulated link produces.
    """

    MSG_TYPE: ClassVar[int] = 9
    CATEGORY: ClassVar[str] = Category.SYNC

    sfn: int = wire("varint")
    sf: int = wire("byte")


# -- event triggers -----------------------------------------------------


@dataclass
class EventNotification(FlexRanMessage):
    """Asynchronous data-plane event pushed to the master (Table 1)."""

    MSG_TYPE: ClassVar[int] = 10

    event_type: int = wire("byte", int(EventType.UE_ATTACH))
    rnti: int = wire("varint")
    cell_id: int = wire("varint")
    details: Dict[str, str] = wire("str_map")


# -- commands -----------------------------------------------------------


@dataclass
class DciSpec:
    """Wire form of one downlink scheduling decision."""

    rnti: int = wire("varint")
    n_prb: int = wire("varint")
    cqi_used: int = wire("byte")


@dataclass
class DlMacCommand(FlexRanMessage):
    """Centralized scheduling decision for one cell and target TTI."""

    MSG_TYPE: ClassVar[int] = 11
    CATEGORY: ClassVar[str] = Category.COMMANDS

    cell_id: int = wire("varint")
    target_tti: int = wire("varint")
    assignments: List[DciSpec] = wire("records", of=DciSpec)


@dataclass
class UlMacCommand(FlexRanMessage):
    """Centralized uplink-grant decision for one cell and target TTI."""

    MSG_TYPE: ClassVar[int] = 17
    CATEGORY: ClassVar[str] = Category.COMMANDS

    cell_id: int = wire("varint")
    target_tti: int = wire("varint")
    grants: List[DciSpec] = wire("records", of=DciSpec)


@dataclass
class HandoverCommand(FlexRanMessage):
    """Mobility control decision: move a UE to another cell."""

    MSG_TYPE: ClassVar[int] = 12
    CATEGORY: ClassVar[str] = Category.COMMANDS

    rnti: int = wire("varint")
    source_cell: int = wire("varint")
    target_cell: int = wire("varint")


# -- control delegation -------------------------------------------------


@dataclass
class VsfUpdate(FlexRanMessage):
    """Push new VSF code to the agent cache (Section 4.3.1).

    ``blob`` stands in for the compiled shared library of the paper's
    implementation: on this platform it is a serialized constructor
    spec the agent's loader instantiates (see
    :mod:`repro.core.delegation`), padded to a representative size.
    """

    MSG_TYPE: ClassVar[int] = 13

    module: str = wire("string")
    operation: str = wire("string")
    name: str = wire("string")
    blob: bytes = wire("blob")


@dataclass
class PolicyReconfiguration(FlexRanMessage):
    """Swap VSFs / retune their parameters, in YAML (Fig. 3)."""

    MSG_TYPE: ClassVar[int] = 14

    text: str = wire("string")


@dataclass
class DrxCommand(FlexRanMessage):
    """DRX control decision for one UE (Table 1, Commands).

    ``cycle_ttis == 0`` disables DRX.
    """

    MSG_TYPE: ClassVar[int] = 15
    CATEGORY: ClassVar[str] = Category.COMMANDS

    rnti: int = wire("varint")
    cycle_ttis: int = wire("varint")
    on_duration_ttis: int = wire("varint")
    inactivity_ttis: int = wire("varint")


@dataclass
class CaCommand(FlexRanMessage):
    """(De)activate a secondary component carrier for one UE."""

    MSG_TYPE: ClassVar[int] = 16
    CATEGORY: ClassVar[str] = Category.COMMANDS

    rnti: int = wire("varint")
    scell_id: int = wire("varint")
    activate: bool = wire("bool", True)


# -- typed configuration commands ---------------------------------------
#
# These replaced the stringly-typed SetConfig side-channels (comma-joined
# ABS patterns, "rnti:lcid:qci:gbr" packed strings, "on"/"off" flags):
# each configuration intent is its own message with typed fields, so
# malformed values fail at encode time rather than deep in an agent
# handler.  SetConfig itself is gone; its wire id lives in
# RETIRED_MESSAGE_TYPES below so stale frames fail loudly.


@dataclass
class AbsPatternConfig(FlexRanMessage):
    """Install an eICIC Almost-Blank Subframe pattern on one cell."""

    MSG_TYPE: ClassVar[int] = 18
    CATEGORY: ClassVar[str] = Category.COMMANDS

    cell_id: int = wire("varint")
    subframes: List[int] = wire("uints")


@dataclass
class BearerQosConfig(FlexRanMessage):
    """Provision a QoS profile on one radio bearer.

    ``gbr_kbps == 0`` means non-GBR (matching the QCI table's resource
    types); a GBR QCI requires a positive rate.
    """

    MSG_TYPE: ClassVar[int] = 19
    CATEGORY: ClassVar[str] = Category.COMMANDS

    rnti: int = wire("varint")
    lcid: int = wire("varint")
    qci: int = wire("varint", 9)
    gbr_kbps: int = wire("varint")


@dataclass
class SyncConfig(FlexRanMessage):
    """Turn per-TTI subframe synchronization on or off at an agent."""

    MSG_TYPE: ClassVar[int] = 20
    CATEGORY: ClassVar[str] = Category.COMMANDS

    enabled: bool = wire("bool", True)


@dataclass
class PrbCapConfig(FlexRanMessage):
    """Cap (or restore) a cell's usable downlink carrier width.

    The typed replacement for the last string-keyed ``SetConfig`` use
    (``dl_prb_cap``, the LSA spectrum knob): ``capped == False``
    restores the full carrier; otherwise ``n_prb`` PRBs stay usable.
    ``n_prb == 0`` with ``capped`` set fully vacates the shared band.
    """

    MSG_TYPE: ClassVar[int] = 21
    CATEGORY: ClassVar[str] = Category.COMMANDS

    cell_id: int = wire("varint")
    capped: bool = wire("bool")
    n_prb: int = wire("varint")


MESSAGE_TYPES = {
    cls.MSG_TYPE: cls for cls in (
        Hello, EchoRequest, EchoReply, ConfigRequest, ConfigReply,
        StatsRequest, StatsReply, SubframeTrigger, EventNotification,
        DlMacCommand, HandoverCommand, VsfUpdate, PolicyReconfiguration,
        DrxCommand, CaCommand, UlMacCommand, AbsPatternConfig,
        BearerQosConfig, SyncConfig, PrbCapConfig)
}
"""Wire discriminator -> message class registry."""

RETIRED_MESSAGE_TYPES = {
    6: "SetConfig",
}
"""Wire discriminators this protocol used to assign and has removed.

Decoding one of these raises
:class:`~repro.core.protocol.errors.RetiredMessageType` naming the old
message, so a frame from a pre-removal controller fails with a clear
upgrade hint instead of a generic unknown-type error.  The ids are
never reassigned.
"""
