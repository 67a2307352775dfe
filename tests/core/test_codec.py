"""Tests for message framing: every message type round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.core.protocol import codec
from repro.core.protocol.errors import (
    DecodeError,
    EncodeError,
    UnknownMessageType,
)
from repro.core.protocol.messages import (
    MESSAGE_TYPES,
    AbsPatternConfig,
    BearerQosConfig,
    SyncConfig,
    CaCommand,
    DrxCommand,
    UlMacCommand,
    CellConfigRep,
    CellStatsReport,
    ConfigReply,
    ConfigRequest,
    DciSpec,
    DlMacCommand,
    EchoReply,
    EchoRequest,
    EventNotification,
    HandoverCommand,
    Header,
    Hello,
    PolicyReconfiguration,
    PrbCapConfig,
    StatsReply,
    StatsRequest,
    SubframeTrigger,
    UeConfigRep,
    UeStatsReport,
    VsfUpdate,
)

EXAMPLES = [
    Hello(header=Header(agent_id=3, xid=1, tti=0),
          capabilities=["mac", "rrc"], n_cells=2),
    EchoRequest(header=Header(xid=5)),
    EchoReply(header=Header(xid=5)),
    ConfigRequest(header=Header(xid=2), scope="ues"),
    ConfigReply(header=Header(agent_id=1), enb_id=7,
                cells=[CellConfigRep(cell_id=10, n_prb_dl=50)],
                ues=[UeConfigRep(rnti=70, imsi="001", cell_id=10,
                                 labels={"operator": "mno"})]),
    PrbCapConfig(header=Header(), cell_id=10, capped=True, n_prb=25),
    StatsRequest(header=Header(xid=9), report_type=1, period_ttis=2,
                 flags=0x3F),
    StatsReply(header=Header(agent_id=1, tti=99), report_type=1,
               ue_reports=[UeStatsReport(
                   rnti=70, queues={1: 0, 3: 5000}, wb_cqi=12,
                   wb_cqi_clear=14, subband_cqi=[12] * 9,
                   subband_sinr_db_x10=[-35, 120] * 4 + [0],
                   harq_states=[0, 1, 2, 0, 0, 0, 0, 0],
                   ul_buffer_bytes=123, power_headroom_db=20,
                   rlc_bytes_in=10 ** 6, rlc_bytes_out=999999,
                   pdcp_tx_bytes=10 ** 6, pdcp_rx_bytes=10 ** 6,
                   rx_bytes_total=10 ** 7, rrc_state=3,
                   neighbor_cqi={20: 9})],
               cell_reports=[CellStatsReport(
                   cell_id=10, n_prb=50, connected_ues=1, tb_ok=5,
                   tb_err=1, dl_bytes=12345,
                   noise_interference_per_prb_x10=[-1050] * 50)]),
    SubframeTrigger(header=Header(agent_id=1, tti=1234), sfn=123, sf=4),
    EventNotification(header=Header(agent_id=1), event_type=0, rnti=70,
                      cell_id=10, details={"imsi": "001"}),
    DlMacCommand(header=Header(xid=77), cell_id=10, target_tti=5000,
                 assignments=[DciSpec(rnti=70, n_prb=25, cqi_used=12),
                              DciSpec(rnti=71, n_prb=25, cqi_used=7)]),
    HandoverCommand(header=Header(), rnti=70, source_cell=10,
                    target_cell=20),
    VsfUpdate(header=Header(), module="mac", operation="dl_scheduling",
              name="pf", blob=b"\x01\x02" * 100),
    PolicyReconfiguration(header=Header(), text="mac:\n  - vsf: x\n"),
    DrxCommand(header=Header(), rnti=70, cycle_ttis=80,
               on_duration_ttis=8, inactivity_ttis=10),
    CaCommand(header=Header(), rnti=70, scell_id=11, activate=False),
    UlMacCommand(header=Header(xid=3), cell_id=10, target_tti=700,
                 grants=[DciSpec(rnti=70, n_prb=20, cqi_used=9)]),
    AbsPatternConfig(header=Header(xid=4), cell_id=10,
                     subframes=[1, 3, 5, 7]),
    BearerQosConfig(header=Header(xid=5), rnti=70, lcid=3, qci=1,
                    gbr_kbps=1500),
    SyncConfig(header=Header(xid=6), enabled=True),
]


@pytest.mark.parametrize("message", EXAMPLES,
                         ids=[type(m).__name__ for m in EXAMPLES])
def test_roundtrip(message):
    frame = codec.encode(message)
    assert codec.decode(frame) == message
    assert codec.encoded_size(message) == len(frame)


def test_all_message_types_covered():
    tested = {type(m) for m in EXAMPLES}
    assert tested == set(MESSAGE_TYPES.values())


def test_type_ids_unique():
    assert len(MESSAGE_TYPES) == len(set(MESSAGE_TYPES))


def test_empty_frame_rejected():
    with pytest.raises(DecodeError):
        codec.decode(b"")


def test_unknown_type_rejected():
    with pytest.raises(UnknownMessageType):
        codec.decode(bytes([250, 0, 0, 0]))


def test_trailing_garbage_rejected():
    frame = codec.encode(EchoReply()) + b"\x00"
    with pytest.raises(DecodeError):
        codec.decode(frame)


def test_overlong_varint_rejected():
    # EchoReply whose agent id runs 11 continuation-marked bytes.
    with pytest.raises(DecodeError, match="longer than 10 bytes"):
        codec.decode(bytes([3]) + b"\x80" * 10 + b"\x01\x00\x00")
    # Ten bytes is the limit and still decodes.
    frame = bytes([3]) + b"\xff" * 9 + b"\x7f\x00\x00"
    assert codec.decode(frame).header.agent_id == 2 ** 70 - 1


@pytest.mark.parametrize("message", EXAMPLES,
                         ids=lambda m: type(m).__name__)
def test_every_truncation_is_a_decode_error(message):
    frame = codec.encode(message)
    for cut in range(1, len(frame)):
        with pytest.raises(DecodeError):
            codec.decode(frame[:cut])


def test_out_of_range_fields_raise_encode_error():
    with pytest.raises(EncodeError):
        codec.encode(EchoReply(header=Header(xid=-1)))
    with pytest.raises(EncodeError):
        codec.encode(EchoReply(header=Header(tti=2 ** 70)))
    with pytest.raises(EncodeError):
        codec.encode(SubframeTrigger(sf=256))
    with pytest.raises(EncodeError):
        codec.encode(StatsReply(ue_reports=[
            UeStatsReport(subband_sinr_db_x10=[1, -(2 ** 69) - 1])]))


def test_unregistered_class_rejected():
    class Private(EchoReply):
        pass
    with pytest.raises(EncodeError):
        codec.encode(Private())


def test_record_roundtrip():
    record = UeStatsReport(rnti=70, queues={3: 5000, 1: 2},
                           subband_sinr_db_x10=[-1050] * 13,
                           rx_bytes_total=2 ** 40)
    data = codec.encode_record(record)
    assert codec.decode_record(UeStatsReport, data) == record
    with pytest.raises(DecodeError):
        codec.decode_record(UeStatsReport, data + b"\x00")
    with pytest.raises(DecodeError):
        codec.decode_record(UeStatsReport, data[:-1])


def test_aggregation_is_sublinear():
    """One 50-UE report is much smaller than 50 one-UE reports --
    the aggregation effect behind Fig. 7a's sublinear growth."""

    def report(n):
        return StatsReply(ue_reports=[
            UeStatsReport(rnti=70 + i, queues={3: 10 ** 6}, wb_cqi=12,
                          subband_cqi=[12] * 9,
                          subband_sinr_db_x10=[200] * 9,
                          harq_states=[0] * 8, rx_bytes_total=10 ** 8)
            for i in range(n)])

    one_big = codec.encoded_size(report(50))
    many_small = 50 * codec.encoded_size(report(1))
    assert one_big < many_small


@given(st.lists(st.integers(min_value=1, max_value=0xFFF0), max_size=20),
       st.integers(min_value=0, max_value=10 ** 7))
def test_dl_command_roundtrip_property(rntis, target):
    cmd = DlMacCommand(
        header=Header(agent_id=1, xid=2, tti=3),
        cell_id=10, target_tti=target,
        assignments=[DciSpec(rnti=r, n_prb=1 + (r % 50), cqi_used=r % 16)
                     for r in rntis])
    assert codec.decode(codec.encode(cmd)) == cmd
