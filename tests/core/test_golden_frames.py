"""Golden wire frames: the exact bytes of one frame per message type.

Round-trip tests cannot catch a codec change that alters encode and
decode symmetrically (a reordered field, a different list framing, a
changed zigzag); these frames pin the bytes themselves.  The cases
cover multi-byte varints and varints at or above 2^63, negative
svarints, uniform 2-byte and mixed-width lists, empty and multi-key
maps (encoded in sorted-key order whatever the insertion order), and
non-ASCII strings and blobs.
"""

import pytest

from repro.core.protocol import codec
from repro.core.protocol.messages import (
    MESSAGE_TYPES,
    AbsPatternConfig,
    BearerQosConfig,
    CaCommand,
    CellConfigRep,
    CellStatsReport,
    ConfigReply,
    ConfigRequest,
    DciSpec,
    DlMacCommand,
    DrxCommand,
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
    SyncConfig,
    UeConfigRep,
    UeStatsReport,
    UlMacCommand,
    VsfUpdate,
)

BIG = 2 ** 63 + 12345            # needs the full 64-bit range
HUGE = 2 ** 70 - 1               # largest 10-byte varint

CASES = {
    "Hello": Hello(header=Header(agent_id=BIG, xid=300, tti=16384),
                   capabilities=["mac", "rrc-é", "日本"], n_cells=129),
    "EchoRequest": EchoRequest(header=Header(agent_id=1, xid=HUGE, tti=0)),
    "EchoReply": EchoReply(header=Header(agent_id=127, xid=128, tti=2 ** 21)),
    "ConfigRequest": ConfigRequest(header=Header(xid=7), scope="ués"),
    "ConfigReply": ConfigReply(
        header=Header(agent_id=2, xid=3, tti=4), enb_id=70000,
        cells=[CellConfigRep(cell_id=10, n_prb_dl=100, n_prb_ul=50, band=7,
                             antenna_ports=2, transmission_mode=3),
               CellConfigRep(cell_id=300)],
        ues=[UeConfigRep(rnti=70, imsi="001010000000001", cell_id=10,
                         labels={"slice": "mvno-b", "operator": "mno",
                                 "ñ": "ü"}),
             UeConfigRep(rnti=16384, imsi="", cell_id=300, labels={})]),
    "StatsRequest": StatsRequest(header=Header(xid=9), report_type=1,
                                 period_ttis=1000, flags=0x3F),
    "StatsReply": StatsReply(
        header=Header(agent_id=1, xid=0, tti=99), report_type=1, full=0,
        ue_reports=[
            UeStatsReport(
                rnti=70, queues={3: 5000, 1: 0, 2: 2 ** 40}, wb_cqi=12,
                wb_cqi_clear=15, subband_cqi=[12] * 13,
                subband_sinr_db_x10=[216] * 13,
                harq_states=[0, 1, 2, 0, 0, 0, 0, 1],
                ul_buffer_bytes=123, power_headroom_db=20,
                rlc_bytes_in=10 ** 6, rlc_bytes_out=999999,
                pdcp_tx_bytes=BIG, pdcp_rx_bytes=0,
                rx_bytes_total=10 ** 7, rrc_state=3,
                neighbor_cqi={9: 4, 2: 11}),
            UeStatsReport(
                rnti=71, queues={}, wb_cqi=0, wb_cqi_clear=255,
                subband_cqi=[1, 200, 70000, 2 ** 63],
                subband_sinr_db_x10=[-35, 120, -1050, 64, -64, -65, 0],
                harq_states=[], neighbor_cqi={}),
            UeStatsReport(
                rnti=72, queues={1: 16383},
                subband_cqi=[300, 301, 16383, 128],
                subband_sinr_db_x10=[-64, 63, -1, 0]),
        ],
        cell_reports=[CellStatsReport(
            cell_id=10, n_prb=25, connected_ues=3, tb_ok=123456,
            tb_err=7, dl_bytes=BIG,
            noise_interference_per_prb_x10=[-1050] * 25,
            dl_prb_occupancy=[1] * 10 + [0] * 15,
            ul_prb_occupancy=[])]),
    "SubframeTrigger": SubframeTrigger(header=Header(agent_id=3, tti=1023),
                                       sfn=1023, sf=9),
    "EventNotification": EventNotification(
        header=Header(agent_id=4, xid=12), event_type=6, rnti=1000,
        cell_id=2, details={"reason": "crash ✗", "app": "x", "b": ""}),
    "DlMacCommand": DlMacCommand(
        header=Header(agent_id=1, xid=77, tti=500), cell_id=0,
        target_tti=502,
        assignments=[DciSpec(rnti=70, n_prb=25, cqi_used=12),
                     DciSpec(rnti=16500, n_prb=128, cqi_used=255)]),
    "HandoverCommand": HandoverCommand(header=Header(xid=1), rnti=BIG,
                                       source_cell=0, target_cell=1),
    "VsfUpdate": VsfUpdate(header=Header(agent_id=5), module="mac",
                           operation="dl_scheduling", name="pf-é",
                           blob=b"\x00\xff\x80\x7fcfg" + "ü".encode()),
    "PolicyReconfiguration": PolicyReconfiguration(
        header=Header(agent_id=5, xid=2),
        text="mac:\n  - dl_scheduling:\n      behavior: pf  # ✓\n"),
    "DrxCommand": DrxCommand(header=Header(xid=8), rnti=70, cycle_ttis=320,
                             on_duration_ttis=10, inactivity_ttis=200),
    "CaCommand": CaCommand(header=Header(xid=9), rnti=70, scell_id=1,
                           activate=False),
    "UlMacCommand": UlMacCommand(
        header=Header(agent_id=1, xid=78, tti=500), cell_id=300,
        target_tti=504, grants=[DciSpec(rnti=70, n_prb=6, cqi_used=7)]),
    "AbsPatternConfig": AbsPatternConfig(header=Header(xid=10), cell_id=1,
                                         subframes=[1, 3, 5, 7, 9]),
    "BearerQosConfig": BearerQosConfig(header=Header(xid=11), rnti=70,
                                       lcid=3, qci=1, gbr_kbps=256),
    "SyncConfig": SyncConfig(header=Header(xid=12), enabled=False),
    "PrbCapConfig": PrbCapConfig(header=Header(xid=13), cell_id=10,
                                 capped=True, n_prb=0),
}

GOLDEN = {
    "Hello": (
        "01b9e08080808080808001ac0280800103036d6163067272632dc3a906e697a5"
        "e69cac8101"
    ),
    "EchoRequest": "0201ffffffffffffffffff7f00",
    "EchoReply": "037f800180808001",
    "ConfigRequest": "040007000475c3a973",
    "ConfigReply": (
        "05020304f0a204020a6432070203ac02323205010102460f3030313031303030"
        "303030303030310a03086f70657261746f72036d6e6f05736c696365066d766e"
        "6f2d6202c3b102c3bc80800100ac0200"
    ),
    "StatsRequest": "0700090001e8073f",
    "StatsReply": (
        "0801006301000346030100028080808080200388270c0f0d0c0c0c0c0c0c0c0c"
        "0c0c0c0c0c0db003b003b003b003b003b003b003b003b003b003b003b003b003"
        "0800010200000000017b14c0843dbf843db9e080808080808080010080ade204"
        "0302020b0904470000ff0401c801f0a204808080808080808080010745f001b3"
        "1080017f81010000000000000000000000480101ff7f000004ac02ad02ff7f80"
        "01047f7e010000000000000000000000010a1903c0c40707b9e0808080808080"
        "800119b310b310b310b310b310b310b310b310b310b310b310b310b310b310b3"
        "10b310b310b310b310b310b310b310b310b310b3101901010101010101010101"
        "00000000000000000000000000000000"
    ),
    "SubframeTrigger": "090300ff07ff0709",
    "EventNotification": (
        "0a040c0006e807020303617070017801620006726561736f6e09637261736820"
        "e29c97"
    ),
    "DlMacCommand": "0b014df40300f6030246190cf480018001ff",
    "HandoverCommand": "0c000100b9e080808080808080010001",
    "VsfUpdate": (
        "0d050000036d61630d646c5f7363686564756c696e670570662dc3a90900ff80"
        "7f636667c3bc"
    ),
    "PolicyReconfiguration": (
        "0e050200326d61633a0a20202d20646c5f7363686564756c696e673a0a202020"
        "2020206265686176696f723a20706620202320e29c930a"
    ),
    "DrxCommand": "0f00080046c0020ac801",
    "CaCommand": "10000900460100",
    "UlMacCommand": "11014ef403ac02f80301460607",
    "AbsPatternConfig": "12000a0001050103050709",
    "BearerQosConfig": "13000b004603018002",
    "SyncConfig": "14000c0000",
    "PrbCapConfig": "15000d000a0100",
}


def test_every_message_type_has_a_golden_frame():
    assert {type(m) for m in CASES.values()} == set(MESSAGE_TYPES.values())
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_encode_matches_golden(name):
    assert codec.encode(CASES[name]).hex() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_decode_golden(name):
    decoded = codec.decode(bytes.fromhex(GOLDEN[name]))
    assert type(decoded) is type(CASES[name])
    assert decoded == CASES[name]
