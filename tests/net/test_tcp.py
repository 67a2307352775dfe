"""Tests for the real asyncio TCP transport (repro.net.tcp)."""

import time

import pytest

from repro.core.protocol.messages import (
    EchoReply,
    EchoRequest,
    Header,
    StatsReply,
    UeStatsReport,
)
from repro.net.tcp import (
    FrameDecoder,
    TcpConnectionFabric,
    TcpControlConnection,
    TransportClosed,
    decode_envelope,
    encode_envelope,
    encode_varint,
)


class TestFraming:
    def test_envelope_roundtrip(self):
        deliver_tti, frame = decode_envelope(
            encode_envelope(1234, b"\x01payload")[1:])
        assert deliver_tti == 1234
        assert frame == b"\x01payload"

    def test_varint_matches_known_encoding(self):
        assert encode_varint(0) == b"\x00"
        assert encode_varint(127) == b"\x7f"
        assert encode_varint(128) == b"\x80\x01"

    def test_negative_varint_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_decoder_whole_stream(self):
        stream = encode_envelope(7, b"aaa") + encode_envelope(8, b"bb")
        bodies = FrameDecoder().feed(stream)
        assert [decode_envelope(b) for b in bodies] == [
            (7, b"aaa"), (8, b"bb")]

    def test_decoder_byte_by_byte(self):
        """Any kernel chunking must parse, even one byte at a time."""
        stream = encode_envelope(300, b"x" * 200) + encode_envelope(301, b"y")
        decoder = FrameDecoder()
        bodies = []
        for i in range(len(stream)):
            bodies.extend(decoder.feed(stream[i:i + 1]))
        assert [decode_envelope(b) for b in bodies] == [
            (300, b"x" * 200), (301, b"y")]

    def test_decoder_split_length_varint(self):
        """A length prefix split across reads must reassemble."""
        envelope = encode_envelope(5, b"z" * 500)  # 2-byte length varint
        decoder = FrameDecoder()
        assert decoder.feed(envelope[:1]) == []
        bodies = decoder.feed(envelope[1:])
        assert decode_envelope(bodies[0]) == (5, b"z" * 500)

    def test_decoder_rejects_oversized_frame(self):
        decoder = FrameDecoder(max_frame_bytes=16)
        with pytest.raises(ValueError, match="frame limit"):
            decoder.feed(encode_envelope(0, b"q" * 64))

    def test_truncated_deliver_tti_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_envelope(b"\x80")  # continuation bit, no next byte


@pytest.fixture
def fabric():
    fab = TcpConnectionFabric()
    yield fab
    fab.close()


class TestTcpControlConnection:
    """The ControlConnection contract, over a real kernel socket."""

    def test_roundtrip_agent_to_master(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        msg = StatsReply(header=Header(agent_id=1, xid=9, tti=42),
                         ue_reports=[UeStatsReport(rnti=70, wb_cqi=12)])
        size = conn.agent_side.send(msg, now=0)
        assert size > 0
        conn.flush_uplink(0)
        received = conn.master_side.receive(now=0)
        assert received == [msg]

    def test_roundtrip_master_to_agent(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.master_side.send(EchoRequest(header=Header(xid=1)), now=0)
        conn.flush_downlink(0)
        got = conn.agent_side.receive(now=0)
        assert isinstance(got[0], EchoRequest)

    def test_latency_applies_both_ways(self, fabric):
        conn = TcpControlConnection(fabric, 1, rtt_ms=10)
        conn.agent_side.send(EchoReply(), now=0)
        for tti in range(5):
            conn.flush_uplink(tti)
        assert conn.master_side.receive(now=4) == []
        conn.flush_uplink(5)
        assert len(conn.master_side.receive(now=5)) == 1

    def test_fault_injection_drops_frames(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.partition(0, 10)
        conn.agent_side.send(EchoReply(), now=1)
        conn.flush_uplink(1)
        assert conn.master_side.receive(now=1) == []
        assert conn.dropped_messages() == 1

    def test_partition_drops_in_flight(self, fabric):
        conn = TcpControlConnection(fabric, 1, rtt_ms=10)
        conn.agent_side.send(EchoReply(), now=0)  # due at TTI 5
        conn.partition(2, 8)
        for tti in range(10):
            conn.flush_uplink(tti)
        assert conn.master_side.receive(now=9) == []
        assert conn.channel.uplink.dropped_messages == 1

    def test_counters_match_emulated_contract(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.agent_side.send(EchoReply(), now=0)
        conn.flush_uplink(0)
        conn.master_side.receive(now=0)
        assert conn.agent_side.sent_messages == 1
        assert conn.master_side.received_messages == 1
        assert conn.channel.uplink.total_messages == 1
        assert conn.channel.uplink.delivered_messages == 1

    def test_set_rtt_runtime(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.set_rtt_ms(40)
        assert conn.rtt_ttis == 40

    def test_many_frames_preserve_order(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        for i in range(200):
            conn.agent_side.send(
                StatsReply(header=Header(agent_id=1, xid=i, tti=0)),
                now=0)
        conn.flush_uplink(0)
        received = conn.master_side.receive(now=0)
        assert [m.header.xid for m in received] == list(range(200))

    def test_duplicate_agent_id_rejected(self, fabric):
        TcpControlConnection(fabric, 1)
        with pytest.raises(ValueError, match="already"):
            TcpControlConnection(fabric, 1)

    def test_two_connections_are_isolated(self, fabric):
        first = TcpControlConnection(fabric, 1)
        second = TcpControlConnection(fabric, 2)
        first.agent_side.send(EchoReply(header=Header(agent_id=1)), now=0)
        first.flush_uplink(0)
        second.flush_uplink(0)
        assert second.master_side.receive(now=0) == []
        assert len(first.master_side.receive(now=0)) == 1


class TestStreamingMode:
    """Cluster-mode endpoints: immediate dispatch, stamp-gated receive."""

    def test_streaming_send_needs_no_flush(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.agent_side.streaming = True
        conn.agent_side.send(EchoReply(), now=3)
        conn.master_side.wait_parsed(1)
        # Stamp gating: not deliverable before the sender's TTI.
        assert conn.master_side.receive(now=2) == []
        assert len(conn.master_side.receive(now=3)) == 1

    def test_pending_frames_visible(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        conn.agent_side.streaming = True
        conn.agent_side.send(EchoReply(), now=7)
        conn.master_side.wait_parsed(1)
        assert conn.master_side.pending_frames() == 1
        conn.master_side.receive(now=7)
        assert conn.master_side.pending_frames() == 0

    def test_wait_parsed_reports_count_on_timeout(self, fabric):
        conn = TcpControlConnection(fabric, 1)
        with pytest.raises(TransportClosed, match="0/1 frames"):
            conn.master_side.wait_parsed(1, timeout=0.1)

    def test_wait_parsed_stops_when_connection_closes(self, fabric):
        """A closed connection ends the wait at once, not at the
        timeout: frames still owed will never arrive."""
        conn = TcpControlConnection(fabric, 1)
        conn.agent_side.close()
        started = time.monotonic()
        with pytest.raises(TransportClosed, match="connection closed"):
            conn.master_side.wait_parsed(1, timeout=30.0)
        assert time.monotonic() - started < 5.0

    def test_send_after_peer_closed_drops_like_a_failed_link(self, fabric):
        """A master must survive a dead agent's connection: sending on
        it drops the frame instead of raising, and ``connected`` is the
        signal its owner reads."""
        conn = TcpControlConnection(fabric, 1)
        conn.master_side.streaming = True
        conn.agent_side.close()
        deadline = time.monotonic() + 5.0
        while conn.master_side.connected and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not conn.master_side.connected
        conn.master_side.send(EchoRequest(header=Header(xid=1)), now=0)
        assert conn.master_side.frames_dispatched == 0
