"""Real asyncio TCP transport for the master--agent control channel.

The paper's deployment speaks the FlexRAN protocol over plain TCP; this
module provides that transport for the reproduction, carrying exactly
the frames :mod:`repro.core.protocol.codec` produces today.  On the
wire every frame travels inside a length-prefixed envelope::

    [varint envelope length][varint deliver TTI][codec frame]

The deliver-TTI stamp is transport metadata (the TTI at which the
sender released the frame); the codec frame is byte-identical to what
the emulated link carries, so signaling accounting and the decode path
are unchanged.

Each connection runs one asyncio *reader task* (parses envelopes into
the receiving endpoint's inbox) and one *writer task* (drains a bounded
send queue to the socket).  The send queue applies real backpressure:
when it is full, the sending thread blocks until the writer task has
flushed room free, so a slow peer throttles its producer instead of
growing an unbounded buffer.

Two operating modes share this machinery:

* **Lockstep** (:class:`TcpControlConnection`): agent and master live
  in one process and tick the same :class:`~repro.net.clock.SimClock`.
  An :class:`~repro.net.link.EmulatedLink` pair acts as the *schedule
  shadow*: ``send`` enqueues the encoded frame into the shadow exactly
  as the emulated transport does (same latency, jitter, loss,
  partition and accounting semantics -- the full netem repertoire),
  and a per-TTI flush pops the frames that became deliverable and
  ships them through the kernel TCP stack, then waits until the peer
  has parsed them.  Every existing scenario, fault injector and obs
  instrument therefore runs unchanged on either transport.

* **Streaming** (cluster mode): agent and master live in different
  processes with independent clocks.  ``send`` dispatches immediately;
  the receiver holds arrived frames until its own clock reaches the
  deliver stamp, which keeps RIB application causally ordered even
  when a worker runs ahead of the master's tick point.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.net.link import DuplexChannel, EmulatedLink
from repro.net.transport import ProtocolEndpoint

logger = logging.getLogger(__name__)

MAX_FRAME_BYTES = 1 << 24
"""Upper bound on one envelope; a peer exceeding it is protocol-broken."""

PREAMBLE_MAGIC = 0x464C52  # "FLR"
"""First varint of a connection's preamble envelope."""

DEFAULT_SEND_QUEUE_FRAMES = 1024
"""Bounded send-queue depth (frames) before the producer blocks."""

SEND_BLOCK_TIMEOUT_S = 30.0
"""How long a producer may block on a full send queue before the
connection is declared wedged."""

CLOSE_POLL_S = 0.05
"""How often :meth:`TcpEndpoint.wait_parsed` re-checks for a closed
connection while it waits for frames."""


class TransportClosed(RuntimeError):
    """The TCP connection is gone (peer exited or transport shut down)."""


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_varint(value: int) -> bytes:
    """LEB128, the same encoding the protocol codec uses for fields."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_envelope(deliver_tti: int, frame: bytes) -> bytes:
    """Wrap one codec frame in the length-prefixed wire envelope."""
    body = encode_varint(deliver_tti) + frame
    return encode_varint(len(body)) + body


def decode_envelope(body: bytes) -> Tuple[int, bytes]:
    """Split an envelope body into (deliver_tti, codec frame)."""
    value = 0
    shift = 0
    for i, byte in enumerate(body):
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, bytes(body[i + 1:])
        shift += 7
    raise ValueError("truncated deliver-TTI varint in envelope")


class FrameDecoder:
    """Incremental length-prefix parser over an arbitrary byte stream.

    ``feed`` accepts any chunking the kernel hands us -- a length varint
    split across reads, many envelopes in one read -- and yields
    complete envelope bodies in order.
    """

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max = max_frame_bytes

    def feed(self, data: bytes) -> List[bytes]:
        self._buffer.extend(data)
        bodies: List[bytes] = []
        while True:
            parsed = self._try_parse_one()
            if parsed is None:
                return bodies
            bodies.append(parsed)

    def _try_parse_one(self) -> Optional[bytes]:
        buf = self._buffer
        length = 0
        shift = 0
        offset = 0
        for offset, byte in enumerate(buf):
            length |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 70:
                raise ValueError("oversized length varint in TCP stream")
        else:
            return None  # length varint incomplete (or empty buffer)
        if length > self._max:
            raise ValueError(
                f"envelope of {length} bytes exceeds the "
                f"{self._max}-byte frame limit")
        start = offset + 1
        if len(buf) - start < length:
            return None  # body not fully arrived yet
        body = bytes(buf[start:start + length])
        del buf[:start + length]
        return body


# ---------------------------------------------------------------------------
# The event-loop host
# ---------------------------------------------------------------------------


class TcpHub:
    """One asyncio loop on a daemon thread hosting every TCP transport
    object (server, connections) of this process.

    The simulation / controller thread talks to the loop only through
    ``call_soon_threadsafe`` and :meth:`call` (a blocking
    ``run_coroutine_threadsafe`` bridge), mirroring the northbound
    server's threading discipline.
    """

    def __init__(self, *, name: str = "tcp-hub") -> None:
        self.name = name
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise TransportClosed("TCP hub is not running")
        return self._loop

    @property
    def running(self) -> bool:
        return self._loop is not None

    def start(self) -> "TcpHub":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._run, name=self.name,
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("TCP hub failed to start in time")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()

    def call(self, coro, *, timeout: float = 10.0):
        """Run *coro* on the loop; block the caller for the result."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout)

    def stop(self) -> None:
        loop = self._loop
        thread = self._thread
        if loop is None:
            return
        self._loop = None
        self._thread = None
        self._ready.clear()

        def _shutdown() -> None:
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.call_soon(loop.stop)

        try:
            loop.call_soon_threadsafe(_shutdown)
        except RuntimeError:
            return
        if thread is not None:
            thread.join(5.0)


# ---------------------------------------------------------------------------
# Per-connection reader/writer machinery
# ---------------------------------------------------------------------------


class _SocketPeer:
    """Loop-side half of one TCP connection.

    Owns the reader task (stream -> :class:`FrameDecoder` ->
    ``on_body`` callback) and the writer task (bounded queue ->
    socket).  ``send_body`` is the only cross-thread producer entry;
    its :class:`threading.BoundedSemaphore` is the backpressure gate.
    """

    def __init__(self, hub: TcpHub, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *,
                 on_body: Callable[[bytes], None],
                 queue_frames: int = DEFAULT_SEND_QUEUE_FRAMES,
                 label: str = "conn") -> None:
        self.hub = hub
        self.label = label
        self._reader = reader
        self._writer = writer
        self._on_body = on_body
        self._slots = threading.BoundedSemaphore(queue_frames)
        self._pending: Deque[bytes] = deque()
        self._wake = asyncio.Event()
        self.closed = threading.Event()
        self.backpressure_waits = 0
        self._tasks: List[asyncio.Task] = []

    def start(self) -> None:
        loop = self.hub.loop
        self._tasks = [
            loop.create_task(self._read_loop(), name=f"{self.label}-rd"),
            loop.create_task(self._write_loop(), name=f"{self.label}-wr"),
        ]

    # -- producer side (any thread) ---------------------------------------

    def send_body(self, body: bytes) -> bool:
        """Enqueue one already-enveloped blob; blocks when the queue is
        full until the writer task frees a slot (backpressure).

        Returns False, and drops the blob, once the connection has
        closed: like a failed link, a lost peer takes nothing more.
        """
        if self.closed.is_set():
            return False
        if not self._slots.acquire(blocking=False):
            self.backpressure_waits += 1
            if not self._slots.acquire(timeout=SEND_BLOCK_TIMEOUT_S):
                raise TransportClosed(
                    f"{self.label}: send queue wedged for "
                    f"{SEND_BLOCK_TIMEOUT_S:.0f}s")
        try:
            self.hub.loop.call_soon_threadsafe(self._enqueue, body)
        except RuntimeError:
            self._slots.release()
            raise TransportClosed(f"{self.label}: transport stopped") from None
        return True

    def _enqueue(self, body: bytes) -> None:
        self._pending.append(body)
        self._wake.set()

    # -- loop side ---------------------------------------------------------

    async def _write_loop(self) -> None:
        try:
            while True:
                await self._wake.wait()
                self._wake.clear()
                while self._pending:
                    body = self._pending.popleft()
                    self._writer.write(body)
                    self._slots.release()
                await self._writer.drain()
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        finally:
            self._shut()

    async def _read_loop(self) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await self._reader.read(65536)
                if not data:
                    break
                for body in decoder.feed(data):
                    self._on_body(body)
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        except ValueError as exc:
            logger.error("%s: broken TCP stream: %s", self.label, exc)
        finally:
            self._shut()

    def _shut(self) -> None:
        if self.closed.is_set():
            return
        self.closed.set()
        try:
            self._writer.close()
        except Exception:  # noqa: BLE001 - best-effort close
            pass

    def close(self) -> None:
        """Cancel both tasks and close the socket (any thread)."""
        self.closed.set()
        loop = self.hub._loop
        if loop is None:
            return

        def _cancel() -> None:
            for task in self._tasks:
                task.cancel()
            try:
                self._writer.close()
            except Exception:  # noqa: BLE001
                pass
        try:
            loop.call_soon_threadsafe(_cancel)
        except RuntimeError:
            pass


# ---------------------------------------------------------------------------
# Endpoints
# ---------------------------------------------------------------------------


class TcpEndpoint(ProtocolEndpoint):
    """A :class:`ProtocolEndpoint` whose frames traverse a real TCP
    connection.

    The *outbound* :class:`EmulatedLink` is retained as the schedule
    shadow -- `send` runs the identical encode/accounting/fault path as
    the emulated transport -- but delivery happens by shipping the
    frames the shadow releases through the socket, and ``receive``
    drains the inbox the peer's reader task fills.
    """

    def __init__(self, outbound: EmulatedLink, inbound: EmulatedLink, *,
                 peer: str = "", tx_direction: str = "",
                 rx_direction: str = "", streaming: bool = False) -> None:
        super().__init__(outbound, inbound, peer=peer,
                         tx_direction=tx_direction,
                         rx_direction=rx_direction)
        self.streaming = streaming
        self._sock: Optional[_SocketPeer] = None
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._inbox: Deque[Tuple[int, bytes]] = deque()
        self.frames_dispatched = 0
        self.frames_parsed = 0

    # -- wiring ------------------------------------------------------------

    def attach_socket(self, sock: _SocketPeer) -> None:
        self._sock = sock

    @property
    def connected(self) -> bool:
        return self._sock is not None and not self._sock.closed.is_set()

    # -- send path ---------------------------------------------------------

    def send(self, message, *, now: int) -> int:
        size = super().send(message, now=now)
        if self.streaming:
            self.transmit_due(now)
        return size

    def transmit_due(self, now: int) -> int:
        """Ship every shadow-released frame through the socket.

        Returns the number of frames dispatched.  Frames the shadow is
        still holding (latency not elapsed), dropped (loss, down link)
        or that it discarded in flight (partition) never touch the
        socket -- identical loss semantics to the emulated transport.
        A closed connection drops its frames too; the endpoint's owner
        notices the loss through :attr:`connected`.
        """
        frames = self._outbound.deliver_due(now)
        if not frames:
            return 0
        sock = self._sock
        if sock is None:
            raise TransportClosed(f"{self.peer}: endpoint has no socket")
        sent = sum(sock.send_body(encode_envelope(now, frame))
                   for frame in frames)
        self.frames_dispatched += sent
        return sent

    # -- receive path ------------------------------------------------------

    def on_envelope(self, body: bytes) -> None:
        """Reader-task callback: park one parsed envelope in the inbox."""
        deliver_tti, frame = decode_envelope(body)
        with self._arrived:
            self._inbox.append((deliver_tti, frame))
            self.frames_parsed += 1
            self._arrived.notify_all()

    def receive(self, *, now: int) -> list:
        frames: List[bytes] = []
        with self._lock:
            inbox = self._inbox
            while inbox and inbox[0][0] <= now:
                frames.append(inbox.popleft()[1])
        return self._decode_frames(frames, now)

    def wait_parsed(self, target: int, *, timeout: float = 10.0) -> None:
        """Block until this endpoint has parsed >= *target* frames.

        Raises :class:`TransportClosed` with the count mismatch if the
        connection closes first or *timeout* seconds pass.
        """
        deadline = time.monotonic() + timeout
        with self._arrived:
            while self.frames_parsed < target:
                left = deadline - time.monotonic()
                closed = (self._sock is not None
                          and self._sock.closed.is_set())
                if left <= 0 or closed:
                    raise TransportClosed(
                        f"{self.peer}: peer delivered {self.frames_parsed}/"
                        f"{target} frames before "
                        + ("the connection closed" if closed
                           else f"the {timeout:.0f}s timeout"))
                # Closing does not notify: re-check it now and then.
                self._arrived.wait(min(left, CLOSE_POLL_S))

    def pending_frames(self) -> int:
        """Parsed frames still waiting for their deliver TTI."""
        with self._lock:
            return len(self._inbox)

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()


# ---------------------------------------------------------------------------
# Connection establishment
# ---------------------------------------------------------------------------


def _preamble(agent_id: int) -> bytes:
    body = encode_varint(PREAMBLE_MAGIC) + encode_varint(agent_id)
    return encode_varint(len(body)) + body


def _parse_preamble(body: bytes) -> int:
    magic, rest = decode_envelope(body)  # same [varint][tail] layout
    if magic != PREAMBLE_MAGIC:
        raise ValueError(f"bad preamble magic {magic:#x}")
    agent_id, tail = decode_envelope(rest + b"\x00")  # tolerate empty tail
    if tail not in (b"", b"\x00"):
        raise ValueError("trailing bytes after preamble")
    return agent_id


class TcpTransportServer:
    """Master-side listener: accepts agent connections.

    A connecting agent announces itself with one preamble envelope
    (magic + agent id); the server then builds the master-side
    endpoint via *endpoint_factory* and hands it to *on_agent*.  Both
    callbacks run on the hub loop thread -- keep them tiny and
    thread-safe (the cluster runtime parks the endpoint in a pending
    list its pump adopts between ticks).
    """

    def __init__(self, hub: TcpHub, *, host: str = "127.0.0.1",
                 port: int = 0,
                 endpoint_factory: Callable[[int], TcpEndpoint],
                 on_agent: Optional[Callable[[int, TcpEndpoint], None]]
                 = None,
                 queue_frames: int = DEFAULT_SEND_QUEUE_FRAMES) -> None:
        self.hub = hub
        self.host = host
        self.port = port
        self._endpoint_factory = endpoint_factory
        self._on_agent = on_agent
        self._queue_frames = queue_frames
        self._server: Optional[asyncio.AbstractServer] = None
        self._peers: List[_SocketPeer] = []
        self.agents_accepted = 0

    def start(self) -> Tuple[str, int]:
        async def _start() -> Tuple[str, int]:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port)
            sockname = self._server.sockets[0].getsockname()
            return sockname[0], sockname[1]

        self.host, self.port = self.hub.call(_start())
        return self.host, self.port

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        decoder = FrameDecoder()
        bodies: List[bytes] = []
        try:
            while not bodies:
                data = await reader.read(4096)
                if not data:
                    writer.close()
                    return
                bodies = decoder.feed(data)
            agent_id = _parse_preamble(bodies[0])
        except (ValueError, ConnectionError, OSError) as exc:
            logger.error("tcp server: rejected connection: %s", exc)
            writer.close()
            return
        endpoint = self._endpoint_factory(agent_id)
        peer = _SocketPeer(self.hub, reader, writer,
                           on_body=endpoint.on_envelope,
                           queue_frames=self._queue_frames,
                           label=f"master<-agent{agent_id}")
        endpoint.attach_socket(peer)
        peer.start()
        self._peers.append(peer)
        # Frames that rode in behind the preamble in the same read.
        for body in bodies[1:]:
            endpoint.on_envelope(body)
        self.agents_accepted += 1
        if self._on_agent is not None:
            self._on_agent(agent_id, endpoint)

    def stop(self) -> None:
        for peer in self._peers:
            peer.close()
        server = self._server
        if server is None:
            return
        self._server = None

        async def _close() -> None:
            server.close()
            await server.wait_closed()

        try:
            self.hub.call(_close(), timeout=5.0)
        except (TransportClosed, Exception):  # noqa: BLE001 - teardown
            pass


def connect_endpoint(hub: TcpHub, host: str, port: int, *, agent_id: int,
                     endpoint: TcpEndpoint,
                     queue_frames: int = DEFAULT_SEND_QUEUE_FRAMES,
                     timeout: float = 10.0) -> TcpEndpoint:
    """Dial the transport server and bind *endpoint* to the connection.

    Sends the identifying preamble, then starts the reader/writer
    tasks.  Returns the same endpoint, now connected.
    """
    async def _connect() -> _SocketPeer:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(_preamble(agent_id))
        await writer.drain()
        return _SocketPeer(hub, reader, writer,
                           on_body=endpoint.on_envelope,
                           queue_frames=queue_frames,
                           label=f"agent{agent_id}->master")

    peer = hub.call(_connect(), timeout=timeout)
    endpoint.attach_socket(peer)
    hub.loop.call_soon_threadsafe(peer.start)
    return endpoint


# ---------------------------------------------------------------------------
# Lockstep connection (drop-in ControlConnection replacement)
# ---------------------------------------------------------------------------


class TcpControlConnection:
    """A full agent<->master connection over real TCP, lockstep flavor.

    Drop-in for :class:`~repro.net.transport.ControlConnection`: the
    same ``agent_side`` / ``master_side`` endpoints, the same
    ``channel`` (the schedule shadow -- all netem fault knobs and the
    Fig. 7 accounting read from it exactly as before), plus the
    per-TTI ``flush_uplink`` / ``flush_downlink`` hooks the simulation
    clock drives in its LINK phases.  Each flush ships the frames that
    became deliverable this TTI through the kernel and blocks until
    the peer endpoint has parsed them, which preserves the emulated
    transport's causal ordering TTI for TTI.
    """

    def __init__(self, server: "TcpConnectionFabric", agent_id: int, *,
                 rtt_ms: float = 0.0, name: str = "conn",
                 seed: int = 0) -> None:
        self.channel = DuplexChannel(rtt_ms=rtt_ms, name=name, seed=seed)
        self.agent_side = TcpEndpoint(
            self.channel.uplink, self.channel.downlink,
            peer=name, tx_direction="ul", rx_direction="dl")
        self.master_side = TcpEndpoint(
            self.channel.downlink, self.channel.uplink,
            peer=name, tx_direction="dl", rx_direction="ul")
        server.establish(agent_id, self)

    # -- per-TTI delivery --------------------------------------------------

    def flush_uplink(self, now: int) -> None:
        """LINK_UP phase: ship due agent->master frames, await parse."""
        self.agent_side.transmit_due(now)
        self.master_side.wait_parsed(self.agent_side.frames_dispatched)

    def flush_downlink(self, now: int) -> None:
        """LINK_DOWN phase: ship due master->agent frames, await parse."""
        self.master_side.transmit_due(now)
        self.agent_side.wait_parsed(self.master_side.frames_dispatched)

    def sync(self, now: int) -> None:
        """Flush both directions (unit-test convenience)."""
        self.flush_uplink(now)
        self.flush_downlink(now)

    def close(self) -> None:
        self.agent_side.close()
        self.master_side.close()

    # -- ControlConnection surface ----------------------------------------

    @property
    def rtt_ttis(self) -> int:
        return self.channel.rtt_ttis

    def set_rtt_ms(self, rtt_ms: float) -> None:
        self.channel.set_rtt_ms(rtt_ms)

    def set_loss(self, probability: float) -> None:
        self.channel.set_loss(probability)

    def set_jitter_ms(self, jitter_ms: float) -> None:
        self.channel.set_jitter_ms(jitter_ms)

    def fail_at(self, tti: int) -> None:
        self.channel.fail_at(tti)

    def heal_at(self, tti: int) -> None:
        self.channel.heal_at(tti)

    def partition(self, start_tti: int, end_tti: int) -> None:
        self.channel.partition(start_tti, end_tti)

    def dropped_messages(self) -> int:
        return self.channel.dropped_messages()


class TcpConnectionFabric:
    """In-process TCP wiring: one hub + one transport server that pairs
    each :class:`TcpControlConnection`'s two endpoints over loopback.

    ``establish`` dials the server with the agent-id preamble; the
    accept path binds the registered master-side endpoint to the
    accepted socket.  Used by :class:`~repro.sim.simulation.Simulation`
    when ``transport="tcp"``.
    """

    def __init__(self, *, host: str = "127.0.0.1") -> None:
        self.hub = TcpHub(name="sim-tcp-hub").start()
        self._expected: Dict[int, TcpControlConnection] = {}
        self._accepted: Dict[int, threading.Event] = {}
        self.server = TcpTransportServer(
            self.hub, host=host, endpoint_factory=self._master_endpoint,
            on_agent=self._on_agent)
        self.host, self.port = self.server.start()

    def _master_endpoint(self, agent_id: int) -> TcpEndpoint:
        try:
            return self._expected[agent_id].master_side
        except KeyError:
            raise ValueError(
                f"unexpected agent id {agent_id} on TCP fabric") from None

    def _on_agent(self, agent_id: int, endpoint: TcpEndpoint) -> None:
        self._accepted[agent_id].set()

    def establish(self, agent_id: int,
                  connection: TcpControlConnection) -> None:
        if agent_id in self._expected:
            raise ValueError(f"agent {agent_id} already on TCP fabric")
        self._expected[agent_id] = connection
        self._accepted[agent_id] = threading.Event()
        connect_endpoint(self.hub, self.host, self.port,
                         agent_id=agent_id, endpoint=connection.agent_side)
        if not self._accepted[agent_id].wait(10.0):
            raise RuntimeError(
                f"TCP fabric: agent {agent_id} handshake timed out")

    def connections(self) -> List[TcpControlConnection]:
        return list(self._expected.values())

    def close(self) -> None:
        for connection in self._expected.values():
            connection.close()
        self.server.stop()
        self.hub.stop()
