"""Asyncio HTTP frontend for the northbound service plane.

A deliberately small HTTP/1.1 server on stdlib ``asyncio`` streams (no
new dependencies): unary requests get JSON responses over keep-alive
connections; stream requests (``/v1/stream/...``) subscribe a row in
the routing table and hold the connection open, writing JSONL or SSE
frames as the controller publishes.

The server runs its event loop in a dedicated thread so a blocking
simulation loop (or the CLI) can own the main thread.  The only
cross-thread traffic is:

* command tickets -- resolved on the controller thread, bridged into
  the loop via ``call_soon_threadsafe``;
* the per-TTI wake batch -- ONE ``call_soon_threadsafe`` per TTI
  carrying every subscription whose queue went empty -> non-empty,
  which is what keeps thousands of subscribers from costing thousands
  of cross-thread calls per TTI.

Writers also wake on a short timeout as a belt-and-braces fallback, so
an item that raced a drain is delivered at most ``FLUSH_INTERVAL_S``
late rather than stuck.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro import obs as _obs
from repro.nb import encoders
from repro.nb.auth import AuthPolicy
from repro.nb.routes import ApiError, Router, StreamRequest, build_router
from repro.nb.service import NorthboundService
from repro.nb.subscriptions import Subscription

logger = logging.getLogger(__name__)

MAX_HEADER_BYTES = 16384
MAX_BODY_BYTES = 1 << 20
SAFETY_WAKE_S = 5.0
"""Belt-and-braces writer wake-up; publishes and unsubscribes both
wake writers explicitly, so this timer only bounds the damage of an
unforeseen lost wake."""

_REASONS = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 500: "Internal Server Error"}


class HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class NorthboundServer:
    """HTTP/1.1 + JSONL/SSE transport over a NorthboundService."""

    def __init__(self, service: NorthboundService, *,
                 host: str = "127.0.0.1", port: int = 0,
                 auth: Optional[AuthPolicy] = None,
                 router: Optional[Router] = None) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.auth = auth or AuthPolicy()
        self.router = router or build_router()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        #: sub_id -> asyncio.Event waking that stream's writer.
        self._wakers: Dict[int, asyncio.Event] = {}
        self._tasks: "set" = set()
        self.connections_accepted = 0
        self.requests_served = 0
        self.streams_opened = 0
        self.client_disconnects = 0

    # -- lifecycle (called from any thread) -------------------------------

    def start(self) -> Tuple[str, int]:
        """Boot the server thread; returns the bound (host, port)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="nb-server", daemon=True)
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("northbound server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"northbound server failed to start: "
                f"{self._startup_error!r}")
        self.service.set_wake_callback(self._wake_from_controller)
        return self.host, self.port

    def stop(self) -> None:
        """Shut the loop down and join the server thread."""
        self.service.set_wake_callback(None)
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(self._begin_shutdown)
        if self._thread is not None:
            self._thread.join(5.0)
        self._thread = None
        self._loop = None

    def _begin_shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        # Wake every stream writer so its coroutine observes shutdown,
        # cancel lingering connection handlers, then stop the loop once
        # they have unwound.
        for event in self._wakers.values():
            event.set()
        for task in tuple(self._tasks):
            task.cancel()
        loop = asyncio.get_event_loop()

        async def _drain() -> None:
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            loop.stop()

        loop.create_task(_drain())

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(asyncio.start_server(
                self._handle_client, self.host, self.port))
            self._server = server
            self.port = server.sockets[0].getsockname()[1]
        except BaseException as exc:  # noqa: BLE001 - startup report
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()

    # -- controller-thread wake bridge ------------------------------------

    def _wake_from_controller(self, subs: List[Subscription]) -> None:
        """ONE cross-thread call per TTI for the whole wake batch."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        sub_ids = [s.sub_id for s in subs]
        try:
            loop.call_soon_threadsafe(self._wake_many, sub_ids)
        except RuntimeError:
            pass  # loop shutting down

    def _wake_many(self, sub_ids: List[int]) -> None:
        for sub_id in sub_ids:
            event = self._wakers.get(sub_id)
            if event is not None:
                event.set()

    # -- request handling ---------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.connections_accepted += 1
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except HttpError as exc:
                    await self._write_json(
                        writer, exc.status, {"error": exc.message},
                        close=True)
                    break
                if request is None:
                    break  # clean EOF between requests
                keep_open = await self._serve_one(reader, writer, *request)
                if not keep_open:
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            self.client_disconnects += 1
        except asyncio.CancelledError:
            pass  # server shutdown
        except Exception:  # noqa: BLE001 - connection boundary
            logger.exception("northbound connection handler failed")
        finally:
            if task is not None:
                self._tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; None on clean EOF before any bytes."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise HttpError(400, "truncated request") from None
        except asyncio.LimitOverrunError:
            raise HttpError(413, "headers too large") from None
        if len(head) > MAX_HEADER_BYTES:
            raise HttpError(413, "headers too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise HttpError(400, f"malformed request line {lines[0]!r}"
                            ) from None
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                raise HttpError(400, "bad Content-Length") from None
            if n > MAX_BODY_BYTES:
                raise HttpError(413, "body too large")
            if n:
                body = await reader.readexactly(n)
        return method.upper(), target, headers, body

    async def _serve_one(self, reader, writer, method: str, target: str,
                         headers: Dict[str, str], body: bytes) -> bool:
        """Handle one parsed request; returns keep-alive."""
        self.requests_served += 1
        parts = urlsplit(target)
        path = parts.path
        query = dict(parse_qsl(parts.query))
        if not self.auth.authorize(method, path, headers):
            await self._write_json(
                writer, 401, {"error": "unauthorized"},
                extra_headers=[("WWW-Authenticate",
                                self.auth.challenge())])
            return headers.get("connection", "").lower() != "close"
        parsed_body: Optional[dict] = None
        if body:
            try:
                parsed_body = json.loads(body)
            except ValueError:
                await self._write_json(writer, 400,
                                       {"error": "body is not valid JSON"})
                return True
            if not isinstance(parsed_body, dict):
                await self._write_json(
                    writer, 400, {"error": "body must be a JSON object"})
                return True
        try:
            result = self.router.dispatch(self.service, method, path,
                                          parsed_body, query)
        except ApiError as exc:
            await self._write_json(writer, exc.status,
                                   {"error": exc.message})
            return True
        except Exception:  # noqa: BLE001 - request boundary
            logger.exception("northbound handler failed for %s %s",
                             method, path)
            await self._write_json(writer, 500,
                                   {"error": "internal error"})
            return True
        if isinstance(result, StreamRequest):
            await self._serve_stream(reader, writer, result)
            return False  # streaming responses own the connection
        await self._write_json(writer, 200, result)
        return headers.get("connection", "").lower() != "close"

    async def _write_json(self, writer: asyncio.StreamWriter, status: int,
                          obj: object, *, close: bool = False,
                          extra_headers=()) -> None:
        payload = json.dumps(obj, default=str).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}"]
        for name, value in extra_headers:
            head.append(f"{name}: {value}")
        if close:
            head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + payload)
        await writer.drain()

    # -- streaming ---------------------------------------------------------

    def _open_subscription(self, request: StreamRequest) -> Subscription:
        service = self.service
        if request.kind == "events":
            return service.subscribe_events(request.event_classes,
                                            capacity=request.capacity)
        if request.kind == "ue":
            agent_id, rnti = request.key  # type: ignore[misc]
            return service.subscribe_ue(agent_id, rnti,
                                        period_ttis=request.period_ttis,
                                        capacity=request.capacity)
        if request.kind == "cell":
            agent_id, cell_id = request.key  # type: ignore[misc]
            return service.subscribe_cell(agent_id, cell_id,
                                          period_ttis=request.period_ttis,
                                          capacity=request.capacity)
        return service.subscribe_tti(period_ttis=request.period_ttis,
                                     capacity=request.capacity)

    async def _serve_stream(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            request: StreamRequest) -> None:
        """Hold the connection, writing frames as publishes arrive."""
        sub = self._open_subscription(request)
        # A streaming client sends nothing more; the next byte (or EOF)
        # means it hung up.  Watching for it lets an *idle* stream --
        # e.g. an event filter that never matches -- unsubscribe
        # promptly instead of lingering until a write fails.
        eof_watch = asyncio.ensure_future(reader.read(1))
        frame = encoders.FRAMERS[request.mode]
        waker = asyncio.Event()
        self._wakers[sub.sub_id] = waker
        self.streams_opened += 1
        histogram = _obs.get().registry.histogram(
            f"nb.fanout.latency_ms.{sub.kind}")
        head = ("HTTP/1.1 200 OK\r\n"
                f"Content-Type: {encoders.CONTENT_TYPES[request.mode]}\r\n"
                "Cache-Control: no-store\r\n"
                f"X-Subscription-Id: {sub.sub_id}\r\n"
                "Connection: close\r\n\r\n")
        try:
            writer.write(head.encode("latin-1"))
            await writer.drain()
            queue = sub.queue
            while not sub.closed and not eof_watch.done():
                wrote = False
                while queue:
                    try:
                        payload, stamp = queue.popleft()
                    except IndexError:
                        break
                    histogram.observe(
                        (time.perf_counter() - stamp) * 1000.0)
                    writer.write(frame(payload))
                    sub.delivered += 1
                    wrote = True
                if wrote:
                    if writer.is_closing():
                        break
                    await writer.drain()
                waker.clear()
                if queue:
                    continue
                # Idle: block until a publish/unsubscribe wake or the
                # client hangs up.  Clear-then-recheck above makes the
                # block race-free against concurrent appends.
                waiting = asyncio.ensure_future(waker.wait())
                done, _pending = await asyncio.wait(
                    {waiting, eof_watch},
                    timeout=SAFETY_WAKE_S,
                    return_when=asyncio.FIRST_COMPLETED)
                if waiting not in done:
                    waiting.cancel()
                if eof_watch in done:
                    break
                if self._server is None or not self._server.is_serving():
                    break
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Client went away mid-stream: unsubscribe, keep serving.
            self.client_disconnects += 1
        finally:
            eof_watch.cancel()
            self._wakers.pop(sub.sub_id, None)
            self.service.unsubscribe(sub.sub_id)
