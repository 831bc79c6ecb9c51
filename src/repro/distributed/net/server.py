"""Asyncio TCP server feeding summary frames into a collector.

:class:`CollectorServer` is the receive side of the real network
transport: it listens on a TCP port, decodes length-prefixed summary
frames (see :mod:`repro.distributed.net.framing`) and queues the decoded
:class:`~repro.distributed.messages.SummaryMessage` objects on the
destination endpoint's inbox — exactly the queue shape
:meth:`~repro.distributed.collector.Collector.poll` drains, so a
collector runs unmodified over TCP: ``Collector(schema, server, ...)``.

Delivery contract:

* **Per-connection sequencing** — summary frames carry a per-connection
  frame number; a gap or reordering is a protocol error and drops the
  connection.  The client then reconnects and resends its unacked
  backlog, renumbered, so the stream a connection delivers is always
  in-order and gap-free.
* **Cumulative acks after enqueue** — a frame is acknowledged only after
  its message sits in the inbox, so everything a client has seen acked
  survives a connection loss.  Re-sent messages that were enqueued but
  not acked before a crash are deduplicated end-to-end by the collector's
  ``(site, bin, sequence)`` idempotency guard.
* **Restartable** — :meth:`stop` closes the socket but keeps inboxes and
  byte accounting; :meth:`start` binds the same port again.  A collector
  restart therefore loses no polled state, and clients transparently
  reconnect.

The event loop runs on a background thread; all public methods are safe
to call from the driving (synchronous) thread.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.errors import SerializationError, TransportError
from repro.core.serialization import FORMAT_VERSION, summary_header
from repro.distributed.net.framing import (
    FrameDecoder,
    HelloFrame,
    SummaryFrame,
    encode_ack,
    encode_frame,
)
from repro.distributed.net.runtime import EventLoopThread
from repro.distributed.transport import TransferAccounting


class CollectorServer(TransferAccounting):
    """TCP ingress for one or more collector endpoints.

    Implements the :class:`~repro.distributed.transport.Transport`
    protocol's receive side (``register`` / ``receive`` / ``pending`` plus
    byte accounting); ``send`` raises — summaries only flow site ->
    collector on this transport.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__()
        self._host = host
        self._port = port
        self._endpoints: Dict[str, Deque[Tuple[str, object]]] = {}
        self._state_lock = threading.Lock()
        self._runtime: Optional[EventLoopThread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._closed = False
        self._stats = {
            "connections_accepted": 0,
            "messages_received": 0,
            "protocol_errors": 0,
            "ack_bytes_sent": 0,
        }

    # -- lifecycle -------------------------------------------------------------

    @property
    def host(self) -> str:
        """Bind address."""
        return self._host

    @property
    def port(self) -> int:
        """Listening port (the bound one after :meth:`start`, even for port 0)."""
        return self._port

    @property
    def running(self) -> bool:
        """Whether the server is accepting connections."""
        return self._runtime is not None and self._runtime.running

    def start(self, timeout: float = 5.0) -> "CollectorServer":
        """Bind and start accepting connections (restartable after :meth:`stop`)."""
        if self._closed:
            raise TransportError("collector server is closed")
        if self.running:
            raise TransportError(f"collector server already listening on port {self._port}")
        runtime = EventLoopThread(name=f"flowtree-collector-server:{self._port}")
        runtime.start()
        try:
            self._port = runtime.run(self._open(), timeout=timeout)
        except BaseException:
            runtime.stop()
            raise
        self._runtime = runtime
        return self

    async def _open(self) -> int:
        self._server = await asyncio.start_server(self._handle, self._host, self._port)
        sockets = self._server.sockets or []
        if not sockets:
            raise TransportError("server started without a listening socket")
        return int(sockets[0].getsockname()[1])

    def stop(self, timeout: float = 5.0) -> None:
        """Stop listening and drop live connections; inboxes and accounting survive."""
        runtime = self._runtime
        self._runtime = None
        if runtime is None or not runtime.running:
            return
        try:
            runtime.run(self._shutdown(), timeout=timeout)
        finally:
            runtime.stop(timeout=timeout)
        self._server = None

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()

    def close(self) -> None:
        """Stop for good; further :meth:`start` calls raise."""
        self.stop()
        self._closed = True

    def __enter__(self) -> "CollectorServer":
        return self

    def __exit__(self, exc_type: object, exc_value: object, traceback: object) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        """Operational counters (connections, messages, protocol errors, acks)."""
        with self._state_lock:
            return dict(self._stats)

    # -- Transport protocol (receive side) --------------------------------------

    def register(self, name: str) -> None:
        """Create an endpoint inbox (idempotent); the collector calls this."""
        if not name:
            raise TransportError("endpoint name must be non-empty")
        with self._state_lock:
            self._endpoints.setdefault(name, deque())

    def endpoints(self) -> List[str]:
        """Names of all registered endpoints."""
        with self._state_lock:
            return sorted(self._endpoints)

    def send(self, source: str, destination: str, message: object) -> None:
        """Unsupported: this transport only carries site -> collector frames."""
        raise TransportError(
            "CollectorServer is the receive side of the TCP transport; "
            "sites send through a SiteClient"
        )

    def receive(self, endpoint: str, limit: Optional[int] = None) -> List[Tuple[str, object]]:
        """Drain up to ``limit`` pending ``(site, message)`` pairs for ``endpoint``."""
        if limit is not None and limit < 0:
            raise TransportError(f"receive limit must be non-negative, got {limit}")
        with self._state_lock:
            queue = self._endpoints.get(endpoint)
            if queue is None:
                raise TransportError(f"unknown endpoint {endpoint!r}")
            count = len(queue) if limit is None else min(limit, len(queue))
            return [queue.popleft() for _ in range(count)]

    def pending(self, endpoint: str) -> int:
        """Number of received-but-unpolled messages for ``endpoint``."""
        with self._state_lock:
            queue = self._endpoints.get(endpoint)
            if queue is None:
                raise TransportError(f"unknown endpoint {endpoint!r}")
            return len(queue)

    # -- connection handling -----------------------------------------------------

    def _protocol_error(self, detail: str) -> TransportError:
        with self._state_lock:
            self._stats["protocol_errors"] += 1
        return TransportError(detail)

    def _enqueue(self, hello: HelloFrame, frame: SummaryFrame) -> None:
        message = frame.message
        with self._state_lock:
            queue = self._endpoints.get(hello.destination)
            if queue is None:  # endpoint vanished between HELLO and now
                raise TransportError(f"unknown destination endpoint {hello.destination!r}")
            queue.append((hello.site, message))
            self._stats["messages_received"] += 1
        self.record_transfer(
            hello.site,
            hello.destination,
            message.payload_bytes,
            frame.wire_bytes - message.payload_bytes,
        )

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """One client connection: HELLO, then sequenced summary frames."""
        self._writers.add(writer)
        with self._state_lock:
            self._stats["connections_accepted"] += 1
        decoder = FrameDecoder()
        hello: Optional[HelloFrame] = None
        delivered = 0
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                accepted = False
                try:
                    frames = decoder.feed(chunk)
                except TransportError:
                    # CRC mismatch or a corrupted length prefix: count it
                    # like any other protocol violation, then let the
                    # outer handler kill the connection — nothing in the
                    # bad chunk was acked, so the resend redelivers it.
                    with self._state_lock:
                        self._stats["protocol_errors"] += 1
                    raise
                for frame in frames:
                    if isinstance(frame, HelloFrame):
                        if hello is not None:
                            raise self._protocol_error("duplicate HELLO on one connection")
                        with self._state_lock:
                            known = frame.destination in self._endpoints
                        if not known:
                            raise self._protocol_error(
                                f"HELLO for unknown endpoint {frame.destination!r}"
                            )
                        if not frame.site:
                            raise self._protocol_error("HELLO with empty site name")
                        if frame.summary_format > FORMAT_VERSION:
                            raise self._protocol_error(
                                f"site {frame.site!r} emits summary format "
                                f"{frame.summary_format}, this collector decodes "
                                f"up to {FORMAT_VERSION}"
                            )
                        hello = frame
                    elif isinstance(frame, SummaryFrame):
                        if hello is None:
                            raise self._protocol_error("summary frame before HELLO")
                        if frame.frame_no != delivered + 1:
                            raise self._protocol_error(
                                f"out-of-sequence frame {frame.frame_no} "
                                f"(expected {delivered + 1}) from site {hello.site!r}"
                            )
                        # A well-formed frame can still carry a summary
                        # payload that is garbage (sender bug, pre-frame
                        # corruption).  Validate the payload header before
                        # enqueueing: the connection is killed, the frame
                        # never acked, and nothing reaches the collector.
                        try:
                            summary_header(frame.message.payload)
                        except SerializationError as exc:
                            raise self._protocol_error(
                                f"corrupt summary payload from site "
                                f"{hello.site!r}: {exc}"
                            ) from exc
                        self._enqueue(hello, frame)
                        delivered += 1
                        accepted = True
                    else:
                        raise self._protocol_error(
                            f"unexpected {type(frame).__name__} from client"
                        )
                if accepted:
                    ack = encode_frame(encode_ack(delivered))
                    writer.write(ack)
                    await writer.drain()
                    with self._state_lock:
                        self._stats["ack_bytes_sent"] += len(ack)
        except (TransportError, ConnectionError, OSError):
            # Protocol violations and connection drops end this connection
            # only (already counted via _protocol_error where applicable);
            # the client reconnects and resends its unacked backlog.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
