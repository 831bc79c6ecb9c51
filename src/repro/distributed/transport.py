"""Transports between daemons and the collector.

The paper makes no latency/throughput claims about the wide-area network —
its transfer-cost argument is purely about *how many bytes* must move
(summaries or diffs instead of raw flow captures).  Two transports share
one :class:`Transport` protocol and one byte-accounting contract:

* :class:`SimulatedTransport` — an in-memory message switch with exact
  per-channel byte accounting, which is what the CLAIM-TRANSFER benchmark
  measures.  A per-message framing overhead models UDP/IP + TLS headers so
  tiny diffs do not look artificially free.
* the real asyncio TCP pair in :mod:`repro.distributed.net`
  (:class:`~repro.distributed.net.CollectorServer` /
  :class:`~repro.distributed.net.SiteClient`) — length-prefixed frames
  over localhost or a real network, accounted with the *actual* framing
  overhead instead of the modeled constant.

Daemons, the collector and deployments only depend on the protocol, so
``transport="memory"`` and ``transport="tcp"`` are interchangeable by
configuration.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Protocol, Tuple

from repro.core.errors import TransportError
from repro.distributed.messages import TransferLog

#: Framing overhead charged per message (IP + UDP + record header, roughly).
DEFAULT_OVERHEAD_BYTES = 64


def message_payload_bytes(message: object) -> int:
    """Payload size of a transport message, for byte accounting.

    Messages declare their size via a ``payload_bytes`` attribute (all
    summary/query messages do) or carry a ``bytes`` payload directly.
    Anything else cannot be accounted and raises :class:`TransportError` —
    silently charging zero bytes would corrupt the CLAIM-TRANSFER numbers.
    """
    payload_bytes = getattr(message, "payload_bytes", None)
    if payload_bytes is not None:
        if not isinstance(payload_bytes, int) or payload_bytes < 0:
            raise TransportError(
                f"message {type(message).__name__} declares invalid "
                f"payload_bytes {payload_bytes!r}"
            )
        return payload_bytes
    payload = getattr(message, "payload", None)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    raise TransportError(
        f"cannot size message of type {type(message).__name__}: transport "
        "messages must expose payload_bytes or a bytes payload"
    )


class Transport(Protocol):
    """What daemons, collectors and deployments require of a transport.

    Both :class:`SimulatedTransport` and the TCP pair in
    :mod:`repro.distributed.net` implement this: named endpoints, ordered
    ``send``/``receive`` of summary messages, and per-channel byte
    accounting (:class:`~repro.distributed.messages.TransferLog`).
    """

    def register(self, name: str) -> None:
        """Create an endpoint (idempotent)."""
        ...

    def send(self, source: str, destination: str, message: object) -> None:
        """Queue ``message`` for ``destination``, accounting its size."""
        ...

    def receive(self, endpoint: str, limit: Optional[int] = None) -> List[Tuple[str, object]]:
        """Drain up to ``limit`` pending ``(source, message)`` pairs."""
        ...

    def pending(self, endpoint: str) -> int:
        """Number of undelivered messages for ``endpoint``."""
        ...

    def channel_log(self, source: str, destination: str) -> TransferLog:
        """Transfer totals for one directed channel."""
        ...

    def bytes_sent(self, source: Optional[str] = None, destination: Optional[str] = None) -> int:
        """Total bytes (payload + overhead) matching the given endpoints."""
        ...

    def per_channel(self) -> Dict[Tuple[str, str], TransferLog]:
        """Copy of the per-channel accounting table."""
        ...


class TransferAccounting:
    """Per-channel byte accounting shared by every transport implementation.

    Thread-safe: the TCP transports record transfers from their event-loop
    thread while callers read totals from the driving thread.  Reads only
    ever observe whole :meth:`record_transfer` updates.
    """

    def __init__(self) -> None:
        self._logs: Dict[Tuple[str, str], TransferLog] = {}
        self._accounting_lock = threading.Lock()

    def record_transfer(
        self, source: str, destination: str, payload_bytes: int, overhead_bytes: int
    ) -> None:
        """Account one message on the ``source -> destination`` channel."""
        with self._accounting_lock:
            log = self._logs.get((source, destination))
            if log is None:
                log = TransferLog()
                self._logs[(source, destination)] = log
            log.record(payload_bytes, overhead_bytes)

    def channel_log(self, source: str, destination: str) -> TransferLog:
        """Transfer totals for one directed channel.

        A never-used channel reports an empty log *without* creating table
        state: querying must not pollute :meth:`per_channel` output.
        """
        with self._accounting_lock:
            log = self._logs.get((source, destination))
            return log if log is not None else TransferLog()

    def bytes_sent(self, source: Optional[str] = None, destination: Optional[str] = None) -> int:
        """Total bytes (payload + overhead) matching the given endpoints (``None`` = any)."""
        total = 0
        with self._accounting_lock:
            for (src, dst), log in self._logs.items():
                if source is not None and src != source:
                    continue
                if destination is not None and dst != destination:
                    continue
                total += log.total_bytes
        return total

    def per_channel(self) -> Dict[Tuple[str, str], TransferLog]:
        """Copy of the per-channel accounting table."""
        with self._accounting_lock:
            return dict(self._logs)



class SimulatedTransport(TransferAccounting):
    """In-memory message switch with per-channel byte accounting."""

    def __init__(self, overhead_bytes: int = DEFAULT_OVERHEAD_BYTES) -> None:
        if overhead_bytes < 0:
            raise TransportError(f"overhead_bytes must be non-negative, got {overhead_bytes}")
        super().__init__()
        self._overhead = overhead_bytes
        self._endpoints: Dict[str, Deque[Tuple[str, object]]] = {}

    # -- endpoint management ---------------------------------------------------

    def register(self, name: str) -> None:
        """Create an endpoint (idempotent)."""
        if not name:
            raise TransportError("endpoint name must be non-empty")
        self._endpoints.setdefault(name, deque())

    def endpoints(self) -> List[str]:
        """Names of all registered endpoints."""
        return sorted(self._endpoints)

    # -- send / receive ----------------------------------------------------------

    def send(self, source: str, destination: str, message: object) -> None:
        """Deliver ``message`` to ``destination``'s queue, accounting its size."""
        if source not in self._endpoints:
            raise TransportError(f"unknown source endpoint {source!r}")
        if destination not in self._endpoints:
            raise TransportError(f"unknown destination endpoint {destination!r}")
        payload_bytes = message_payload_bytes(message)
        self.record_transfer(source, destination, payload_bytes, self._overhead)
        self._endpoints[destination].append((source, message))

    def receive(self, endpoint: str, limit: Optional[int] = None) -> List[Tuple[str, object]]:
        """Drain up to ``limit`` pending ``(source, message)`` pairs for ``endpoint``."""
        if endpoint not in self._endpoints:
            raise TransportError(f"unknown endpoint {endpoint!r}")
        if limit is not None and limit < 0:
            raise TransportError(f"receive limit must be non-negative, got {limit}")
        queue = self._endpoints[endpoint]
        count = len(queue) if limit is None else min(limit, len(queue))
        return [queue.popleft() for _ in range(count)]

    def pending(self, endpoint: str) -> int:
        """Number of undelivered messages for ``endpoint``."""
        if endpoint not in self._endpoints:
            raise TransportError(f"unknown endpoint {endpoint!r}")
        return len(self._endpoints[endpoint])
