"""Heartbeat supervision and automatic restart of collectors.

The operational pattern of production flow pipelines: collectors are
health-checked on a heartbeat, a dead one is brought back automatically —
``reopen()`` for durable stores (state rebuilt from the backend),
``revive()`` for memory stores (state survived in process) — and a
stopped TCP server is rebound on its port so clients reconnect and
resend.  :meth:`Supervisor.check` is one supervision pass; :meth:`start`
runs passes on a background thread until :meth:`stop`.

Every outcome is *reported*: a failed check lands in the collector's
:class:`CollectorHealth` entry (``last_error``, ``consecutive_failures``)
and never disappears into a silent handler.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.core.errors import ConfigurationError, DaemonError, FlowtreeError
from repro.distributed.collector import Collector
from repro.distributed.net.server import CollectorServer

__all__ = ["CollectorHealth", "Supervisor", "SupervisorConfig"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of one :class:`Supervisor`.

    Attributes:
        interval: heartbeat period of the background thread in seconds.
        max_restarts: cap on restart attempts per collector (server
            rebinds and collector reopen/revive both count); ``None`` =
            unbounded.  Beyond the cap the collector is left down and its
            health entry keeps reporting the failure.
        poll_on_check: drain the collector's transport inbox during each
            check, so a revived collector catches up on backlogged
            summaries without waiting for the driving loop.
    """

    interval: float = 0.5
    max_restarts: Optional[int] = None
    poll_on_check: bool = True

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {self.interval}")
        if self.max_restarts is not None and self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0 or None, got {self.max_restarts}"
            )


@dataclass
class CollectorHealth:
    """One collector's view in the supervisor's health snapshot."""

    name: str
    index: int
    healthy: bool = True
    #: ``None`` when the collector has no TCP server (memory transport).
    server_running: Optional[bool] = None
    restarts: int = 0
    consecutive_failures: int = 0
    last_error: Optional[str] = None
    sites: int = 0
    messages_processed: int = 0
    pending_backlog: int = 0

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict copy for reporting (CLI, logs, tests)."""
        return {
            "name": self.name,
            "index": self.index,
            "healthy": self.healthy,
            "server_running": self.server_running,
            "restarts": self.restarts,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
            "sites": self.sites,
            "messages_processed": self.messages_processed,
            "pending_backlog": self.pending_backlog,
        }


class Supervisor:
    """Health-checks collectors and restarts the dead ones.

    One supervision pass (:meth:`check`) per collector:

    1. rebind its TCP server if the server stopped,
    2. heal a killed collector — :meth:`~Collector.reopen` when its store
       is durable, :meth:`~Collector.revive` otherwise,
    3. probe liveness (:meth:`~Collector.ping`) and, by default, poll its
       inbox so backlogged summaries land,
    4. record the outcome in the collector's :class:`CollectorHealth`.

    A failure in any step marks the collector unhealthy with the error
    preserved; the next pass retries (bounded by ``max_restarts``).
    """

    def __init__(
        self,
        collectors: Union[Collector, Sequence[Collector]],
        servers: Optional[Sequence[CollectorServer]] = None,
        config: Optional[SupervisorConfig] = None,
    ) -> None:
        if isinstance(collectors, Collector):
            collectors = [collectors]
        if not collectors:
            raise ConfigurationError("a supervisor needs at least one collector")
        self._collectors: List[Collector] = list(collectors)
        self._servers: List[CollectorServer] = list(servers) if servers else []
        if self._servers and len(self._servers) != len(self._collectors):
            raise ConfigurationError(
                f"got {len(self._servers)} servers for {len(self._collectors)} "
                "collectors; pass one server per collector (or none)"
            )
        self._config = config if config is not None else SupervisorConfig()
        self._health = [
            CollectorHealth(name=collector.name, index=index)
            for index, collector in enumerate(self._collectors)
        ]
        self._check_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._crash: Optional[BaseException] = None

    # -- properties -------------------------------------------------------------

    @property
    def config(self) -> SupervisorConfig:
        """The supervisor's configuration."""
        return self._config

    @property
    def collectors(self) -> List[Collector]:
        """The supervised collectors."""
        return list(self._collectors)

    @property
    def running(self) -> bool:
        """Whether the background heartbeat thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    # -- supervision ------------------------------------------------------------

    def check(self) -> Dict[str, Dict[str, object]]:
        """One supervision pass over every collector; returns the snapshot."""
        with self._check_lock:
            for index, collector in enumerate(self._collectors):
                self._check_one(index, collector)
        return self.health_snapshot()

    def _check_one(self, index: int, collector: Collector) -> None:
        health = self._health[index]
        server = self._servers[index] if index < len(self._servers) else None
        try:
            if server is not None and not server.running and self._may_restart(health):
                server.start()
                health.restarts += 1
            if not collector.healthy and self._may_restart(health):
                if collector.store.durable:
                    collector.reopen()
                else:
                    collector.revive()
                health.restarts += 1
            collector.ping()
            if self._config.poll_on_check:
                collector.poll()
            health.healthy = True
            health.consecutive_failures = 0
            health.last_error = None
        except (FlowtreeError, OSError) as exc:
            # Reported, never swallowed: the failure stays visible in the
            # health snapshot until a later pass succeeds.
            health.healthy = False
            health.consecutive_failures += 1
            health.last_error = f"{type(exc).__name__}: {exc}"
        health.server_running = None if server is None else server.running
        health.sites = len(collector.sites)
        health.messages_processed = collector.messages_processed
        health.pending_backlog = collector.pending_backlog

    def _may_restart(self, health: CollectorHealth) -> bool:
        limit = self._config.max_restarts
        return limit is None or health.restarts < limit

    def health_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Health of every collector, keyed by collector name.

        Takes ``_check_lock``: the heartbeat thread mutates the health
        records mid-pass, and an unguarded read could see one collector's
        failure count from before a restart next to its ``healthy`` flag
        from after it (flowlint: lock-discipline).
        """
        with self._check_lock:
            return {health.name: health.snapshot() for health in self._health}

    @property
    def all_healthy(self) -> bool:
        """Whether the last pass found every collector serving."""
        with self._check_lock:
            return all(health.healthy for health in self._health)

    # -- background heartbeat -----------------------------------------------------

    def start(self) -> "Supervisor":
        """Run :meth:`check` every ``interval`` seconds on a daemon thread."""
        if self.running:
            return self
        self._stop.clear()
        self._crash = None
        thread = threading.Thread(
            target=self._run, name="flowtree-supervisor", daemon=True
        )
        self._thread = thread
        thread.start()
        return self

    def _run(self) -> None:
        try:
            while not self._stop.wait(self._config.interval):
                self.check()
        except BaseException as exc:
            # Surfaced by stop(): a supervisor that silently stops
            # supervising would defeat its purpose.
            self._crash = exc
            raise

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the heartbeat thread; re-raises a crash it may have died of."""
        self._stop.set()
        thread = self._thread
        self._thread = None
        if thread is not None:
            thread.join(timeout=timeout)
        crash = self._crash
        self._crash = None
        if crash is not None:
            raise DaemonError(f"supervisor thread crashed: {crash!r}") from crash

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, exc_type: object, exc_value: object, traceback: object) -> None:
        self.stop()
