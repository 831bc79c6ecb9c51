"""Site abstraction and whole-deployment builder.

A :class:`MonitoringSite` bundles a traffic source (any iterable of flow or
packet records) with the daemon that summarizes it.  :class:`Deployment`
wires several sites, a transport and one or more collectors together and
drives a replay — the five-site ISP of the paper's Fig. 1 in a dozen
lines, which is what the multi-site example and the FIG1 benchmark use.

The transport is selected by configuration:

* ``transport="memory"`` (default) — one shared
  :class:`~repro.distributed.transport.SimulatedTransport`; instant
  delivery, exact byte accounting, no sockets.
* ``transport="tcp"`` — one
  :class:`~repro.distributed.net.CollectorServer` per collector and one
  :class:`~repro.distributed.net.SiteClient` per site, carrying the same
  binary summaries as length-prefixed frames over localhost or a real
  network (knobs via :class:`~repro.distributed.net.NetConfig`).

With ``collectors > 1`` sites are partitioned across collectors by a
stable CRC-32 of the site name (:func:`site_shard`), and
the deployment's query engine scatter/gathers across the partitions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from types import TracebackType
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import FlowtreeConfig
from repro.core.errors import DaemonError
from repro.distributed.alerting import AlertManager, AlertPolicy
from repro.distributed.collector import Collector, CollectorConfig
from repro.distributed.daemon import DEFAULT_BATCH_SIZE, FlowtreeDaemon
from repro.distributed.faults import FaultPlan
from repro.distributed.messages import Alert
from repro.distributed.net import CollectorServer, NetConfig, SiteClient
from repro.distributed.query_engine import DistributedQueryEngine
from repro.distributed.supervisor import Supervisor, SupervisorConfig
from repro.distributed.transport import SimulatedTransport, Transport
from repro.features.schema import FlowSchema

TRANSPORT_KINDS = ("memory", "tcp")


def site_shard(site: str, collectors: int) -> int:
    """Which collector a site reports to: CRC-32 of the site name, modulo.

    CRC-32 rather than ``hash()``, which Python randomizes per process, so
    every process places a site on the same collector: no coordination, no
    reassignment when sites come and go.
    """
    if collectors < 1:
        raise DaemonError(f"a deployment needs at least one collector, got {collectors}")
    if collectors == 1:
        return 0
    return zlib.crc32(site.encode("utf-8")) % collectors


class DeploymentCloseError(DaemonError):
    """Several components failed while closing a deployment.

    ``errors`` holds every ``(component, exception)`` pair in close order;
    the first failure is the ``__cause__``.
    """

    def __init__(self, errors: Sequence[Tuple[str, BaseException]]) -> None:
        detail = "; ".join(f"{label}: {exc!r}" for label, exc in errors)
        super().__init__(f"{len(errors)} components failed during close: {detail}")
        self.errors: List[Tuple[str, BaseException]] = list(errors)


@dataclass
class MonitoringSite:
    """One monitoring location: a name, its traffic and its daemon.

    ``batch_size`` controls the daemon's batched replay path; ``None``,
    ``0`` or ``1`` forces per-record ingestion, mostly useful for
    measuring the batched speedup.
    """

    name: str
    daemon: FlowtreeDaemon
    records: Optional[Iterable[object]] = None
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE

    def replay(self) -> int:
        """Feed the site's records through its daemon; returns records consumed."""
        if self.records is None:
            return 0
        consumed = self.daemon.consume_records(self.records, batch_size=self.batch_size)
        self.daemon.flush()
        return consumed


class Deployment:
    """A full Fig. 1 deployment: sites + transport + collector(s) + query engine."""

    def __init__(
        self,
        schema: FlowSchema,
        site_names: Sequence[str],
        bin_width: float = 60.0,
        daemon_config: Optional[FlowtreeConfig] = None,
        use_diffs: bool = True,
        alert_policy: Optional[AlertPolicy] = None,
        daemon_workers: int = 0,
        collector_config: Optional[CollectorConfig] = None,
        transport: str = "memory",
        collectors: int = 1,
        net: Optional[NetConfig] = None,
        faults: Optional[FaultPlan] = None,
        query_timeout: Optional[float] = None,
        on_unavailable: str = "raise",
    ) -> None:
        """``daemon_workers`` must be ``0``: every daemon is one in-process
        summarizer, and sites are the unit of parallelism.  The parameter
        remains only because the flowbench adapter
        (``benchmarks/e2e/layers.py``) passes it; removing it is a later
        change to that adapter.
        ``collector_config`` selects the collectors' storage backend and
        retention (its ``bin_width`` must match the deployment's).
        ``transport`` selects the network (``"memory"`` or ``"tcp"``),
        ``collectors`` how many collectors sites are partitioned across,
        and ``net`` the TCP knobs (ports, backpressure, backoff).
        ``faults`` wires one :class:`FaultPlan` into every injection seam
        (clients, collectors, stores) at once;
        ``query_timeout`` / ``on_unavailable`` configure the query
        engine's gather budget and degradation policy."""
        if not site_names:
            raise DaemonError("a deployment needs at least one site")
        if daemon_workers != 0:
            raise DaemonError(
                f"daemon_workers must be 0 (one process per site daemon), got {daemon_workers}"
            )
        if transport not in TRANSPORT_KINDS:
            raise DaemonError(
                f"transport must be one of {TRANSPORT_KINDS}, got {transport!r}"
            )
        if collectors < 1:
            raise DaemonError(f"a deployment needs at least one collector, got {collectors}")
        if net is not None and transport != "tcp":
            raise DaemonError("net configuration only applies to transport='tcp'")
        if collector_config is not None and collector_config.bin_width != bin_width:
            raise DaemonError(
                f"collector_config.bin_width {collector_config.bin_width} does not "
                f"match the deployment bin_width {bin_width}"
            )
        if collectors > 1 and collector_config is not None and collector_config.store != "memory":
            raise DaemonError(
                "durable collector stores are single-collector only: every collector "
                "would open the same store_path; deploy with collectors=1"
            )
        self._schema = schema
        self._transport_kind = transport
        self._net = net if net is not None else NetConfig()
        collector_names = (
            ["collector"] if collectors == 1
            else [f"collector-{index}" for index in range(collectors)]
        )
        self._servers: List[CollectorServer] = []
        self._clients: Dict[str, SiteClient] = {}
        self._shared_transport: Optional[SimulatedTransport] = None
        self._collectors: List[Collector] = []
        collector_transports: List[Transport] = []
        if transport == "memory":
            self._shared_transport = SimulatedTransport()
            collector_transports = [self._shared_transport for _ in collector_names]
        else:
            for index in range(collectors):
                server = CollectorServer(
                    host=self._net.host, port=self._net.port_for(index)
                )
                server.start()
                self._servers.append(server)
                collector_transports.append(server)
        for name, collector_transport in zip(collector_names, collector_transports):
            self._collectors.append(
                Collector(
                    schema,
                    collector_transport,
                    name=name,
                    config=collector_config or CollectorConfig(bin_width=bin_width),
                    faults=faults,
                )
            )
        self._sites: Dict[str, MonitoringSite] = {}
        self._owners: Dict[str, int] = {}
        for name in site_names:
            shard = site_shard(name, collectors)
            self._owners[name] = shard
            owner = self._collectors[shard]
            if transport == "memory":
                assert self._shared_transport is not None
                site_transport: Transport = self._shared_transport
            else:
                server = self._servers[shard]
                client = SiteClient(
                    host=server.host,
                    port=server.port,
                    site=name,
                    collector_name=owner.name,
                    max_pending=self._net.max_pending,
                    send_timeout=self._net.send_timeout,
                    connect_timeout=self._net.connect_timeout,
                    backoff_base=self._net.backoff_base,
                    backoff_max=self._net.backoff_max,
                    backoff_jitter=self._net.backoff_jitter,
                    rng=(
                        faults.rng_for(f"net.client.backoff/{name}")
                        if faults is not None
                        else None
                    ),
                    faults=faults,
                )
                self._clients[name] = client
                site_transport = client
            daemon = FlowtreeDaemon(
                site=name,
                schema=schema,
                transport=site_transport,
                collector_name=owner.name,
                bin_width=bin_width,
                config=daemon_config,
                use_diffs=use_diffs,
            )
            self._sites[name] = MonitoringSite(name=name, daemon=daemon)
        self._engine = DistributedQueryEngine(
            self._collectors, timeout=query_timeout, on_unavailable=on_unavailable
        )
        self._alerts = AlertManager(alert_policy)
        self._supervisor: Optional[Supervisor] = None

    # -- accessors ---------------------------------------------------------------

    @property
    def transport(self) -> SimulatedTransport:
        """The simulated network (memory deployments only; for byte accounting)."""
        if self._shared_transport is None:
            raise DaemonError(
                "a tcp deployment has no shared transport; use site_transport(name) "
                "for a site's client or servers for the collector side"
            )
        return self._shared_transport

    def site_transport(self, name: str) -> Transport:
        """The transport a site's daemon sends through (client or shared)."""
        self.site(name)  # validates the name
        if self._transport_kind == "memory":
            assert self._shared_transport is not None
            return self._shared_transport
        return self._clients[name]

    @property
    def servers(self) -> List[CollectorServer]:
        """The TCP servers, one per collector (empty for memory deployments)."""
        return list(self._servers)

    @property
    def collectors(self) -> List[Collector]:
        """All collectors, in shard order."""
        return list(self._collectors)

    @property
    def collector(self) -> Collector:
        """The central collector (single-collector deployments only)."""
        if len(self._collectors) != 1:
            raise DaemonError(
                f"this deployment shards sites across {len(self._collectors)} "
                "collectors; use .collectors or collector_for(site)"
            )
        return self._collectors[0]

    def collector_for(self, site: str) -> Collector:
        """The collector a site reports to (CRC-32 placement)."""
        self.site(site)  # validates the name
        return self._collectors[self._owners[site]]

    @property
    def query_engine(self) -> DistributedQueryEngine:
        """Query interface over all collectors (scatter/gather)."""
        return self._engine

    @property
    def site_names(self) -> List[str]:
        """Names of all sites in the deployment."""
        return sorted(self._sites)

    def site(self, name: str) -> MonitoringSite:
        """One site by name (raises for unknown names)."""
        try:
            return self._sites[name]
        except KeyError:
            raise DaemonError(f"unknown site {name!r}") from None

    def daemon(self, name: str) -> FlowtreeDaemon:
        """One site's daemon by name."""
        return self.site(name).daemon

    # -- driving the replay ---------------------------------------------------------

    def attach_records(self, name: str, records: Iterable[object]) -> None:
        """Assign the traffic a site will replay."""
        self.site(name).records = records

    def run(self, poll: bool = True, scan_alerts: bool = True) -> Dict[str, int]:
        """Replay every site, deliver summaries, and (optionally) scan for alerts.

        TCP deployments drain every site's client before polling, so all
        emitted summaries are acknowledged server-side first.  Returns the
        number of records each site consumed.
        """
        consumed = {}
        for name in self.site_names:
            consumed[name] = self.site(name).replay()
        if poll:
            self.drain()
            for collector in self._collectors:
                collector.poll()
        if poll and scan_alerts:
            for collector in self._collectors:
                self._alerts.scan_collector(collector)
        return consumed

    def drain(self) -> None:
        """Block until every in-flight summary is acknowledged (tcp only)."""
        for name in self.site_names:
            client = self._clients.get(name)
            if client is not None:
                client.drain(timeout=self._net.drain_timeout)

    def restart_collector_servers(self) -> None:
        """Bounce every TCP server on its bound port (crash/restart drill).

        Live connections drop; clients reconnect with backoff and resend
        their unacked backlog, deduplicated by the collectors' sequence
        guards — the delivered stream stays exactly-once.
        """
        for index in range(len(self._servers)):
            self.restart_collector_server(index)

    def restart_collector_server(self, index: int) -> None:
        """Bounce one collector's TCP server on its bound port."""
        if index < 0 or index >= len(self._servers):
            raise DaemonError(
                f"no TCP server at index {index} "
                f"(deployment has {len(self._servers)})"
            )
        server = self._servers[index]
        if server.running:
            server.stop()
        server.start()

    def supervisor(self, config: Optional[SupervisorConfig] = None) -> Supervisor:
        """The deployment's supervisor (created on first call, then cached).

        Pass ``config`` on the first call to configure it; later calls
        with a different config raise rather than silently ignoring it.
        """
        if self._supervisor is None:
            self._supervisor = Supervisor(
                self._collectors,
                servers=self._servers or None,
                config=config,
            )
        elif config is not None and config != self._supervisor.config:
            raise DaemonError(
                "this deployment's supervisor already exists with a different "
                "config; call supervisor() without one to reuse it"
            )
        return self._supervisor

    def alerts(self) -> List[Alert]:
        """All alerts raised during the replay."""
        return self._alerts.alerts

    def close(self) -> None:
        """Flush daemons, drain clients, poll and close collectors (idempotent).

        Every component is closed even when earlier ones fail; a single
        failure is re-raised as-is, several are wrapped in a
        :class:`DeploymentCloseError` listing all of them.
        """
        errors: List[Tuple[str, BaseException]] = []
        if self._supervisor is not None:
            try:
                self._supervisor.stop()
            except Exception as exc:
                errors.append(("supervisor", exc))
        for name in self.site_names:
            try:
                self.daemon(name).close()
            except Exception as exc:
                errors.append((f"daemon {name!r}", exc))
        for name in self.site_names:
            client = self._clients.get(name)
            if client is None:
                continue
            try:
                client.close(timeout=self._net.drain_timeout)
            except Exception as exc:
                errors.append((f"client {name!r}", exc))
        for collector in self._collectors:
            try:
                collector.poll()
                collector.close()
            except Exception as exc:
                errors.append((f"collector {collector.name!r}", exc))
        for index, server in enumerate(self._servers):
            try:
                server.close()
            except Exception as exc:
                errors.append((f"server {index}", exc))
        if len(errors) == 1:
            raise errors[0][1]
        if errors:
            raise DeploymentCloseError(errors) from errors[0][1]

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.close()

    def transfer_bytes(self) -> int:
        """Total bytes shipped from daemons to the collectors (incl. framing)."""
        if self._shared_transport is not None:
            return sum(
                self._shared_transport.bytes_sent(source=name)
                for name in self.site_names
            )
        return sum(
            self._clients[name].bytes_sent(source=name) for name in self.site_names
        )
