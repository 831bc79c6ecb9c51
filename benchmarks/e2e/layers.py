"""The one flowbench module that touches ``repro``.

Every import from ``repro.*`` and every read of a stats surface
(``UpdateStats``, ``DaemonStats``, ``StoreStats``, ``CollectorServer.stats()``,
``SiteClient.stats()``) lives here, so a refactor of the program changes at
most this file.  Only long-lived public surfaces are used: ``Deployment``,
``CollectorConfig``, ``FlowtreeConfig(max_nodes=...)``, ``FlowKey``, the trace
generators and the functions the per-layer table in ``README.md`` names.
Deliberately *not* used: ``compaction=`` / ``rebuild_threshold``, the
``ShardedFlowtree`` facades, FTAB v1 and the HELLO batch-version fields
(ROADMAP item 3 wants to delete them).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.config import FlowtreeConfig
from repro.core.errors import FlowtreeError
from repro.core.estimator import estimate_many as tree_estimate_many
from repro.core.flowtree import DEFAULT_BATCH_SIZE, Flowtree, preaggregate_records
from repro.core.key import FlowKey
from repro.core.serialization import from_bytes, to_bytes
from repro.distributed.collector import Collector, CollectorConfig
from repro.distributed.diffsync import DiffSyncDecoder, DiffSyncEncoder
from repro.distributed.messages import SummaryMessage
from repro.distributed.net import CollectorServer, SiteClient
from repro.distributed.net.framing import (
    FrameDecoder,
    encode_frame,
    encode_hello,
    encode_summary,
    encode_summary_body,
)
from repro.distributed.site import Deployment
from repro.features.schema import SCHEMA_4F
from repro.traces import (
    CaidaLikeTraceGenerator,
    DdosScenario,
    DdosTraceGenerator,
    split_by_site,
)

__all__ = [
    "SCHEMA", "BATCH_SIZE", "COLLECTOR_NAME", "DAEMON_FULL_EVERY", "QUERY_ERRORS",
    "Flowtree", "FlowKey", "SummaryMessage", "DiffSyncEncoder", "DiffSyncDecoder",
    "FrameDecoder", "preaggregate_records", "tree_estimate_many",
    "from_bytes", "to_bytes", "encode_frame", "encode_summary", "encode_summary_body",
]

SCHEMA = SCHEMA_4F
#: Records the daemon buffers before charging them to the open bin's tree.
BATCH_SIZE = DEFAULT_BATCH_SIZE
COLLECTOR_NAME = "collector"
#: What a query the program could not answer raises (its own error base, or
#: the store's I/O); anything else is a bug and should stop the harness.
QUERY_ERRORS = (FlowtreeError, OSError)
#: ``FlowtreeDaemon``'s default checkpoint interval for its diff encoder.
DAEMON_FULL_EVERY = 10


# -- traces ----------------------------------------------------------------------


def generate_records(kind: str, seed: int, count: int, **params: int) -> List[object]:
    """A seeded, time-ordered packet trace of one of the workload kinds."""
    if kind == "caida":
        generator = CaidaLikeTraceGenerator(
            seed=seed, flow_population=params.get("flow_population")
        )
    elif kind == "ddos":
        generator = DdosTraceGenerator(
            DdosScenario(
                attacker_count=params["attackers"],
                attack_fraction=params["attack_share_pct"] / 100.0,
            ),
            seed=seed,
        )
    else:
        raise ValueError(f"unknown trace kind {kind!r}")
    return list(generator.packets(count))


def split_sites(records: Iterable[object], site_names: Sequence[str]) -> Dict[str, List[object]]:
    """Deal a trace across monitoring sites, packet by packet.

    Every site sees a 1/n thinning of the same flow mix.  Sharding by source
    address (``split_by_site``'s default) hands one site several times the
    records of another, differently for every seed, and the per-site node
    budget then sits on a different side of the compaction thresholds from
    run to run.
    """
    names = list(site_names)
    turn = itertools.count()
    return split_by_site(records, names, site_of=lambda _record: names[next(turn) % len(names)])


def tree_config(max_nodes: int) -> FlowtreeConfig:
    """Per-bin tree configuration: only the node budget is set."""
    return FlowtreeConfig(max_nodes=max_nodes)


def count_bytes(config: FlowtreeConfig) -> bool:
    return config.count_bytes


def full_key(record: object) -> FlowKey:
    """The fully specific key of one record."""
    return FlowKey.from_record(SCHEMA, record)


# -- the system under test ---------------------------------------------------------


def collector_config(bin_width: float, store_path: str, cache_bins: int) -> CollectorConfig:
    return CollectorConfig(
        bin_width=bin_width, store="file", store_path=store_path, cache_bins=cache_bins
    )


def open_deployment(
    site_names: Sequence[str],
    bin_width: float,
    max_nodes: int,
    store_path: str,
    cache_bins: int,
) -> Deployment:
    """The untraced system: real TCP, one collector, durable file store."""
    return Deployment(
        SCHEMA,
        list(site_names),
        bin_width=bin_width,
        daemon_config=tree_config(max_nodes),
        daemon_workers=0,
        collector_config=collector_config(bin_width, store_path, cache_bins),
        transport="tcp",
        collectors=1,
    )


def open_staged_endpoints(
    site_names: Sequence[str], bin_width: float, store_path: str, cache_bins: int
) -> Tuple[CollectorServer, Collector, Dict[str, SiteClient]]:
    """The same server / collector / clients a ``Deployment`` wires, unwired.

    The staged pass drives them hop by hop itself.  Callers close the
    clients, then the collector, then the server.
    """
    server = CollectorServer().start()
    try:
        collector = Collector(
            SCHEMA,
            server,
            name=COLLECTOR_NAME,
            config=collector_config(bin_width, store_path, cache_bins),
        )
    except BaseException:
        server.close()
        raise
    clients: Dict[str, SiteClient] = {}
    for site in site_names:
        client = SiteClient(server.host, server.port, site, collector_name=COLLECTOR_NAME)
        client.register(site)
        client.register(COLLECTOR_NAME)
        clients[site] = client
    return server, collector, clients


# -- stats surfaces ------------------------------------------------------------------


def tree_counters(tree: Flowtree) -> Dict[str, int]:
    """``UpdateStats`` fields the compaction metrics use."""
    stats = tree.stats
    return {
        "compactions": stats.compactions,
        "rebuilds": stats.rebuilds,
        "folded_nodes": stats.folded_nodes,
    }


def daemon_counters(deployment: Deployment) -> Dict[str, int]:
    """``DaemonStats`` summed over every site's daemon."""
    totals = {"bins_exported": 0, "late_records": 0}
    for name in deployment.site_names:
        stats = deployment.daemon(name).stats
        for field in totals:
            totals[field] += getattr(stats, field)
    return totals


def collector_counters(collector: Collector) -> Dict[str, int]:
    return {
        "messages": collector.messages_processed,
        "duplicates_dropped": collector.duplicates_dropped,
        "corrupt_dropped": collector.corrupt_dropped,
        "expired_dropped": collector.expired_dropped,
        "backlog": collector.pending_backlog,
    }


def store_counters(store: object) -> Dict[str, int]:
    """``StoreStats`` snapshot (puts, loads, cache_hits, evictions, ...)."""
    return store.stats.snapshot()


def net_counters(server: CollectorServer, clients: Dict[str, SiteClient]) -> Dict[str, int]:
    """Bytes and retries on the site -> collector path.

    ``wire_bytes`` is everything the clients wrote to their sockets: the
    server's accounting covers every summary frame it decoded (payload +
    frame header + CRC, resends included) and each connection adds one
    HELLO frame.
    """
    server_stats = server.stats()
    wire = server.bytes_sent()
    resends = 0
    for site, client in clients.items():
        stats = client.stats()
        resends += stats["frames_resent"]
        wire += stats["connects"] * len(encode_frame(encode_hello(site, COLLECTOR_NAME)))
    return {
        "wire_bytes": wire,
        "ack_bytes": server_stats["ack_bytes_sent"],
        "resends": resends,
    }


def deployment_net_counters(deployment: Deployment) -> Dict[str, int]:
    clients = {name: deployment.site_transport(name) for name in deployment.site_names}
    return net_counters(deployment.servers[0], clients)
