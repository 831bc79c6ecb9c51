"""Storage and transfer cost accounting (paper claim: > 95 % reduction).

The abstract claims Flowtree "reduces the storage requirements by more than
95 % while providing highly accurate answers".  This module computes both
sides of that comparison for a given workload:

* the raw-capture side — the bytes needed to store/ship the same traffic as
  NetFlow v5 datagrams, IPFIX messages or CSV archives (per-packet pcap is
  reported too, as the upper bound), and
* the summary side — the serialized Flowtree (binary, compressed binary,
  JSON).

The transfer-cost variant compares shipping per-bin full summaries against
shipping diffs of consecutive summaries (CLAIM-TRANSFER).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.flowtree import Flowtree
from repro.core.serialization import to_bytes, to_json
from repro.distributed.diffsync import transfer_comparison
from repro.flows import ipfix as ipfix_codec
from repro.flows import netflow as netflow_codec
from repro.flows.csv_io import csv_export_size
from repro.flows.records import FlowRecord


@dataclass(frozen=True)
class StorageReport:
    """Raw-capture vs. summary sizes for one workload."""

    flow_count: int
    packet_count: int
    netflow_bytes: int
    ipfix_bytes: int
    csv_bytes: int
    pcap_bytes_estimate: int
    summary_bytes: int
    summary_compressed_bytes: int
    summary_json_bytes: int
    summary_nodes: int

    @property
    def reduction_vs_netflow(self) -> float:
        """``1 - summary/netflow`` (the paper's storage-reduction number)."""
        if self.netflow_bytes == 0:
            return 0.0
        return 1.0 - self.summary_compressed_bytes / self.netflow_bytes

    @property
    def reduction_vs_csv(self) -> float:
        """Reduction relative to a CSV archive of the same flows."""
        if self.csv_bytes == 0:
            return 0.0
        return 1.0 - self.summary_compressed_bytes / self.csv_bytes

    @property
    def reduction_vs_pcap(self) -> float:
        """Reduction relative to storing full packets."""
        if self.pcap_bytes_estimate == 0:
            return 0.0
        return 1.0 - self.summary_compressed_bytes / self.pcap_bytes_estimate

    def rows(self) -> List[Dict[str, object]]:
        """Paper-style table rows (representation, bytes, reduction)."""
        return [
            {"representation": "raw pcap (estimate)", "bytes": self.pcap_bytes_estimate,
             "reduction_vs_flowtree": self.reduction_vs_pcap},
            {"representation": "NetFlow v5 export", "bytes": self.netflow_bytes,
             "reduction_vs_flowtree": self.reduction_vs_netflow},
            {"representation": "IPFIX export", "bytes": self.ipfix_bytes,
             "reduction_vs_flowtree": 1.0 - (self.summary_compressed_bytes / self.ipfix_bytes
                                             if self.ipfix_bytes else 0.0)},
            {"representation": "CSV archive", "bytes": self.csv_bytes,
             "reduction_vs_flowtree": self.reduction_vs_csv},
            {"representation": "Flowtree (binary)", "bytes": self.summary_bytes,
             "reduction_vs_flowtree": None},
            {"representation": "Flowtree (compressed)", "bytes": self.summary_compressed_bytes,
             "reduction_vs_flowtree": None},
            {"representation": "Flowtree (JSON)", "bytes": self.summary_json_bytes,
             "reduction_vs_flowtree": None},
        ]


def storage_report(
    tree: Flowtree,
    flows: Sequence[FlowRecord],
    packet_count: Optional[int] = None,
    mean_packet_bytes: int = 700,
) -> StorageReport:
    """Build a :class:`StorageReport` for a summary and the flows it covered.

    ``flows`` should be the flow records the capture would have exported
    (used for the NetFlow/IPFIX/CSV sizes); ``packet_count`` and
    ``mean_packet_bytes`` size the pcap estimate without materializing it.
    """
    flow_list = list(flows)
    packets = packet_count if packet_count is not None else sum(f.packets for f in flow_list)
    pcap_estimate = packets * (16 + 14 + mean_packet_bytes)  # per-packet header + frame
    return StorageReport(
        flow_count=len(flow_list),
        packet_count=packets,
        netflow_bytes=netflow_codec.raw_export_size(len(flow_list)),
        ipfix_bytes=ipfix_codec.raw_export_size(len(flow_list)),
        csv_bytes=csv_export_size(flow_list),
        pcap_bytes_estimate=pcap_estimate,
        summary_bytes=len(to_bytes(tree, compress=False)),
        summary_compressed_bytes=len(to_bytes(tree, compress=True)),
        summary_json_bytes=len(to_json(tree).encode("utf-8")),
        summary_nodes=tree.node_count(),
    )


@dataclass(frozen=True)
class StoreFootprint:
    """What one collector storage backend actually holds (CLAIM-STORE).

    ``payload_bytes`` is the sum of the serialized per-bin summaries — the
    number the :class:`StorageReport` reduction claim is stated over —
    while ``disk_bytes`` is the backend's real file footprint including
    its index/journal overhead (0 for the in-memory backend).
    """

    backend: str
    durable: bool
    sites: int
    bins: int
    payload_bytes: int
    disk_bytes: int

    def rows(self) -> List[Dict[str, object]]:
        """Report-table rows (used by the CLI ``store-info`` command)."""
        return [
            {"metric": "backend", "value": self.backend},
            {"metric": "durable", "value": self.durable},
            {"metric": "sites", "value": self.sites},
            {"metric": "bins", "value": self.bins},
            {"metric": "payload_bytes", "value": self.payload_bytes},
            {"metric": "disk_bytes", "value": self.disk_bytes},
        ]


def store_footprint(store) -> StoreFootprint:
    """Measure a :class:`~repro.distributed.stores.base.TimeSeriesStore`.

    Flushes dirty bins first so the payload accounting reflects what a
    restarted collector would actually find.
    """
    store.flush()
    return StoreFootprint(
        backend=store.backend,
        durable=store.durable,
        sites=len(store.sites()),
        bins=store.bin_count(),
        payload_bytes=store.payload_bytes(),
        disk_bytes=store.disk_bytes(),
    )


@dataclass(frozen=True)
class TransferReport:
    """Full-summary vs. diff-based transfer volume for a summary sequence."""

    bins: int
    full_bytes: int
    diff_bytes: int
    raw_netflow_bytes: int

    @property
    def diff_savings(self) -> float:
        """Bytes saved by diffs relative to always shipping full summaries."""
        if self.full_bytes == 0:
            return 0.0
        return 1.0 - self.diff_bytes / self.full_bytes

    @property
    def reduction_vs_raw(self) -> float:
        """Diff-transfer bytes relative to shipping the raw NetFlow export."""
        if self.raw_netflow_bytes == 0:
            return 0.0
        return 1.0 - self.diff_bytes / self.raw_netflow_bytes


def transfer_report(trees: Sequence[Flowtree], flows_per_bin: Sequence[int]) -> TransferReport:
    """Compare transfer strategies for a time-ordered sequence of summaries."""
    tree_list = list(trees)
    full_bytes, diff_bytes = transfer_comparison(tree_list)
    raw_bytes = sum(netflow_codec.raw_export_size(count) for count in flows_per_bin)
    return TransferReport(
        bins=len(tree_list),
        full_bytes=full_bytes,
        diff_bytes=diff_bytes,
        raw_netflow_bytes=raw_bytes,
    )
