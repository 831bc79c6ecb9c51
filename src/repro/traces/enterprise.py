"""Enterprise / ISP-edge trace generator.

Models the traffic an ISP site in the paper's Fig. 1 scenario would see: a
bounded "inside" address space (the site's customers) exchanging traffic
with the wider Internet, with a pronounced peering structure on the outside
(a few peer networks originate most of the inbound traffic).  Used by the
multi-site example and the Fig. 1 benchmark, where the per-peer volume
query ("how much did peer P send to all of our five sites in the last 24
hours?") needs a traffic matrix with identifiable peers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.features.ipaddr import ipv4_to_int
from repro.flows.records import PacketRecord
from repro.traces.base import PortModel, ProtocolMix, TraceGenerator
from repro.traces.zipf import ZipfRanks, lognormal_bytes, make_rng, weighted_choice


@dataclass(frozen=True)
class PeerNetwork:
    """One peer/upstream network sending traffic into the site."""

    name: str
    prefix: str
    prefix_bits: int
    weight: float


#: Default peer mix: a handful of /8-to-/12 scale peers with skewed volume.
DEFAULT_PEERS: Tuple[PeerNetwork, ...] = (
    PeerNetwork("peer-alpha", "11.0.0.0", 8, 0.38),
    PeerNetwork("peer-beta", "23.64.0.0", 12, 0.24),
    PeerNetwork("peer-gamma", "45.80.0.0", 12, 0.16),
    PeerNetwork("peer-delta", "77.0.0.0", 10, 0.12),
    PeerNetwork("peer-epsilon", "91.192.0.0", 12, 0.10),
)


class EnterpriseTraceGenerator(TraceGenerator):
    """Inbound traffic of one ISP site: peers on the outside, customers inside."""

    def __init__(
        self,
        site_prefix: str = "100.64.0.0",
        site_prefix_bits: int = 16,
        peers: Sequence[PeerNetwork] = DEFAULT_PEERS,
        seed: Optional[int] = 0,
        customer_count: int = 4_000,
        flows_per_customer: int = 30,
    ) -> None:
        if not peers:
            raise ValueError("at least one peer network is required")
        self._site_network = ipv4_to_int(site_prefix)
        self._site_bits = site_prefix_bits
        self._peers = tuple(peers)
        self._seed = seed
        self._rng = make_rng(seed)
        self._customer_count = customer_count
        self._flows_per_customer = flows_per_customer
        self._ports = PortModel()
        self._protocols = ProtocolMix()
        self._population: Optional[Tuple[np.ndarray, ...]] = None
        self._popularity: Optional[ZipfRanks] = None

    @property
    def peers(self) -> Tuple[PeerNetwork, ...]:
        """The peer networks traffic originates from."""
        return self._peers

    def _ensure_population(self) -> None:
        if self._population is not None:
            return
        rng = self._rng
        count = self._customer_count * self._flows_per_customer
        peer_index = weighted_choice(
            list(range(len(self._peers))),
            [peer.weight for peer in self._peers],
            count,
            rng,
        )
        src = np.zeros(count, dtype=np.int64)
        for index, peer in enumerate(self._peers):
            mask = peer_index == index
            host_bits = 32 - peer.prefix_bits
            hosts = ZipfRanks(1 << min(host_bits, 20), 0.9, rng).sample(int(mask.sum()))
            src[mask] = ipv4_to_int(peer.prefix) | hosts
        customer_ranks = ZipfRanks(self._customer_count, 1.1, rng).sample(count)
        host_bits = 32 - self._site_bits
        dst = self._site_network | (customer_ranks % (1 << host_bits))
        sport = PortModel(well_known_fraction=0.1).sample(count, rng)
        dport = self._ports.sample(count, rng)
        proto = self._protocols.sample(count, rng)
        self._population = (src, dst, sport, dport, proto)
        self._popularity = ZipfRanks(count, 1.0, rng)

    def packets(self, count: int, chunk_size: int = 65_536) -> Iterator[PacketRecord]:
        """Yield ``count`` inbound packets for this site."""
        self._ensure_population()
        src, dst, sport, dport, proto = self._population
        clock = 1_500_000_000.0
        remaining = count
        rng = self._rng
        while remaining > 0:
            batch = min(chunk_size, remaining)
            remaining -= batch
            indices = self._popularity.sample(batch)
            sizes = lognormal_bytes(batch, 6.2, 1.0, rng)
            gaps = rng.exponential(1e-5, size=batch)
            timestamps = clock + np.cumsum(gaps)
            clock = float(timestamps[-1]) if batch else clock
            for i in range(batch):
                index = indices[i]
                yield PacketRecord(
                    timestamp=float(timestamps[i]),
                    src_ip=int(src[index]),
                    dst_ip=int(dst[index]),
                    src_port=int(sport[index]),
                    dst_port=int(dport[index]),
                    protocol=int(proto[index]),
                    bytes=int(sizes[i]),
                )
