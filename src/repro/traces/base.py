"""Synthetic trace generation framework.

The paper evaluates Flowtree on two packet captures (CAIDA Equinix-Chicago
and MAWI) that we cannot redistribute.  What the accuracy and storage
experiments actually depend on is the *statistical shape* of such traces:

* heavy-tailed flow popularity (a few flows carry most packets, most flows
  are one or two packets),
* hierarchical locality of addresses (popular /8s contain popular /16s,
  which contain popular /24s), so prefix aggregates are heavy-tailed too,
* a skewed port mix (a handful of well-known service ports plus a sea of
  ephemeral ports), and
* a protocol mix dominated by TCP.

:class:`TraceProfile` captures those knobs; :class:`SyntheticTraceGenerator`
turns a profile into a reproducible packet/flow stream.  The named
generators (:mod:`repro.traces.caida`, :mod:`repro.traces.mawi`, ...) are
thin wrappers that pick profile parameters matching the published
characteristics of the respective links.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.flows.records import FlowRecord, PacketRecord, packets_to_flows
from repro.traces.zipf import (
    ZipfRanks,
    lognormal_bytes,
    make_rng,
    truncated_power_law_sizes,
    weighted_choice,
)


@dataclass(frozen=True)
class AddressModel:
    """Hierarchical Zipf model of one side of the traffic matrix.

    Addresses are built from four nested levels (/8, /16, /24, host); each
    level has a pool size and a Zipf exponent, so popular /8s contain
    popular /16s and so on — the structure Flowtree's aggregation exploits.
    """

    top_count: int = 48
    mid_count: int = 96
    subnet_count: int = 128
    host_count: int = 192
    top_exponent: float = 1.1
    mid_exponent: float = 1.0
    subnet_exponent: float = 0.9
    host_exponent: float = 0.8

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` IPv4 addresses (as uint32) from the model."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        octet1 = _rank_to_octet(ZipfRanks(self.top_count, self.top_exponent, rng).sample(count), rng, 1)
        octet2 = _rank_to_octet(ZipfRanks(self.mid_count, self.mid_exponent, rng).sample(count), rng, 2)
        octet3 = _rank_to_octet(ZipfRanks(self.subnet_count, self.subnet_exponent, rng).sample(count), rng, 3)
        octet4 = _rank_to_octet(ZipfRanks(self.host_count, self.host_exponent, rng).sample(count), rng, 4)
        return (octet1 << 24) | (octet2 << 16) | (octet3 << 8) | octet4


def _rank_to_octet(ranks: np.ndarray, rng: np.random.Generator, level: int) -> np.ndarray:
    """Map popularity ranks to concrete octet values.

    A fixed permutation (derived from the generator's RNG) is applied so
    the most popular rank is not always octet 0; the mapping is stable for
    one generator instance, which keeps prefixes consistent across flows.
    """
    permutation = rng.permutation(256)
    return permutation[np.clip(ranks, 0, 255)]


@dataclass(frozen=True)
class PortModel:
    """Mixture of well-known service ports and ephemeral ports."""

    well_known: Tuple[int, ...] = (80, 443, 53, 22, 25, 123, 993, 8080, 3389, 445)
    well_known_weights: Tuple[float, ...] = (0.30, 0.34, 0.12, 0.04, 0.03, 0.03, 0.04, 0.05, 0.03, 0.02)
    well_known_fraction: float = 0.75
    ephemeral_low: int = 1024
    ephemeral_high: int = 65535

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` port numbers from the mixture."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        known = weighted_choice(self.well_known, self.well_known_weights, count, rng)
        ephemeral = rng.integers(self.ephemeral_low, self.ephemeral_high + 1, size=count)
        use_known = rng.random(count) < self.well_known_fraction
        return np.where(use_known, known, ephemeral)


@dataclass(frozen=True)
class ProtocolMix:
    """Categorical protocol distribution (IANA protocol numbers)."""

    values: Tuple[int, ...] = (6, 17, 1, 47)
    weights: Tuple[float, ...] = (0.84, 0.13, 0.02, 0.01)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` protocol numbers."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return weighted_choice(self.values, self.weights, count, rng)


@dataclass(frozen=True)
class TraceProfile:
    """Complete parameterization of a synthetic trace."""

    name: str = "generic"
    flow_population: int = 200_000
    popularity_exponent: float = 1.05
    src_addresses: AddressModel = field(default_factory=AddressModel)
    dst_addresses: AddressModel = field(default_factory=AddressModel)
    src_ports: PortModel = field(default_factory=lambda: PortModel(well_known_fraction=0.15))
    dst_ports: PortModel = field(default_factory=PortModel)
    protocols: ProtocolMix = field(default_factory=ProtocolMix)
    packet_bytes_mean: float = 6.0
    packet_bytes_sigma: float = 0.9
    mean_packet_interval: float = 0.00001
    start_time: float = 1_500_000_000.0

    def __post_init__(self) -> None:
        if self.flow_population < 1:
            raise ConfigurationError("flow_population must be positive")
        if self.mean_packet_interval <= 0:
            raise ConfigurationError("mean_packet_interval must be positive")

    def scaled(self, flow_population: int) -> "TraceProfile":
        """Copy of the profile with a different flow population (for sweeps)."""
        return replace(self, flow_population=flow_population)


class TraceGenerator(abc.ABC):
    """Common interface of all trace generators."""

    @abc.abstractmethod
    def packets(self, count: int) -> Iterator[PacketRecord]:
        """Yield ``count`` packet records in timestamp order."""

    def flows(self, packet_count: int, active_timeout: float = 60.0) -> Iterator[FlowRecord]:
        """Yield the flow records a router's flow cache would export.

        Convenience wrapper: generates ``packet_count`` packets and runs
        them through :func:`repro.flows.records.packets_to_flows`.
        """
        return packets_to_flows(self.packets(packet_count), active_timeout=active_timeout)


class SyntheticTraceGenerator(TraceGenerator):
    """Reproducible packet stream following a :class:`TraceProfile`.

    The generator first materializes a *flow population* — five-tuples with
    Zipf popularity ranks — and then emits packets by sampling flows from
    that population, so per-flow packet counts follow the configured heavy
    tail while addresses and ports keep their hierarchical structure.
    """

    def __init__(self, profile: TraceProfile, seed: Optional[int] = 0) -> None:
        self._profile = profile
        self._seed = seed
        self._rng = make_rng(seed)
        self._population: Optional[Tuple[np.ndarray, ...]] = None
        self._popularity: Optional[ZipfRanks] = None

    @property
    def profile(self) -> TraceProfile:
        """The profile this generator follows."""
        return self._profile

    @property
    def seed(self) -> Optional[int]:
        """Seed used for reproducibility."""
        return self._seed

    # -- population -----------------------------------------------------------

    def _ensure_population(self) -> None:
        if self._population is not None:
            return
        profile = self._profile
        count = profile.flow_population
        src = profile.src_addresses.sample(count, self._rng)
        dst = profile.dst_addresses.sample(count, self._rng)
        sport = profile.src_ports.sample(count, self._rng)
        dport = profile.dst_ports.sample(count, self._rng)
        proto = profile.protocols.sample(count, self._rng)
        # ICMP and other port-less protocols carry no transport ports.
        portless = (proto != 6) & (proto != 17)
        sport = np.where(portless, 0, sport)
        dport = np.where(portless, 0, dport)
        self._population = (src, dst, sport, dport, proto)
        self._popularity = ZipfRanks(count, profile.popularity_exponent, self._rng)

    def flow_population(self) -> List[Tuple[int, int, int, int, int]]:
        """The five-tuples of the flow population (src, dst, sport, dport, proto)."""
        self._ensure_population()
        src, dst, sport, dport, proto = self._population
        return [
            (int(s), int(d), int(sp), int(dp), int(p))
            for s, d, sp, dp, p in zip(src, dst, sport, dport, proto)
        ]

    # -- packet stream -----------------------------------------------------------

    def packets(self, count: int, chunk_size: int = 65_536) -> Iterator[PacketRecord]:
        """Yield ``count`` packets in timestamp order (chunked, bounded memory)."""
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        self._ensure_population()
        profile = self._profile
        src, dst, sport, dport, proto = self._population
        clock = profile.start_time
        remaining = count
        while remaining > 0:
            batch = min(chunk_size, remaining)
            remaining -= batch
            indices = self._popularity.sample(batch)
            sizes = lognormal_bytes(
                batch, profile.packet_bytes_mean, profile.packet_bytes_sigma, self._rng
            )
            gaps = self._rng.exponential(profile.mean_packet_interval, size=batch)
            timestamps = clock + np.cumsum(gaps)
            clock = float(timestamps[-1]) if batch else clock
            flags = np.where(self._rng.random(batch) < 0.6, 0x18, 0x10)
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
                    tcp_flags=int(flags[i]) if proto[index] == 6 else 0,
                )


def interleave_by_time(streams: Sequence[Iterator[PacketRecord]]) -> Iterator[PacketRecord]:
    """Merge several packet streams into one, ordered by timestamp.

    Used to overlay attack traffic (DDoS, scans) on top of a background
    trace; streams must each be internally time-ordered.
    """
    import heapq

    def keyed(stream_index: int, stream: Iterator[PacketRecord]):
        for packet in stream:
            yield packet.timestamp, stream_index, packet

    merged = heapq.merge(*[keyed(i, s) for i, s in enumerate(streams)])
    for _, _, packet in merged:
        yield packet
