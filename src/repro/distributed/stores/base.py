"""Storage interface for collector time series.

A :class:`TimeSeriesStore` persists one serialized Flowtree per
``(site, bin_index)`` plus a small metadata key/value space (bin origins,
diff-decoder baselines, dedup guards).  Two backends implement it:

* :class:`~repro.distributed.stores.memory.MemoryStore` — committed trees
  held in process memory (the default),
* :class:`~repro.distributed.stores.segment.SegmentFileStore` — the durable
  one: append-only segment files plus an atomically-replaced index, read
  through an LRU *hot-bin cache* of deserialized trees, so repeated
  queries against the same bins never re-parse, and reads of untouched
  bins never materialize at all (range merges only deserialize the bins
  the range selects).

The one invariant every backend keeps: a store holds *committed* state
only.  :meth:`TimeSeriesStore.put` is the commit point and the only way a
bin changes; a tree obtained from :meth:`TimeSeriesStore.get` is the
committed bin and must not be mutated — build the replacement aside
(``existing.merged(update)``) and ``put`` it.  A failed ``put`` therefore
leaves the served tree, the cached tree and the backend bytes exactly as
they were, eviction never writes, and :meth:`TimeSeriesStore.flush` is
purely a durability barrier.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from types import TracebackType
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import SerializationError
from repro.core.flowtree import Flowtree
from repro.distributed.faults import FAULT_STORE_COMMIT, FaultPlan
from repro.core.serialization import (
    decode_varint,
    decode_zigzag,
    encode_varint,
    encode_zigzag,
)

DEFAULT_CACHE_BINS = 64

#: Valid ``--store`` / :attr:`CollectorConfig.store` values.
STORE_KINDS = ("memory", "file")


# -- metadata value codecs -------------------------------------------------------
#
# Store metadata values are raw bytes; these helpers give the collector and
# the time series fixed encodings for the few typed values they persist.


def pack_float(value: float) -> bytes:
    """Big-endian IEEE 754 double (used for bin origins)."""
    return struct.pack(">d", value)


def unpack_float(data: bytes) -> float:
    """Inverse of :func:`pack_float`."""
    if len(data) != 8:
        raise SerializationError(f"expected an 8-byte float value, got {len(data)} bytes")
    return struct.unpack(">d", data)[0]


def pack_ints(values: Iterable[int]) -> bytes:
    """Signed varint sequence (used for counters and dedup guards)."""
    out = bytearray()
    items = list(values)
    encode_varint(len(items), out)
    for value in items:
        encode_zigzag(value, out)
    return bytes(out)


def unpack_ints(data: bytes) -> List[int]:
    """Inverse of :func:`pack_ints`."""
    count, offset = decode_varint(data, 0)
    values = []
    for _ in range(count):
        value, offset = decode_zigzag(data, offset)
        values.append(value)
    return values


def pack_int_pairs(pairs: Iterable[Tuple[int, int]]) -> bytes:
    """Flattened :func:`pack_ints` of ``(a, b)`` pairs (dedup guard sets)."""
    flat: List[int] = []
    for a, b in sorted(pairs):
        flat.extend((a, b))
    return pack_ints(flat)


def unpack_int_pairs(data: bytes) -> Set[Tuple[int, int]]:
    """Inverse of :func:`pack_int_pairs`."""
    flat = unpack_ints(data)
    if len(flat) % 2:
        raise SerializationError("odd number of values in an int-pair sequence")
    return {(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)}


@dataclass
class StoreStats:
    """Operational counters of one store (cache behavior, IO volume)."""

    puts: int = 0
    loads: int = 0  # deserializations from the backend
    cache_hits: int = 0
    evictions: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy for reporting."""
        return {
            "puts": self.puts,
            "loads": self.loads,
            "cache_hits": self.cache_hits,
            "evictions": self.evictions,
        }


class TimeSeriesStore(ABC):
    """Persistence interface behind :class:`~repro.distributed.timeseries.FlowtreeTimeSeries`.

    Bin payloads are the compact binary summary format of
    :func:`repro.core.serialization.to_bytes`; metadata values are opaque
    bytes.  ``put`` is the durable commit point: the bin payload and any
    metadata updates passed alongside it become visible atomically, so a
    crash between two ``put`` calls can never expose a half-applied
    message (the property the collector's restart recovery relies on).
    It is also the *only* write: trees handed out by ``get`` are committed
    state and are never mutated by callers.
    """

    #: Short backend identifier (``memory`` / ``file``).
    backend: str = "abstract"
    #: Whether the backend survives process restarts.
    durable: bool = False

    def __init__(self) -> None:
        self.stats = StoreStats()
        #: Optional fault plan consulted at the commit seams (``None`` =
        #: no overhead beyond one attribute check per ``put``).
        self.faults: Optional[FaultPlan] = None

    def attach_faults(self, plan: Optional[FaultPlan]) -> None:
        """Wire a fault plan into this store's commit seams."""
        self.faults = plan

    def _check_commit_fault(self, site: str, bin_index: int) -> None:
        """Raise the armed commit-fail fault before any mutation."""
        faults = self.faults
        if faults is not None and faults.should_fire(FAULT_STORE_COMMIT):
            raise faults.inject(
                FAULT_STORE_COMMIT, f"store commit for bin ({site!r}, {bin_index})"
            )

    # -- bins -----------------------------------------------------------------

    @abstractmethod
    def put(
        self,
        site: str,
        bin_index: int,
        tree: Flowtree,
        meta: Optional[Dict[str, bytes]] = None,
        payload: Optional[bytes] = None,
    ) -> None:
        """Install (or replace) one bin's tree, atomically with ``meta`` updates.

        ``payload``, when given, must be a valid FTRE encoding of ``tree``:
        a serializing backend commits it verbatim instead of encoding
        ``tree`` again.  Encoding is canonical, so for any payload
        :func:`~repro.core.serialization.to_bytes` produced (e.g. the bytes
        a daemon shipped, which decoded to ``tree``) it equals
        ``to_bytes(tree)`` — the stored bytes are the same either way.
        """

    @abstractmethod
    def get(self, site: str, bin_index: int) -> Optional[Flowtree]:
        """The committed tree of one bin (lazily deserialized; read-only), or ``None``."""

    @abstractmethod
    def get_bytes(self, site: str, bin_index: int) -> Optional[bytes]:
        """The serialized form of one bin, or ``None``."""

    @abstractmethod
    def bin_indices(self, site: str) -> List[int]:
        """Sorted indices of the site's populated bins."""

    @abstractmethod
    def sites(self) -> List[str]:
        """Sorted names of all sites with at least one bin."""

    @abstractmethod
    def delete_before(self, site: str, bin_index: int) -> int:
        """Drop the site's bins with index below ``bin_index``; returns bins removed."""

    # -- metadata --------------------------------------------------------------

    @abstractmethod
    def set_meta(self, key: str, value: Optional[bytes]) -> None:
        """Set (or, with ``None``, delete) one metadata value."""

    @abstractmethod
    def get_meta(self, key: str) -> Optional[bytes]:
        """One metadata value, or ``None``."""

    def set_meta_many(self, updates: Dict[str, Optional[bytes]]) -> None:
        """Apply several metadata updates (backends override to commit once)."""
        for key, value in updates.items():
            self.set_meta(key, value)

    # -- lifecycle / accounting ---------------------------------------------------

    @abstractmethod
    def flush(self) -> None:
        """Durability barrier: force every committed ``put`` to stable storage."""

    @abstractmethod
    def close(self) -> None:
        """Flush and release backend resources (idempotent)."""

    @abstractmethod
    def payload_bytes(self) -> int:
        """Total serialized bin payload bytes the backend holds."""

    @abstractmethod
    def disk_bytes(self) -> int:
        """Actual on-disk footprint in bytes (0 for in-memory backends)."""

    def bin_count(self) -> int:
        """Total populated bins across all sites."""
        return sum(len(self.bin_indices(site)) for site in self.sites())

    def __enter__(self) -> "TimeSeriesStore":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.close()

