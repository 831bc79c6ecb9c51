"""Pluggable time-series storage backends for the collector.

The paper's headline storage claim (>95 % reduction vs. raw capture) only
means something if summaries persist somewhere.  This package provides
the :class:`~repro.distributed.stores.base.TimeSeriesStore` interface and
two backends behind :class:`~repro.distributed.timeseries.FlowtreeTimeSeries`
and :class:`~repro.distributed.collector.Collector`:

========== ============ ======================================================
backend    durable      shape
========== ============ ======================================================
``memory`` no           live trees in process dicts (pre-store behavior)
``file``   yes          append-only segments + atomically replaced index
========== ============ ======================================================

The ``file`` backend reads through an LRU hot-bin cache with lazy
deserialization, so range queries only materialize the bins they touch.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.distributed.stores.base import (
    DEFAULT_CACHE_BINS,
    STORE_KINDS,
    StoreStats,
    TimeSeriesStore,
    pack_float,
    pack_int_pairs,
    pack_ints,
    unpack_float,
    unpack_int_pairs,
    unpack_ints,
)
from repro.distributed.stores.memory import MemoryStore
from repro.distributed.stores.segment import SegmentFileStore, holds_segment_store


def open_store(
    kind: str = "memory",
    path: Optional[os.PathLike] = None,
    cache_bins: int = DEFAULT_CACHE_BINS,
) -> TimeSeriesStore:
    """Open (creating or reopening) a time-series store of the given kind.

    ``path`` is the ``file`` store's directory; it is required for
    ``file`` and rejected for ``memory``.
    """
    if kind not in STORE_KINDS:
        raise ConfigurationError(
            f"unknown store kind {kind!r}; expected one of {sorted(STORE_KINDS)}"
        )
    if kind == "memory":
        if path is not None:
            raise ConfigurationError("the memory store does not take a path")
        return MemoryStore()
    if path is None:
        raise ConfigurationError(f"the {kind!r} store needs a path")
    return SegmentFileStore(path, cache_bins=cache_bins)


__all__ = [
    "TimeSeriesStore",
    "MemoryStore",
    "SegmentFileStore",
    "holds_segment_store",
    "StoreStats",
    "open_store",
    "STORE_KINDS",
    "DEFAULT_CACHE_BINS",
    "pack_float",
    "unpack_float",
    "pack_ints",
    "unpack_ints",
    "pack_int_pairs",
    "unpack_int_pairs",
]
