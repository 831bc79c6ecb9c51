"""In-process time-series store (the default backend).

Trees live as plain Python objects in nested dicts — no serialization on
the ingest path, no durability.  ``put`` is the commit: it swaps the bin's
reference, and ``get`` hands back the object the last ``put`` received.
Like every backend it holds committed state only, so callers never mutate
a tree they got from ``get``; they build the replacement aside and ``put``
it, and a failed ``put`` leaves the bin exactly as it was.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.flowtree import Flowtree
from repro.core.serialization import to_bytes
from repro.distributed.stores.base import TimeSeriesStore


class MemoryStore(TimeSeriesStore):
    """Keeps every bin tree in process memory (default backend)."""

    backend = "memory"
    durable = False

    def __init__(self) -> None:
        super().__init__()
        self._trees: Dict[str, Dict[int, Flowtree]] = {}
        self._meta: Dict[str, bytes] = {}

    def put(
        self,
        site: str,
        bin_index: int,
        tree: Flowtree,
        meta: Optional[Dict[str, bytes]] = None,
        payload: Optional[bytes] = None,
    ) -> None:
        # ``payload`` is ignored: this backend keeps the tree, not its bytes.
        self._check_commit_fault(site, bin_index)
        self._trees.setdefault(site, {})[bin_index] = tree
        for key, value in (meta or {}).items():
            self.set_meta(key, value)
        self.stats.puts += 1

    def get(self, site: str, bin_index: int) -> Optional[Flowtree]:
        return self._trees.get(site, {}).get(bin_index)

    def get_bytes(self, site: str, bin_index: int) -> Optional[bytes]:
        tree = self.get(site, bin_index)
        return None if tree is None else to_bytes(tree)

    def bin_indices(self, site: str) -> List[int]:
        return sorted(self._trees.get(site, {}))

    def sites(self) -> List[str]:
        return sorted(site for site, bins in self._trees.items() if bins)

    def delete_before(self, site: str, bin_index: int) -> int:
        bins = self._trees.get(site, {})
        old = [index for index in bins if index < bin_index]
        for index in old:
            del bins[index]
        return len(old)

    def set_meta(self, key: str, value: Optional[bytes]) -> None:
        if value is None:
            self._meta.pop(key, None)
        else:
            self._meta[key] = value

    def get_meta(self, key: str) -> Optional[bytes]:
        return self._meta.get(key)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def payload_bytes(self) -> int:
        return sum(
            len(to_bytes(tree)) for bins in self._trees.values() for tree in bins.values()
        )

    def disk_bytes(self) -> int:
        return 0
