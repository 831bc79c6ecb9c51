"""Append-only segment-file time-series store.

Layout under the store directory::

    index.json              # atomically replaced on every commit
    segments/seg-00000001.dat
    segments/seg-00000002.dat
    ...

Bin payloads are appended to the active segment as framed records
(``FTSG`` magic, site, bin index, payload, CRC-32); the index file maps
``(site, bin)`` to the *latest* payload's ``(segment, offset, length,
crc)`` and carries the metadata key/value space.  Commit protocol:

1. append the record to the active segment and flush it,
2. write the updated index to ``index.json.tmp``,
3. ``os.replace`` it over ``index.json``.

With ``fsync=True`` each step is also fsynced, the rename through the
store directory.  The index rewrite is O(bins) per commit.

The rename is the commit point.  A crash at any earlier step leaves the
old index in place, so the half-written record is simply invisible —
stale bytes at a segment tail are never read because reads go through
indexed offsets only, and every payload is CRC-checked on read.  Replaced
and evicted bins leave dead bytes behind in their segments (append-only
stores reclaim them by segment compaction, which this reproduction does
not need at its scale); the index is always the source of truth.

Reads go through an LRU hot-bin cache of deserialized trees: a bin
materializes on first touch and stays hot, and :meth:`SegmentFileStore.put`
writes through before the tree enters the cache — so the cache only ever
holds committed trees and eviction just drops them.
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Tuple

from repro.core.errors import SerializationError
from repro.core.flowtree import Flowtree
from repro.core.serialization import encode_varint, encode_zigzag, from_bytes, to_bytes
from repro.distributed.faults import FAULT_STORE_TORN_WRITE
from repro.distributed.stores.base import DEFAULT_CACHE_BINS, TimeSeriesStore

RECORD_MAGIC = b"FTSG"
INDEX_FORMAT = "flowtree-segment-index"
INDEX_VERSION = 1
DEFAULT_SEGMENT_MAX_BYTES = 4 * 1024 * 1024

#: ``(segment number, payload offset, payload length, payload crc32)``
_Entry = Tuple[int, int, int, int]


def _fsync_directory(path: Path) -> None:
    """Make the directory's entries (created and renamed files) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def holds_segment_store(path: os.PathLike) -> bool:
    """Whether ``path`` holds a segment store (its ``index.json`` exists).

    Answers without creating anything, unlike opening a
    :class:`SegmentFileStore`.
    """
    return (Path(path) / "index.json").is_file()


class SegmentFileStore(TimeSeriesStore):
    """Durable store over append-only segments plus an atomic index file."""

    backend = "file"
    durable = True

    def __init__(
        self,
        path: os.PathLike,
        cache_bins: int = DEFAULT_CACHE_BINS,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        fsync: bool = False,
    ) -> None:
        """``fsync=True`` additionally fsyncs segment + index on every
        commit, and the store directory after each index rename (OS-crash
        durability); the default flushes user-space buffers per commit and
        fsyncs on :meth:`flush`/:meth:`close`, which is what process-crash
        recovery needs."""
        super().__init__()
        if cache_bins < 1:
            raise ValueError(f"cache_bins must be positive, got {cache_bins}")
        if segment_max_bytes < 1:
            raise ValueError(f"segment_max_bytes must be positive, got {segment_max_bytes}")
        self._path = Path(path)
        self._segment_max_bytes = segment_max_bytes
        self._fsync = fsync
        self._segments_dir = self._path / "segments"
        self._segments_dir.mkdir(parents=True, exist_ok=True)
        self._bins: Dict[str, Dict[int, _Entry]] = {}
        self._meta: Dict[str, bytes] = {}
        self._active_segment = 1
        self._writer: Optional[BinaryIO] = None
        self._readers: Dict[int, BinaryIO] = {}
        self._cache_bins = cache_bins
        self._cache: "OrderedDict[Tuple[str, int], Flowtree]" = OrderedDict()
        self._closed = False
        self._load_index()

    # -- bins ---------------------------------------------------------------------

    def put(
        self,
        site: str,
        bin_index: int,
        tree: Flowtree,
        meta: Optional[Dict[str, bytes]] = None,
        payload: Optional[bytes] = None,
    ) -> None:
        self._check_commit_fault(site, bin_index)
        if payload is None:
            payload = to_bytes(tree)
        updates: Dict[str, Optional[bytes]] = {
            key: value for key, value in (meta or {}).items()
        }
        self._write_payload(site, bin_index, payload, updates)
        self._cache_insert(site, bin_index, tree)
        self.stats.puts += 1

    def get(self, site: str, bin_index: int) -> Optional[Flowtree]:
        tree = self._cache.get((site, bin_index))
        if tree is not None:
            self._cache.move_to_end((site, bin_index))
            self.stats.cache_hits += 1
            return tree
        payload = self._read_payload(site, bin_index)
        if payload is None:
            return None
        tree = from_bytes(payload)
        self.stats.loads += 1
        self._cache_insert(site, bin_index, tree)
        return tree

    def get_bytes(self, site: str, bin_index: int) -> Optional[bytes]:
        return self._read_payload(site, bin_index)

    def delete_before(self, site: str, bin_index: int) -> int:
        for key in [k for k in self._cache if k[0] == site and k[1] < bin_index]:
            del self._cache[key]
        return self._delete_bins(site, bin_index)

    def _cache_insert(self, site: str, bin_index: int, tree: Flowtree) -> None:
        key = (site, bin_index)
        self._cache[key] = tree
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_bins:
            self._cache.popitem(last=False)
            self.stats.evictions += 1

    # -- index ------------------------------------------------------------------

    @property
    def _index_path(self) -> Path:
        return self._path / "index.json"

    def _segment_path(self, number: int) -> Path:
        return self._segments_dir / f"seg-{number:08d}.dat"

    def _load_index(self) -> None:
        if not self._index_path.exists():
            return
        try:
            document = json.loads(self._index_path.read_text())
        except (OSError, ValueError) as exc:
            raise SerializationError(f"unreadable segment-store index: {exc}") from exc
        if document.get("format") != INDEX_FORMAT:
            raise SerializationError(f"not a segment-store index: {self._index_path}")
        if document.get("version") != INDEX_VERSION:
            raise SerializationError(
                f"unsupported segment-store index version {document.get('version')}"
            )
        for site, bins in document.get("bins", {}).items():
            self._bins[site] = {
                int(index): (int(entry[0]), int(entry[1]), int(entry[2]), int(entry[3]))
                for index, entry in bins.items()
            }
        self._meta = {
            key: base64.b64decode(value)
            for key, value in document.get("meta", {}).items()
        }
        self._active_segment = int(document.get("active_segment", 1))

    def _commit_index(self) -> None:
        # Entries stay tuples (JSON writes them as arrays, like lists): a
        # list per bin per commit is a burst of garbage-collector-tracked
        # allocations that grows with the store.
        document = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "active_segment": self._active_segment,
            "bins": {
                site: {str(index): entry for index, entry in bins.items()}
                for site, bins in self._bins.items()
            },
            "meta": {
                key: base64.b64encode(value).decode("ascii")
                for key, value in self._meta.items()
            },
        }
        tmp_path = self._path / "index.json.tmp"
        with open(tmp_path, "w") as handle:
            # ``dumps`` runs the C encoder (``dump`` streams through the
            # pure-Python one); the text is the same.
            handle.write(json.dumps(document))
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, self._index_path)
        if self._fsync:
            _fsync_directory(self._path)

    # -- segment writing -----------------------------------------------------------

    def _open_writer(self) -> BinaryIO:
        if self._writer is None:
            self._writer = open(self._segment_path(self._active_segment), "ab")
            self._writer.seek(0, os.SEEK_END)
            if self._fsync:
                # The segment file may have just been created.
                _fsync_directory(self._segments_dir)
        return self._writer

    def _roll_if_needed(self) -> None:
        writer = self._open_writer()
        if writer.tell() >= self._segment_max_bytes:
            # A sealed segment is never written again, so this is the last
            # chance to make its tail durable (flush() covers only the
            # active one).
            os.fsync(writer.fileno())
            writer.close()
            self._writer = None
            self._active_segment += 1
            self._open_writer()

    def _write_payload(
        self, site: str, bin_index: int, payload: bytes, meta: Dict[str, Optional[bytes]]
    ) -> None:
        """Durably commit one bin payload plus metadata updates, atomically."""
        self._roll_if_needed()
        writer = self._open_writer()
        site_raw = site.encode("utf-8")
        header = bytearray(RECORD_MAGIC)
        encode_varint(len(site_raw), header)
        header.extend(site_raw)
        encode_zigzag(bin_index, header)
        encode_varint(len(payload), header)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        record_start = writer.tell()
        payload_offset = record_start + len(header)
        faults = self.faults
        if faults is not None and faults.should_fire(FAULT_STORE_TORN_WRITE):
            # A torn write: half the payload reaches the segment, then the
            # "process" dies before the index commit.  The stale tail must
            # stay invisible — reads go through indexed offsets only, and
            # this record never entered the index.
            writer.write(bytes(header) + payload[: len(payload) // 2])
            writer.flush()
            raise faults.inject(
                FAULT_STORE_TORN_WRITE,
                f"torn segment write for bin ({site!r}, {bin_index}) "
                f"at offset {record_start}",
            )
        writer.write(bytes(header) + payload + crc.to_bytes(4, "big"))
        writer.flush()
        if self._fsync:
            os.fsync(writer.fileno())
        self._bins.setdefault(site, {})[bin_index] = (
            self._active_segment, payload_offset, len(payload), crc,
        )
        self._apply_meta(meta)
        self._commit_index()

    def _read_payload(self, site: str, bin_index: int) -> Optional[bytes]:
        entry = self._bins.get(site, {}).get(bin_index)
        if entry is None:
            return None
        segment, offset, length, crc = entry
        reader = self._readers.get(segment)
        if reader is None:
            reader = open(self._segment_path(segment), "rb")
            self._readers[segment] = reader
        reader.seek(offset)
        payload = reader.read(length)
        if len(payload) != length or (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            raise SerializationError(
                f"corrupt segment record for bin ({site!r}, {bin_index}) "
                f"in segment {segment}"
            )
        return payload

    def _delete_bins(self, site: str, bin_index: int) -> int:
        bins = self._bins.get(site, {})
        old = [index for index in bins if index < bin_index]
        for index in old:
            del bins[index]
        if not bins:
            self._bins.pop(site, None)
        if old:
            self._commit_index()
        return len(old)

    def flush(self) -> None:
        """Force every committed ``put`` to stable storage.

        Every commit already renamed its index into place; this fsyncs the
        active segment's bytes, the current ``index.json`` and both
        directories, so the segment files and the last rename survive an
        OS crash too.
        """
        if self._writer is not None:
            self._writer.flush()
            os.fsync(self._writer.fileno())
        if self._index_path.exists():
            with open(self._index_path, "rb") as handle:
                os.fsync(handle.fileno())
        _fsync_directory(self._segments_dir)
        _fsync_directory(self._path)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._cache.clear()
        self.flush()
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        for reader in self._readers.values():
            reader.close()
        self._readers.clear()

    # -- metadata ---------------------------------------------------------------

    def _apply_meta(self, meta: Dict[str, Optional[bytes]]) -> None:
        for key, value in meta.items():
            if value is None:
                self._meta.pop(key, None)
            else:
                self._meta[key] = value

    def set_meta(self, key: str, value: Optional[bytes]) -> None:
        self._apply_meta({key: value})
        self._commit_index()

    def set_meta_many(self, updates: Dict[str, Optional[bytes]]) -> None:
        self._apply_meta(updates)
        self._commit_index()

    def get_meta(self, key: str) -> Optional[bytes]:
        return self._meta.get(key)

    # -- enumeration / accounting -----------------------------------------------------

    def bin_indices(self, site: str) -> List[int]:
        return sorted(self._bins.get(site, {}))

    def sites(self) -> List[str]:
        return sorted(site for site, bins in self._bins.items() if bins)

    def payload_bytes(self) -> int:
        return sum(
            entry[2] for bins in self._bins.values() for entry in bins.values()
        )

    def disk_bytes(self) -> int:
        total = 0
        for path in self._segments_dir.glob("seg-*.dat"):
            total += path.stat().st_size
        if self._index_path.exists():
            total += self._index_path.stat().st_size
        return total
