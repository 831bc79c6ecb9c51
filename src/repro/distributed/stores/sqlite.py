"""SQLite time-series store.

One row per ``(site, bin)`` with the serialized summary as a BLOB, plus a
metadata key/value table — the Flowyager-style tree-summary database shape
at reproduction scale.  The database runs in WAL mode so a reader (e.g. a
query CLI) can inspect the store while a collector appends, and every
``put`` commits one transaction covering the bin payload *and* its
metadata updates, which is what makes collector ingest atomic per message.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path
from typing import Dict, List, Optional

from repro.distributed.stores.base import DEFAULT_CACHE_BINS, CachedTreeStore

_SCHEMA = """
CREATE TABLE IF NOT EXISTS bins (
    site TEXT NOT NULL,
    bin INTEGER NOT NULL,
    payload BLOB NOT NULL,
    PRIMARY KEY (site, bin)
);
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value BLOB NOT NULL
);
"""


class SQLiteStore(CachedTreeStore):
    """Durable store over a WAL-mode SQLite database."""

    backend = "sqlite"

    def __init__(self, path: os.PathLike, cache_bins: int = DEFAULT_CACHE_BINS) -> None:
        super().__init__(cache_bins=cache_bins)
        self._path = Path(path)
        if self._path.parent and not self._path.parent.exists():
            self._path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self._path))
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # -- backend primitives ---------------------------------------------------------

    def _write_payload(
        self, site: str, bin_index: int, payload: bytes, meta: Dict[str, Optional[bytes]]
    ) -> None:
        with self._conn:  # one transaction: bin + meta commit together
            self._conn.execute(
                "INSERT OR REPLACE INTO bins (site, bin, payload) VALUES (?, ?, ?)",
                (site, bin_index, payload),
            )
            for key, value in meta.items():
                if value is None:
                    self._conn.execute("DELETE FROM meta WHERE key = ?", (key,))
                else:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                        (key, value),
                    )

    def _read_payload(self, site: str, bin_index: int) -> Optional[bytes]:
        row = self._conn.execute(
            "SELECT payload FROM bins WHERE site = ? AND bin = ?", (site, bin_index)
        ).fetchone()
        return None if row is None else bytes(row[0])

    def _delete_bins(self, site: str, bin_index: int) -> int:
        with self._conn:
            cursor = self._conn.execute(
                "DELETE FROM bins WHERE site = ? AND bin < ?", (site, bin_index)
            )
        return cursor.rowcount

    def flush(self) -> None:
        """Every ``put`` is its own committed transaction; nothing is buffered here."""
        self._conn.commit()

    def _close_backend(self) -> None:
        self.flush()
        self._conn.close()

    # -- metadata ---------------------------------------------------------------

    def set_meta(self, key: str, value: Optional[bytes]) -> None:
        with self._conn:
            if value is None:
                self._conn.execute("DELETE FROM meta WHERE key = ?", (key,))
            else:
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", (key, value)
                )

    def set_meta_many(self, updates: Dict[str, Optional[bytes]]) -> None:
        with self._conn:
            for key, value in updates.items():
                if value is None:
                    self._conn.execute("DELETE FROM meta WHERE key = ?", (key,))
                else:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                        (key, value),
                    )

    def get_meta(self, key: str) -> Optional[bytes]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else bytes(row[0])

    # -- enumeration / accounting -----------------------------------------------------

    def bin_indices(self, site: str) -> List[int]:
        rows = self._conn.execute(
            "SELECT bin FROM bins WHERE site = ? ORDER BY bin", (site,)
        ).fetchall()
        return [row[0] for row in rows]

    def sites(self) -> List[str]:
        rows = self._conn.execute("SELECT DISTINCT site FROM bins ORDER BY site").fetchall()
        return [row[0] for row in rows]

    def payload_bytes(self) -> int:
        row = self._conn.execute("SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM bins").fetchone()
        return int(row[0])

    def disk_bytes(self) -> int:
        self._conn.execute("PRAGMA wal_checkpoint(PASSIVE)")
        total = 0
        for suffix in ("", "-wal", "-shm"):
            path = Path(str(self._path) + suffix)
            if path.exists():
                total += path.stat().st_size
        return total
