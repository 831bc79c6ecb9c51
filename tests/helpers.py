"""Shared helpers for the Flowtree test suite.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import ...``, which breaks as soon as another directory's
``conftest.py`` (e.g. ``benchmarks/conftest.py``) wins the race for the
top-level ``conftest`` module name.  Test modules now import them
explicitly from this module; ``conftest.py`` keeps only fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

from repro.core import compaction
from repro.core.key import FlowKey
from repro.features.ipaddr import ipv4_to_int
from repro.features.schema import SCHEMA_2F_SRC_DST, SCHEMA_4F


@dataclass
class SimpleRecord:
    """Minimal duck-typed record used by core tests (no timestamps needed)."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int = 6
    packets: int = 1
    bytes: int = 100


def make_record(
    src: str = "1.1.1.1",
    dst: str = "2.2.2.2",
    sport: int = 1234,
    dport: int = 80,
    protocol: int = 6,
    packets: int = 1,
    bytes: int = 100,
) -> SimpleRecord:
    """Convenience constructor taking dotted-quad addresses."""
    return SimpleRecord(
        src_ip=ipv4_to_int(src),
        dst_ip=ipv4_to_int(dst),
        src_port=sport,
        dst_port=dport,
        protocol=protocol,
        packets=packets,
        bytes=bytes,
    )


@dataclass
class TimedRecord(SimpleRecord):
    """A :class:`SimpleRecord` with a timestamp, for daemon/bin tests."""

    timestamp: float = 0.0


def make_timed_record(timestamp: float, **kwargs) -> TimedRecord:
    """Convenience constructor: a timestamped record with dotted-quad addresses."""
    base = make_record(**kwargs)
    return TimedRecord(timestamp=timestamp, **base.__dict__)


def key4(src: str, dst: str, sport: str, dport: str) -> FlowKey:
    """Build a 4-feature key from wire strings ('*' for wildcards)."""
    return FlowKey.from_wire(SCHEMA_4F, (src, dst, sport, dport))


def key2(src: str, dst: str) -> FlowKey:
    """Build a 2-feature key from wire strings."""
    return FlowKey.from_wire(SCHEMA_2F_SRC_DST, (src, dst))


__all__ = [
    "SimpleRecord",
    "TimedRecord",
    "make_record",
    "make_timed_record",
    "key4",
    "key2",
]


def force_rebuild():
    """Patch the one strategy threshold so any compaction excess rebuilds.

    Usable as a context manager or a decorator.
    """
    return mock.patch.object(compaction, "REBUILD_OVERSHOOT", 0)


def force_incremental():
    """Patch the one strategy threshold so the bulk rebuild never runs."""
    return mock.patch.object(compaction, "REBUILD_OVERSHOOT", float("inf"))
