"""Encode each summary once: byte identity and work counts of the per-message path.

A daemon builds a bin's FTRE bytes once; the collector commits those very
bytes as the bin and as the site's diff baseline.  That is a change of
*who encodes*, not of what is encoded, so it is held to two standards:

* **golden digests** — ``encode_once_golden.json`` holds, for three seeded
  streams run daemon -> ``SimulatedTransport`` -> file-store ``Collector``,
  the ``(kind, sha256(payload))`` of every export and the SHA-256 of every
  stored bin, every ``baseline/``, ``dedup/`` and ``collector/counters``
  meta value and of ``index.json``.  They were recorded from the code that
  re-encoded at every hop (the parent of the commit that introduced this
  file); every digest must be reproduced exactly.  Re-record
  (``PYTHONPATH=src python tests/test_encode_once.py``) only for a change
  that is *meant* to move summary or store bytes.
* **work counts** — ``to_bytes`` calls in ``diffsync``, ``collector`` and
  ``stores.segment`` plus ``Flowtree.diff`` / ``Flowtree.copy`` calls, counted,
  not timed, so the tripwire survives a noisy host.
"""

import hashlib
import json
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import pytest

from helpers import make_timed_record

from repro.core import FlowtreeConfig, to_bytes
from repro.core.flowtree import Flowtree
from repro.distributed import (
    Collector,
    CollectorConfig,
    FlowtreeDaemon,
    FlowtreeTimeSeries,
    SimulatedTransport,
)
from repro.distributed import collector as collector_module
from repro.distributed import daemon as daemon_module
from repro.distributed import diffsync as diffsync_module
from repro.distributed.messages import SUMMARY_DIFF, SUMMARY_FULL
from repro.distributed.stores import segment as stores_segment
from repro.distributed.stores.segment import SegmentFileStore
from repro.features.schema import SCHEMA_4F
from repro.traces import CaidaLikeTraceGenerator, EnterpriseTraceGenerator

GOLDEN_PATH = Path(__file__).with_name("encode_once_golden.json")
SITES = ("site-0", "site-1")
BINS = 12


def _dealt(records, bins):
    """Deal a time-ordered trace round-robin across :data:`SITES`.

    Returns ``(per-site records, bin_width)`` with flowbench's bin cut: the
    trace's span over ``bins``, widened a hair so the last record fits.
    """
    per_site = {site: [] for site in SITES}
    for index, record in enumerate(records):
        per_site[SITES[index % len(SITES)]].append(record)
    span = records[-1].timestamp - records[0].timestamp
    return per_site, span / bins * (1.0 + 1e-9)


def caida_stream():
    """``small-bins-cold``-shaped: 60 caida records per site and bin, budget 128."""
    records = list(CaidaLikeTraceGenerator(seed=1).packets(len(SITES) * BINS * 60))
    return _dealt(records, BINS) + (FlowtreeConfig(max_nodes=128),)


def enterprise_stream():
    """Enterprise traffic of 400 customers, 150 records per site and bin, budget 128."""
    generator = EnterpriseTraceGenerator(seed=1, customer_count=400)
    records = list(generator.packets(len(SITES) * BINS * 150))
    return _dealt(records, BINS) + (FlowtreeConfig(max_nodes=128),)


def steady_stream(flows=40, bin_span=5.0):
    """The same flows in every bin, one packet more each bin: diffs win."""
    per_site = {
        site: [
            make_timed_record(
                bin_index * bin_span + 0.1 * (flow + 1),
                src=f"10.{number}.{flow % 4}.{1 + flow}",
                dst="198.51.100.7",
                sport=2000 + flow,
                dport=443,
                packets=1 + bin_index,
            )
            for bin_index in range(BINS)
            for flow in range(flows)
        ]
        for number, site in enumerate(SITES)
    }
    return per_site, bin_span, FlowtreeConfig(max_nodes=None)


def zero_overlap_stream(flows=30, bin_span=5.0):
    """Every bin's flows are new: a diff can never beat the full summary."""
    return [
        make_timed_record(
            bin_index * bin_span + 0.1 * (flow + 1),
            src=f"10.{bin_index}.{flow % 4}.{1 + flow}",
            dst="198.51.100.7",
            sport=2000 + flow,
            dport=443,
        )
        for bin_index in range(BINS)
        for flow in range(flows)
    ]


STREAMS = {
    "caida-small-bins": caida_stream,
    "enterprise-400": enterprise_stream,
    "steady": steady_stream,
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextmanager
def pinned_nonces():
    """Daemon run nonces are random; pin them so dedup guards are reproducible."""
    with mock.patch.object(daemon_module.os, "urandom", lambda size: bytes(size)):
        yield


def _wire(store_path, bin_width, config):
    """File-store collector + one daemon per site over a recording transport."""
    transport = SimulatedTransport()
    collector = Collector(
        SCHEMA_4F, transport,
        config=CollectorConfig(bin_width=bin_width, store="file", store_path=str(store_path)),
    )
    sent = []
    send = transport.send

    def recording_send(source, destination, message):
        sent.append(message)
        send(source, destination, message)

    transport.send = recording_send
    daemons = {
        site: FlowtreeDaemon(site, SCHEMA_4F, transport, collector_name=collector.name,
                             bin_width=bin_width, config=config)
        for site in SITES
    }
    return collector, daemons, sent


def snapshot(name, store_path):
    """Digests of everything the per-message path produced for one stream."""
    per_site, bin_width, config = STREAMS[name]()
    with pinned_nonces():
        collector, daemons, sent = _wire(store_path, bin_width, config)
    for site in SITES:
        daemons[site].consume_records(per_site[site])
        daemons[site].close()
    collector.poll()
    collector.flush()
    store = collector.store
    recorded = {
        "exports": [[message.kind, _sha(message.payload)] for message in sent],
        "bins": {
            f"{site}/{bin_index}": _sha(store.get_bytes(site, bin_index))
            for site in SITES
            for bin_index in store.bin_indices(site)
        },
        "meta": {
            key: _sha(store.get_meta(key))
            for key in [f"{prefix}/{site}" for prefix in ("baseline", "dedup") for site in SITES]
            + ["collector/counters"]
        },
        "index.json": _sha((Path(store_path) / "index.json").read_bytes()),
    }
    collector.close()
    return recorded


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_exactly_the_streams(golden):
    assert sorted(golden) == sorted(STREAMS)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_per_message_path_reproduces_recorded_bytes(name, golden, tmp_path):
    recorded = snapshot(name, tmp_path / "store")
    expected = golden[name]
    assert recorded["exports"] == expected["exports"]
    assert recorded["bins"] == expected["bins"]
    assert recorded["meta"] == expected["meta"]
    assert recorded["index.json"] == expected["index.json"]


def test_golden_streams_cover_both_kinds(golden):
    kinds = {name: {kind for kind, _ in golden[name]["exports"]} for name in STREAMS}
    assert kinds["caida-small-bins"] == kinds["enterprise-400"] == {SUMMARY_FULL}
    assert kinds["steady"] == {SUMMARY_FULL, SUMMARY_DIFF}


# -- work counts -----------------------------------------------------------------------


@contextmanager
def counting():
    """Count ``to_bytes`` (per calling module), ``Flowtree.diff`` and ``Flowtree.copy``."""
    counts: Counter = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    with ExitStack() as stack:
        for label, module in (("diffsync", diffsync_module),
                              ("collector", collector_module),
                              ("stores", stores_segment)):
            stack.enter_context(mock.patch.object(
                module, "to_bytes", counted(f"to_bytes.{label}", module.to_bytes)))
        for method in ("diff", "copy"):
            stack.enter_context(mock.patch.object(
                Flowtree, method, counted(method, getattr(Flowtree, method))))
        yield counts


def _to_bytes_total(counts):
    return sum(value for name, value in counts.items() if name.startswith("to_bytes."))


class TestWorkCounts:
    def test_full_summary_into_a_fresh_bin_encodes_once(self, tmp_path):
        collector, daemons, sent = _wire(tmp_path / "store", 5.0, FlowtreeConfig(max_nodes=None))
        daemon = daemons[SITES[0]]
        for record in zero_overlap_stream():
            with counting() as counts:
                exported = len(sent)
                daemon.consume_record(record)
                collector.poll()
            if len(sent) > exported:
                assert sent[-1].kind == SUMMARY_FULL
                assert _to_bytes_total(counts) == 1, dict(counts)
                assert counts["to_bytes.diffsync"] == 1
        assert len(sent) == BINS - 1
        assert collector.messages_processed == BINS - 1

    def test_zero_overlap_daemon_builds_no_diff_and_copies_nothing(self):
        transport = SimulatedTransport()
        daemon = FlowtreeDaemon("s", SCHEMA_4F, transport, bin_width=5.0,
                                config=FlowtreeConfig(max_nodes=None))
        with counting() as counts:
            daemon.consume_records(zero_overlap_stream())
            daemon.close()
        messages = [message for _, message in transport.receive("collector")]
        assert [message.kind for message in messages] == [SUMMARY_FULL] * BINS
        assert counts["diff"] == 0 and counts["copy"] == 0, dict(counts)
        assert counts["to_bytes.diffsync"] == BINS

    def test_steady_stream_still_ships_diffs(self, tmp_path):
        per_site, bin_width, config = steady_stream()
        collector, daemons, sent = _wire(tmp_path / "store", bin_width, config)
        with counting() as daemon_counts:
            for site in SITES:
                daemons[site].consume_records(per_site[site])
                daemons[site].close()
        kinds = Counter(message.kind for message in sent)
        assert kinds[SUMMARY_DIFF] > kinds[SUMMARY_FULL] > 0
        # One full encode per bin, plus the diff and its encode when it is built.
        assert daemon_counts["to_bytes.diffsync"] == len(sent) + daemon_counts["diff"]
        with counting() as collector_counts:
            collector.poll()
        # A diff is reconstructed and encoded once; a full summary is committed as shipped.
        assert _to_bytes_total(collector_counts) == kinds[SUMMARY_DIFF]
        assert collector_counts["copy"] == kinds[SUMMARY_DIFF]  # the merge, nothing else
        for site in SITES:
            for bin_index in collector.bins_for(site):
                stored = collector.store.get_bytes(site, bin_index)
                assert stored == to_bytes(collector.site_series(site).tree(bin_index))
        collector.close()


class TestCommittedPayload:
    def test_fresh_bin_commits_the_given_bytes(self, tmp_path):
        store = SegmentFileStore(tmp_path / "store")
        series = FlowtreeTimeSeries(SCHEMA_4F, 5.0, store=store, site="s")
        tree = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        tree.add_batch([make_timed_record(0.5, sport=2001)])
        payload = to_bytes(tree)
        with counting() as counts:
            series.insert_tree(0, tree, payload=payload)
        assert _to_bytes_total(counts) == 0
        assert store.get_bytes("s", 0) == payload
        store.close()

    def test_merge_into_an_existing_bin_drops_the_payload(self, tmp_path):
        store = SegmentFileStore(tmp_path / "store")
        series = FlowtreeTimeSeries(SCHEMA_4F, 5.0, store=store, site="s")
        first = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        first.add_batch([make_timed_record(0.5, sport=2001)])
        second = Flowtree(SCHEMA_4F, FlowtreeConfig(max_nodes=None))
        second.add_batch([make_timed_record(0.7, sport=2002)])
        series.insert_tree(0, first, payload=to_bytes(first))
        series.insert_tree(0, second, payload=to_bytes(second))
        assert store.get_bytes("s", 0) == to_bytes(first.merged(second))
        assert series.tree(0).total_counters().packets == 2
        store.close()


if __name__ == "__main__":  # pragma: no cover - deliberate re-record only
    import tempfile

    recorded = {}
    for stream in sorted(STREAMS):
        with tempfile.TemporaryDirectory() as scratch:
            recorded[stream] = snapshot(stream, Path(scratch) / "store")
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} streams to {GOLDEN_PATH}")
