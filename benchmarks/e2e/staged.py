"""The traced pass: the same input through the same public calls, hop by hop.

``StagedPipeline.ingest`` does by hand what ``FlowtreeDaemon`` ->
``SiteClient`` -> ``CollectorServer`` -> ``Collector.poll`` do, recording one
span per layer boundary; ``StagedPipeline.queries`` does the same for the read
path.  Both are checked against the untraced run (byte-identical stored bins,
identical query totals) - otherwise the breakdown would describe a different
pipeline.

Spans live in memory and are written as JSON lines when the run ends.  A
layer's *self time* is its span's duration minus its child spans'.  Public
calls nested inside another public call (``add_aggregated`` and ``compact``
inside ``Flowtree.add_batch``, ``store.put`` inside ``Collector.ingest``) are
timed by a shim set on that one instance; nothing under ``src/`` is changed.
"""

from __future__ import annotations

import json
import random
import time
from collections import OrderedDict, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

from . import layers
from .oracle import BinId
from .pipeline import QueryRecord
from .workloads import Inputs, QueryPlan, WorkloadSpec

#: Ingest stages charged once per replayed record (or per distinct key) ...
PER_RECORD_STAGES = (
    "core.flowtree.add_batch", "core.flowtree.add_aggregated",
    "core.compaction.compact", "core.compaction.rebuild",
)
#: ... and once per exported summary.
PER_MESSAGE_STAGES = (
    "distributed.diffsync.encode", "distributed.net.send", "distributed.net.drain",
    "distributed.collector.poll", "distributed.collector.ingest",
    "distributed.stores.put", "distributed.stores.get", "distributed.stores.flush",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id")

    def __init__(self, name: str, start: float, parent: int, trace_id: object) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace_id = trace_id


class Tracer:
    """In-memory spans with a single (driver-thread) stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, trace_id: object = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        if trace_id is None and parent >= 0:
            trace_id = self.spans[parent].trace_id
        record = Span(name, time.perf_counter(), parent, trace_id)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def shim(self, target: object, method: str, name: str) -> None:
        """Time every call of ``target.method`` (this instance only) as a span."""
        original = getattr(target, method)

        def timed(*args: object, **kwargs: object) -> object:
            with self.span(name):
                return original(*args, **kwargs)

        setattr(target, method, timed)

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus the children's durations."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.end - span.start
        totals: Dict[str, float] = defaultdict(float)
        for span, value in zip(self.spans, own):
            totals[span.name] += value
        return dict(totals)

    def durations(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start
        return dict(totals)

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span.name] += 1
        return dict(totals)

    def write(self, handle: TextIO, pass_name: str) -> None:
        """One JSON line per span; ``parent`` is an ``id`` within the same pass."""
        for index, span in enumerate(self.spans):
            handle.write(json.dumps({
                "pass": pass_name, "id": index, "name": span.name,
                "start": span.start, "end": span.end,
                "parent": span.parent if span.parent >= 0 else None,
                "trace_id": span.trace_id,
            }) + "\n")


# -- ingest ------------------------------------------------------------------------------


class _SiteState:
    """What one ``FlowtreeDaemon`` holds between records."""

    def __init__(self, site: str) -> None:
        self.site = site
        self.encoder = layers.DiffSyncEncoder(prefer_diff=True, full_every=layers.DAEMON_FULL_EVERY)
        self.origin: Optional[float] = None
        self.bin_index: Optional[int] = None
        self.tree: Optional[layers.Flowtree] = None
        self.records_in_bin = 0
        self.sequence = 1 << 40


@dataclass
class StagedIngest:
    wall_s: float
    records: int
    messages: List[layers.SummaryMessage]
    nodes_exported: int = 0       # the four counts are summed over exported trees
    compactions: int = 0
    rebuilds: int = 0
    folded_nodes: int = 0


class StagedPipeline:
    """Server, collector and clients for the staged pass; a context manager."""

    def __init__(self, spec: WorkloadSpec, inputs: Inputs, store_dir: str, tracer: Tracer) -> None:
        self.spec = spec
        self.inputs = inputs
        self.tracer = tracer
        self.server, self.collector, self.clients = layers.open_staged_endpoints(
            inputs.site_names, inputs.bin_width, store_dir, spec.cache_bins
        )
        self.store = self.collector.store
        self._config = layers.tree_config(spec.max_nodes)
        self._outcome = StagedIngest(wall_s=0.0, records=0, messages=[])

    def __enter__(self) -> "StagedPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            for client in self.clients.values():
                client.abort() if exc_info[0] is not None else client.close()
        finally:
            try:
                self.collector.close()
            finally:
                self.server.close()

    # .. the daemon's hops ..

    @contextmanager
    def _span_or_rebuild(self, name: str, tree: layers.Flowtree) -> Iterator[None]:
        """A span called ``name`` - or ``core.compaction.rebuild`` when the call
        made no nested public call and only ran the bulk rebuild compactor
        (the overshoot dispatch: nothing inserted, on the raw-signature path
        not even a key built)."""
        tracer = self.tracer
        rebuilds_before = layers.tree_counters(tree)["rebuilds"]
        with tracer.span(name) as span:
            first_child = len(tracer.spans)
            yield
            if (len(tracer.spans) == first_child
                    and layers.tree_counters(tree)["rebuilds"] > rebuilds_before):
                span.name = "core.compaction.rebuild"

    def _new_tree(self) -> layers.Flowtree:
        """A bin's tree with its nested public calls timed as child spans."""
        tree = layers.Flowtree(layers.SCHEMA, self._config)
        add_aggregated = tree.add_aggregated

        def timed_add_aggregated(*args: object, **kwargs: object) -> None:
            with self._span_or_rebuild("core.flowtree.add_aggregated", tree):
                add_aggregated(*args, **kwargs)

        tree.add_aggregated = timed_add_aggregated
        self.tracer.shim(tree, "compact", "core.compaction.compact")
        return tree

    def _charge(self, state: _SiteState, bucket: List[object]) -> None:
        """``FlowtreeDaemon._drain``: charge the buffered records to the open bin."""
        if not bucket:
            return
        with self._span_or_rebuild("core.flowtree.add_batch", state.tree):
            state.tree.add_batch(bucket)
        state.records_in_bin += len(bucket)
        bucket.clear()

    def _export(self, state: _SiteState) -> None:
        """``FlowtreeDaemon._emit``: encode the closed bin and send it."""
        tracer, tree, outcome = self.tracer, state.tree, self._outcome
        with tracer.span("distributed.daemon.export", [state.site, state.bin_index, state.sequence]):
            with tracer.span("distributed.diffsync.encode"):
                encoded = state.encoder.encode(tree)
            bin_start = state.origin + state.bin_index * self.inputs.bin_width
            message = layers.SummaryMessage(
                site=state.site, bin_index=state.bin_index, bin_start=bin_start,
                bin_end=bin_start + self.inputs.bin_width, kind=encoded.kind,
                payload=encoded.payload, record_count=state.records_in_bin,
                sequence=state.sequence,
            )
            with tracer.span("distributed.net.send"):
                self.clients[state.site].send(state.site, layers.COLLECTOR_NAME, message)
        counters = layers.tree_counters(tree)
        outcome.messages.append(message)
        outcome.nodes_exported += len(tree)
        outcome.compactions += counters["compactions"]
        outcome.rebuilds += counters["rebuilds"]
        outcome.folded_nodes += counters["folded_nodes"]
        state.sequence += 1
        state.tree = None
        state.bin_index = None
        state.records_in_bin = 0

    def _consume(self, state: _SiteState, chunk: Sequence[object]) -> None:
        """``FlowtreeDaemon.consume_records`` for one chunk (late records,
        which a time-ordered trace has none of, stay in the open bin)."""
        bin_width = self.inputs.bin_width
        with self.tracer.span("distributed.daemon.consume", [state.site, state.bin_index, None]):
            bucket: List[object] = []
            for record in chunk:
                if state.origin is None:
                    state.origin = record.timestamp
                bin_index = int((record.timestamp - state.origin) // bin_width)
                if state.bin_index is None:
                    state.bin_index = bin_index
                    state.tree = self._new_tree()
                elif bin_index > state.bin_index:
                    self._charge(state, bucket)
                    self._export(state)
                    state.bin_index = bin_index
                    state.tree = self._new_tree()
                bucket.append(record)
                if len(bucket) >= layers.BATCH_SIZE:
                    self._charge(state, bucket)
            self._charge(state, bucket)

    # .. the collector's hops ..

    def _poll(self) -> None:
        """``Collector.poll``: drain the server's inbox, ingest each summary."""
        tracer = self.tracer
        with tracer.span("distributed.collector.poll"):
            for _, message in self.server.receive(layers.COLLECTOR_NAME):
                with tracer.span("distributed.collector.ingest",
                                 [message.site, message.bin_index, message.sequence]):
                    self.collector.ingest(message)

    def ingest(self) -> StagedIngest:
        tracer, inputs, outcome = self.tracer, self.inputs, self._outcome
        tracer.shim(self.store, "put", "distributed.stores.put")
        tracer.shim(self.store, "get", "distributed.stores.get")
        states = {site: _SiteState(site) for site in inputs.site_names}
        started = time.perf_counter()
        with tracer.span("ingest"):
            for step in range(inputs.steps):
                for site in inputs.site_names:
                    site_chunks = inputs.chunks[site]
                    if step < len(site_chunks):
                        self._consume(states[site], site_chunks[step])
                        outcome.records += len(site_chunks[step])
                        self._poll()
            for state in states.values():
                if state.tree is not None:
                    self._export(state)
            with tracer.span("distributed.net.drain"):
                for client in self.clients.values():
                    client.drain()
            self._poll()
            with tracer.span("distributed.stores.flush"):
                self.collector.flush()
        outcome.wall_s = time.perf_counter() - started
        return outcome

    # .. the read path ..

    def queries(self, plan: QueryPlan, asked: Sequence[QueryRecord]) -> Tuple[int, int]:
        """Answer ``asked`` hop by hop; returns ``(answered, mismatches)``.

        get_bytes -> from_bytes -> prime_query_caches -> estimate_many ->
        sum, behind an LRU of ``cache_bins`` trees like the store's own.
        """
        tracer, store = self.tracer, self.store
        site_names = self.inputs.site_names
        known = {site: set(store.bin_indices(site)) for site in site_names}
        cache: "OrderedDict[BinId, layers.Flowtree]" = OrderedDict()
        mismatches = 0
        for number, record in enumerate(asked):
            key_index, sites, start, end = record.query
            key = plan.keys[key_index]
            total = 0
            with tracer.span("query", number):
                for site in (sites if sites is not None else site_names):
                    with tracer.span("distributed.timeseries.query_range"):
                        for bin_index in range(start, end + 1):
                            if bin_index not in known[site]:
                                continue
                            bin_id = (site, bin_index)
                            tree = cache.get(bin_id)
                            if tree is not None:
                                cache.move_to_end(bin_id)
                            else:
                                with tracer.span("distributed.stores.get_bytes"):
                                    payload = store.get_bytes(site, bin_index)
                                with tracer.span("core.serialization.decode"):
                                    tree = layers.from_bytes(payload)
                                with tracer.span("core.query.prime"):
                                    tree.prime_query_caches()
                                cache[bin_id] = tree
                                if len(cache) > self.spec.cache_bins:
                                    cache.popitem(last=False)
                            with tracer.span("core.query.probe"):
                                total += layers.tree_estimate_many(tree, [key])[key].value("packets")
            if total != record.total:
                mismatches += 1
        return len(asked), mismatches


# -- per-layer probes on this run's real data ------------------------------------------------


def _timed(function: Callable[[], object]) -> Tuple[object, float]:
    began = time.perf_counter()
    result = function()
    return result, time.perf_counter() - began


def probe_layers(
    inputs: Inputs, max_nodes: int, stored: Dict[BinId, bytes],
    messages: Sequence[layers.SummaryMessage], keys: Sequence[object], seed: int,
) -> Dict[str, float]:
    """Standalone calls of the codecs and the query index on what the run produced.

    These functions run nested inside larger public calls (pre-aggregation
    inside ``Flowtree.add_batch``; ``to_bytes`` inside ``DiffSyncEncoder.encode``,
    ``Collector.ingest`` and ``store.put``; framing on the transport's own
    threads), where no outside span can see them.
    """
    out: Dict[str, float] = defaultdict(float)
    with_bytes = layers.count_bytes(layers.tree_config(max_nodes))
    distinct = 0
    for site_chunks in inputs.chunks.values():
        for chunk in site_chunks:
            for offset in range(0, len(chunk), layers.BATCH_SIZE):
                bucket = chunk[offset:offset + layers.BATCH_SIZE]
                pending, seconds = _timed(lambda: layers.preaggregate_records(
                    bucket, layers.SCHEMA.signature_of, with_bytes))
                out["core.flowtree.preaggregate_s"] += seconds
                distinct += len(pending)
    out["core.flowtree.preaggregate_ratio"] = inputs.records / max(1, distinct)
    out["traces.distinct_keys_per_bin"] = distinct / max(1, len(stored))

    nodes = payload_bytes = 0
    for payload in stored.values():
        tree, decode_s = _timed(lambda: layers.from_bytes(payload))
        encoded, encode_s = _timed(lambda: layers.to_bytes(tree))
        out["core.serialization.decode_s"] += decode_s
        out["core.serialization.encode_s"] += encode_s
        nodes += len(tree)
        payload_bytes += len(encoded)
    out["core.serialization.bytes_per_node"] = payload_bytes / max(1, nodes)

    decoder = layers.DiffSyncDecoder()
    frames: Dict[str, layers.FrameDecoder] = {}
    overhead = 0
    for number, message in enumerate(messages, start=1):
        _, seconds = _timed(lambda: decoder.decode(message))
        out["distributed.diffsync.decode_s"] += seconds
        wire, seconds = _timed(lambda: layers.encode_frame(
            layers.encode_summary(number, layers.encode_summary_body(message))))
        out["distributed.net.framing.encode_s"] += seconds
        frame_decoder = frames.setdefault(message.site, layers.FrameDecoder())
        _, seconds = _timed(lambda: frame_decoder.feed(wire))
        out["distributed.net.framing.decode_s"] += seconds
        overhead += len(wire) - len(message.payload)
    out["distributed.net.framing.overhead_bytes_per_summary"] = overhead / max(1, len(messages))
    out["distributed.diffsync.diff_share"] = (
        sum(1 for message in messages if message.kind == "diff") / max(1, len(messages))
    )
    out["distributed.diffsync.payload_bytes"] = float(sum(len(m.payload) for m in messages))

    rng = random.Random(seed * 7919 + 4)
    sampled = rng.sample(sorted(stored), min(16, len(stored)))
    exact = answered = 0
    for bin_id in sampled:
        tree = layers.from_bytes(stored[bin_id])
        _, cold_s = _timed(lambda: layers.tree_estimate_many(tree, keys))
        answers, warm_s = _timed(lambda: layers.tree_estimate_many(tree, keys))
        out["core.query.index_build_s"] += max(0.0, cold_s - warm_s)
        out["core.query.probe_s"] += warm_s
        exact += sum(1 for estimate in answers.values() if estimate.exact_node)
        answered += len(answers)
    out["core.query.probe_us_per_key"] = out.pop("core.query.probe_s") / max(1, answered) * 1e6
    out["core.query.exact_share"] = exact / max(1, answered)
    return dict(out)
