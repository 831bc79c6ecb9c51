"""The untraced run: a real ``Deployment`` driven from outside.

End-to-end metrics come only from here.  The replay driver is the calling
thread; ``query-under-ingest`` adds one query-driver thread.  The program's
own asyncio loops (one per TCP client, one for the server) are part of the
system under test.
"""

from __future__ import annotations

import gc
import os
import shutil
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import layers
from .workloads import (
    Inputs,
    PointQuery,
    QueryPlan,
    WorkloadSpec,
    build_inputs,
    percentile,
)


@dataclass
class IngestResult:
    records: int
    wall_s: float
    cpu_s: float
    poll_busy_s: float
    commit_lag_s: float
    summaries: int
    wire_bytes: int
    disk_bytes: int
    payload_bytes: int
    bins_stored: int
    daemon: Dict[str, int]
    collector: Dict[str, int]
    net: Dict[str, int]


@dataclass
class QueryRecord:
    """One issued point query, kept for the oracle."""

    query: PointQuery
    total: Optional[int]           # None = raised
    latency_s: float
    lateness_s: float = 0.0


@dataclass
class Round:
    inputs: Inputs
    deployment: object
    store_dir: str
    setup_s: float


def setup_round(spec: WorkloadSpec, seed: int, workdir: str, number: int) -> Round:
    """Trace generation + site split + ``Deployment`` construction (``setup_s``)."""
    started = time.perf_counter()
    inputs = build_inputs(spec, seed)
    store_dir = os.path.join(workdir, f"store-{number}")
    deployment = layers.open_deployment(
        inputs.site_names, inputs.bin_width, spec.max_nodes, store_dir, spec.cache_bins
    )
    setup_s = time.perf_counter() - started
    # The replayed records belong to the load generator, not to the program:
    # keep the cyclic collector from re-scanning them on every full collection.
    gc.collect()
    gc.freeze()
    return Round(inputs=inputs, deployment=deployment, store_dir=store_dir, setup_s=setup_s)


def close_round(round_: Round) -> None:
    try:
        round_.deployment.close()
    finally:
        shutil.rmtree(round_.store_dir, ignore_errors=True)
        gc.unfreeze()


def _finish_ingest(deployment, poll: Callable[[], None]) -> None:
    """Export the open bins, wait for the acks, commit and flush."""
    for name in deployment.site_names:
        deployment.daemon(name).flush()
    deployment.drain()
    poll()
    deployment.collector.flush()


def run_ingest(
    round_: Round,
    rate: float = 0.0,
    on_step: Optional[Callable[[int], None]] = None,
) -> IngestResult:
    """Replay every site bin by bin, round-robin, polling after every chunk.

    A live collector polls continuously; polling per chunk keeps each hold of
    ``Collector._lock`` to the one or two summaries that just arrived.

    Closed loop by default (as fast as the pipeline accepts); with a ``rate``
    in records/s each chunk waits for its due time and is never sent early
    (open loop: a slow pipeline does not slow the schedule).
    ``on_step(step)`` runs after bin-step ``step`` (every site's chunk and its poll).
    """
    inputs, deployment = round_.inputs, round_.deployment
    collector = deployment.collector
    daemons = {name: deployment.daemon(name) for name in inputs.site_names}
    poll_busy = 0.0

    def poll() -> None:
        nonlocal poll_busy
        began = time.perf_counter()
        collector.poll()
        poll_busy += time.perf_counter() - began

    offered = 0
    cpu_started = time.process_time()
    started = time.perf_counter()
    for step in range(inputs.steps):
        for name in inputs.site_names:
            site_chunks = inputs.chunks[name]
            if step >= len(site_chunks):
                continue
            chunk = site_chunks[step]
            if rate:
                due = started + offered / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            daemons[name].consume_records(chunk)
            offered += len(chunk)
            poll()
        if on_step is not None:
            on_step(step)
    handed_in = time.perf_counter()
    _finish_ingest(deployment, poll)
    finished = time.perf_counter()
    cpu_s = time.process_time() - cpu_started
    store = collector.store
    daemon = layers.daemon_counters(deployment)
    net = layers.deployment_net_counters(deployment)
    return IngestResult(
        records=offered,
        wall_s=finished - started,
        cpu_s=cpu_s,
        poll_busy_s=poll_busy,
        commit_lag_s=finished - handed_in,
        summaries=daemon["bins_exported"],
        wire_bytes=net["wire_bytes"],
        disk_bytes=store.disk_bytes(),
        payload_bytes=store.payload_bytes(),
        bins_stored=store.bin_count(),
        daemon=daemon,
        collector=layers.collector_counters(collector),
        net=net,
    )


# -- queries ---------------------------------------------------------------------------


def ask(engine, keys: List[object], query: PointQuery) -> Optional[int]:
    """One single-key engine query; ``None`` when it raised."""
    key_index, sites, start, end = query
    key = keys[key_index]
    try:
        totals, _ = engine.estimate_many([key], sites=sites, start_bin=start, end_bin=end)
    except layers.QUERY_ERRORS:  # a failed query is a counted outcome, not a harness crash
        return None
    return totals[key]


def point_pass(deployment, plan: QueryPlan) -> List[QueryRecord]:
    """Closed loop, one client: every point query of the plan, each timed."""
    engine = deployment.query_engine
    keys = plan.keys
    records: List[QueryRecord] = []
    clock = time.perf_counter
    for query in plan.points:
        began = clock()
        total = ask(engine, keys, query)
        records.append(QueryRecord(query=query, total=total, latency_s=clock() - began))
    return records


def batch_phase(deployment, plan: QueryPlan) -> Tuple[List[float], List[Optional[Dict[object, int]]]]:
    """One ``BATCH_KEYS``-key ``estimate_many`` per planned window; wall times + answers."""
    engine = deployment.query_engine
    times: List[float] = []
    answers: List[Optional[Dict[object, int]]] = []
    for sites, start, end in plan.batches:
        began = time.perf_counter()
        try:
            totals, _ = engine.estimate_many(plan.keys, sites=sites, start_bin=start, end_bin=end)
        except layers.QUERY_ERRORS:
            totals = None
        times.append(time.perf_counter() - began)
        answers.append(totals)
    return times, answers


class QueryDriver(threading.Thread):
    """Open-loop point queries beside ingest, each timed from its due time.

    The window of a query is the last ``window_bins`` bins every site has
    committed when the query is issued (``watermark``), so its reference
    answer does not depend on how far ingest has got since.
    """

    def __init__(self, deployment, window_bins: int, plan: QueryPlan,
                 start_at: float, interval_s: float) -> None:
        super().__init__(name="flowbench-query-driver", daemon=True)
        self._engine = deployment.query_engine
        self._window_bins = window_bins
        self._plan = plan
        self._start_at = start_at
        self._interval_s = interval_s
        self.watermark = -1           # written by the replay thread
        self.ingest_done = False      # written by the replay thread
        self.records: List[QueryRecord] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._drive()
        except BaseException as exc:  # surfaced by the replay thread after join()
            self.error = exc

    def _drive(self) -> None:
        keys = self._plan.keys
        clock = time.perf_counter
        for number, (key_index, _, _, _) in enumerate(self._plan.points):
            due = self._start_at + number * self._interval_s
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            while self.watermark < 0 and not self.ingest_done:
                time.sleep(0.001)
            if self.watermark < 0:
                return    # ingest ended without one committed bin: nothing to ask about
            issued = clock()
            end = self.watermark
            query: PointQuery = (key_index, None, max(0, end - self._window_bins + 1), end)
            total = ask(self._engine, keys, query)
            self.records.append(
                QueryRecord(query=query, total=total, latency_s=clock() - due,
                            lateness_s=issued - due)
            )


def run_ingest_with_queries(
    spec: WorkloadSpec, round_: Round, plan: QueryPlan, rate: float
) -> Tuple[IngestResult, List[QueryRecord]]:
    """``query-under-ingest``: replay paced at ``rate`` records/s on this thread,
    the plan's point queries on a second, spread evenly over the replay."""
    deployment = round_.deployment
    collector = deployment.collector
    site_names = round_.inputs.site_names
    # The first window must be committed before a query can name it.
    warmup_s = spec.window_bins * spec.sites * spec.records_per_bin / rate
    interval_s = (round_.inputs.records / rate - warmup_s) / len(plan.points)
    driver = QueryDriver(deployment, spec.window_bins, plan,
                         time.perf_counter() + warmup_s, interval_s)

    def advance_watermark(_step: int) -> None:
        if len(collector.sites) == len(site_names):
            driver.watermark = min(collector.bins_for(name)[-1] for name in site_names)

    driver.start()
    try:
        result = run_ingest(round_, rate, on_step=advance_watermark)
    finally:
        driver.ingest_done = True
        driver.join(timeout=60.0)
    if driver.is_alive():
        raise RuntimeError("query driver did not stop within 60 s of the end of ingest")
    if driver.error is not None:
        raise driver.error
    return result, driver.records


# -- summaries -------------------------------------------------------------------------


def latency_summary(records: List[QueryRecord]) -> Dict[str, float]:
    ordered = sorted(record.latency_s for record in records)
    return {
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p95_ms": percentile(ordered, 0.95) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
        "samples": float(len(ordered)),
    }
