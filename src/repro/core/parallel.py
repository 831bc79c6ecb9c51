"""Worker-process backend for :class:`~repro.core.sharded.ShardedFlowtree`.

A :class:`ShardWorkerPool` owns N worker processes, each holding one shard
tree.  It has two jobs: fold a partitioned sub-batch into shard *i*
(:meth:`ShardWorkerPool.submit`) and hand the shard trees / summaries back
(:meth:`ShardWorkerPool.shard_trees`, :meth:`ShardWorkerPool.begin_summaries`).
Partitioning, record ingestion and queries stay in ``ShardedFlowtree``,
which feeds the pool the same per-shard slices it would fold in-process.
Sub-batches cross the pipe as compact
:func:`~repro.core.serialization.encode_aggregated_batch` payloads — no
pickling of keys or records — and summaries come back in the ordinary
binary summary format, so worker shards are **byte-identical** to
in-process ones.

Reliability model: worker state is memory-only, so a worker crash loses
everything it folded since its last shipped summary.  The parent therefore
keeps, per worker, the last summary it collected (the *checkpoint*) plus a
journal of every sub-batch sent since; on a crash it respawns the worker,
restores the checkpoint and replays the journal, which makes every
sub-batch fold **exactly once** — a failure can neither drop nor
double-count records.  Summary collection can be pipelined: a caller may
request per-shard summaries asynchronously (``begin_summaries``) and keep
submitting batches for the *next* generation while the workers finish
folding and serializing the previous one, which is what the daemon's
bin-overlap mode builds on.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from typing import Dict, List, Optional, Protocol, Tuple

from repro.core.config import FlowtreeConfig
from repro.core.errors import ConfigurationError, WorkerError
from repro.core.flowtree import Flowtree
from repro.core.key import FlowKey
from repro.core.serialization import (
    decode_aggregated_batch,
    encode_aggregated_batch,
    from_bytes,
    to_bytes,
)
from repro.features.schema import FlowSchema, schema_by_name

#: Fault seam consulted before each shard-batch submission.  The name is
#: a literal mirror of ``repro.distributed.faults.FAULT_WORKER_CRASH``:
#: the core layer sits below the distributed layer and must not import it.
_FAULT_WORKER_CRASH = "parallel.worker-crash"


class FaultHooks(Protocol):
    """Structural type of the fault plan the core layer accepts.

    Satisfied by :class:`repro.distributed.faults.FaultPlan` without the
    core layer importing the distributed package.
    """

    def should_fire(self, name: str) -> bool:
        """Whether the named fault fires at this occurrence."""
        ...


# Protocol opcodes (first byte of every parent -> worker message).
_OP_BATCH = b"B"      # fold one aggregated sub-batch (no reply)
_OP_SUMMARY = b"S"    # reply with the serialized tree; payload b"1" = reset after
_OP_STATS = b"T"      # reply with a JSON stats snapshot
_OP_RESTORE = b"R"    # reset the tree, then merge the (optional) checkpoint payload
_OP_CRASH = b"X"      # test hook: die without cleanup, like a SIGKILL mid-fold
_OP_QUIT = b"Q"       # exit the worker loop

#: How many consecutive respawns one logical operation may burn before the
#: executor gives up; guards against a worker that dies on arrival.
_MAX_RESTARTS_PER_OP = 3

#: When any worker's crash-recovery journal holds this many sub-batches the
#: executor checkpoints (collects summaries without resetting), truncating
#: the journals so parent memory stays bounded on arbitrarily long streams.
_JOURNAL_CHECKPOINT_ENTRIES = 256


def worker_context(start_method: Optional[str] = None):
    """Multiprocessing context with the executor's start-method policy.

    Defaults to ``fork`` where available (cheapest: workers inherit loaded
    modules) and the platform default elsewhere.
    """
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else None
    return multiprocessing.get_context(start_method)


def _shard_worker_main(schema_name: str, config: FlowtreeConfig, commands, replies) -> None:
    """Worker process loop: one shard tree, commands in, summaries out.

    Runs until EOF or an explicit quit.  Every mutation arrives as a
    pre-aggregated sub-batch and is applied through the same
    :meth:`~repro.core.flowtree.Flowtree.add_aggregated` call the
    in-process sharded path makes, so the shard evolves identically.
    """
    schema = schema_by_name(schema_name)
    tree = Flowtree(schema, config)
    while True:
        try:
            message = commands.recv_bytes()
        except (EOFError, OSError):
            break
        op, payload = message[:1], message[1:]
        if op == _OP_BATCH:
            items, record_count = decode_aggregated_batch(payload, schema)
            tree.add_aggregated(items, record_count=record_count)
        elif op == _OP_SUMMARY:
            replies.send_bytes(to_bytes(tree, compress=False))
            if payload == b"1":
                tree = Flowtree(schema, config)
        elif op == _OP_STATS:
            snapshot = tree.stats.snapshot()
            snapshot["nodes"] = tree.node_count()
            replies.send_bytes(json.dumps(snapshot).encode("utf-8"))
        elif op == _OP_RESTORE:
            tree = Flowtree(schema, config)
            if payload:
                tree.merge(from_bytes(payload))
        elif op == _OP_CRASH:
            os._exit(17)
        elif op == _OP_QUIT:
            break


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = (
        "index", "process", "commands", "replies",
        "checkpoint", "journal", "batches_sent", "payload_bytes", "restarts",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.commands = None          # parent's writing end
        self.replies = None           # parent's reading end
        self.checkpoint: Optional[bytes] = None   # serialized tree to restore from
        self.journal: List[bytes] = []            # sub-batches since the checkpoint
        self.batches_sent = 0
        self.payload_bytes = 0
        self.restarts = 0


class PendingSummaries:
    """Handle for one in-flight round of per-shard summary requests.

    Returned by :meth:`ShardWorkerPool.begin_summaries`.  Workers
    process commands in order, so each reply arrives only after every
    sub-batch submitted before the request has been folded — collecting is
    the pipeline's join point.  ``poll`` collects whatever is ready without
    blocking; ``collect`` blocks for the rest.
    """

    def __init__(self, owner: "ShardWorkerPool", reset: bool) -> None:
        self._owner = owner
        self.reset = reset
        self.slots: List[Optional[bytes]] = [None] * owner.num_workers
        # Recovery basis per worker: (checkpoint, journal) describing the
        # state being summarized, kept until the reply lands.
        self.basis: List[Tuple[Optional[bytes], List[bytes]]] = [(None, [])] * owner.num_workers

    @property
    def done(self) -> bool:
        """``True`` once every worker's summary has been collected."""
        return all(slot is not None for slot in self.slots)

    def poll(self) -> bool:
        """Collect every reply that is ready; returns :attr:`done`."""
        for index, slot in enumerate(self.slots):
            if slot is None:
                self._owner._poll_summary(self, index)
        return self.done

    def collect_worker(self, index: int) -> bytes:
        """Block until worker ``index``'s summary is in; returns its payload."""
        if self.slots[index] is None:
            self._owner._await_summary(self, index)
        return self.slots[index]

    def collect(self) -> List[bytes]:
        """Block until every summary is in; returns them in shard order."""
        return [self.collect_worker(index) for index in range(len(self.slots))]


class ShardWorkerPool:
    """N worker processes, each owning one shard tree.

    Built by :class:`~repro.core.sharded.ShardedFlowtree` when its ``pool``
    argument names this class; it is a backend, not a summary — it neither
    partitions records nor answers queries.

    Args:
        schema: flow schema shared by every shard.
        shard_config: the *per-shard* configuration every worker builds its
            tree with (see :func:`~repro.core.sharded.shard_config_for`).
        num_workers: worker process count == shard count.
        start_method: multiprocessing start method; defaults to ``fork``
            where available (cheapest, inherits loaded modules) and the
            platform default elsewhere.
        faults: optional fault plan consulted at the
            ``parallel.worker-crash`` seam.
    """

    def __init__(
        self,
        schema: FlowSchema,
        shard_config: FlowtreeConfig,
        num_workers: int,
        start_method: Optional[str] = None,
        faults: Optional[FaultHooks] = None,
    ) -> None:
        if num_workers < 1:
            raise ConfigurationError(f"num_workers must be at least 1, got {num_workers}")
        # Workers rebuild the schema from its name, so it must resolve to an
        # equivalent registered schema — fail here, not with a dead child.
        try:
            registered = schema_by_name(schema.name)
        except Exception as exc:
            raise ConfigurationError(
                f"schema {schema.name!r} is not registered; worker processes "
                f"resolve schemas by name (see repro.features.schema)"
            ) from exc
        if registered != schema:
            raise ConfigurationError(
                f"schema {schema.name!r} differs from the registered schema of "
                f"that name; worker processes would summarize different keys"
            )
        self._schema = schema
        self._faults = faults
        self._num_workers = num_workers
        self._shard_config = shard_config
        self._context = worker_context(start_method)
        self._workers: List[_WorkerHandle] = []
        self._pending: Optional[PendingSummaries] = None
        self._closed = False
        self._view: Optional[Tuple[Flowtree, ...]] = None
        for index in range(num_workers):
            handle = _WorkerHandle(index)
            self._spawn(handle)
            self._workers.append(handle)

    # -- process management ---------------------------------------------------

    def _spawn(self, handle: _WorkerHandle) -> None:
        command_read, command_write = self._context.Pipe(duplex=False)
        reply_read, reply_write = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_shard_worker_main,
            args=(self._schema.name, self._shard_config, command_read, reply_write),
            name=f"flowtree-shard-{handle.index}",
            daemon=True,
        )
        process.start()
        # The parent must not hold the child's pipe ends, or worker death
        # would never surface as EOF / broken pipe here.
        command_read.close()
        reply_write.close()
        handle.process = process
        handle.commands = command_write
        handle.replies = reply_read

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker and rebuild its state exactly once.

        The replacement is restored from the checkpoint + journal pair that
        describes the generation the worker was folding; if a summary
        request is in flight for it, that summary is re-derived and slotted
        synchronously so the pipeline never observes the failure.
        """
        handle.restarts += 1
        for connection in (handle.commands, handle.replies):
            try:
                connection.close()
            except OSError:
                pass
        if handle.process is not None:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
        self._spawn(handle)
        try:
            pending = self._pending
            if pending is not None and pending.slots[handle.index] is None:
                checkpoint, journal = pending.basis[handle.index]
                self._raw_send(handle, _OP_RESTORE + (checkpoint or b""))
                for payload in journal:
                    self._raw_send(handle, _OP_BATCH + payload)
                self._raw_send(handle, _OP_SUMMARY + (b"1" if pending.reset else b"0"))
                pending.slots[handle.index] = handle.replies.recv_bytes()
                self._summary_collected(pending, handle.index)
            else:
                self._raw_send(handle, _OP_RESTORE + (handle.checkpoint or b""))
            for payload in handle.journal:
                self._raw_send(handle, _OP_BATCH + payload)
        except (BrokenPipeError, EOFError, OSError) as exc:
            # The replacement died during restore: a persistent startup
            # failure, not a transient crash.  Surface the contract error
            # instead of a bare pipe exception from deep inside recovery.
            raise WorkerError(
                f"shard worker {handle.index} died again while being restored "
                f"(restart {handle.restarts}); worker startup is failing"
            ) from exc

    def _raw_send(self, handle: _WorkerHandle, message: bytes) -> None:
        handle.commands.send_bytes(message)

    def _send(self, handle: _WorkerHandle, message: bytes) -> None:
        """Send with crash recovery; the journal makes resends exactly-once."""
        for _attempt in range(_MAX_RESTARTS_PER_OP):
            try:
                self._raw_send(handle, message)
                return
            except (BrokenPipeError, EOFError, OSError):
                self._respawn(handle)
                # _respawn rebuilds in-flight state itself: a batch payload
                # is already in the journal it replays, and an outstanding
                # summary request is re-issued and collected synchronously —
                # resending either would double-apply it.
                if message[:1] == _OP_BATCH:
                    return
                if message[:1] == _OP_SUMMARY:
                    pending = self._pending
                    if pending is None or pending.slots[handle.index] is not None:
                        return
        raise WorkerError(
            f"shard worker {handle.index} kept dying "
            f"({_MAX_RESTARTS_PER_OP} respawns); giving up"
        )

    def _recv(self, handle: _WorkerHandle, request: bytes) -> bytes:
        """Receive one reply, re-issuing ``request`` after a crash."""
        for _attempt in range(_MAX_RESTARTS_PER_OP):
            try:
                return handle.replies.recv_bytes()
            except (EOFError, OSError):
                self._respawn(handle)
                self._raw_send(handle, request)
        raise WorkerError(
            f"shard worker {handle.index} kept dying "
            f"({_MAX_RESTARTS_PER_OP} respawns); giving up"
        )

    # -- summary pipeline -----------------------------------------------------

    def begin_summaries(self, reset: bool = False) -> PendingSummaries:
        """Ask every worker for its serialized shard tree, without waiting.

        With ``reset=True`` each worker starts a fresh (empty) tree right
        after serializing — the daemon's bin rollover — and batches
        submitted afterwards belong to the new generation.  Only one round
        may be in flight; starting another collects the previous one first.
        """
        self._ensure_open()
        self._collect_outstanding()
        pending = PendingSummaries(self, reset)
        if reset:
            # The workers' trees restart empty; any cached local view now
            # describes the finished generation, not the structure.
            self._view = None
        for index, handle in enumerate(self._workers):
            pending.basis[index] = (handle.checkpoint, handle.journal)
            handle.journal = []
            if reset:
                handle.checkpoint = None
            self._pending = pending  # visible to recovery from this send on
            self._send(handle, _OP_SUMMARY + (b"1" if reset else b"0"))
        return pending

    def _summary_collected(self, pending: PendingSummaries, index: int) -> None:
        handle = self._workers[index]
        if not pending.reset:
            handle.checkpoint = pending.slots[index]
        pending.basis[index] = (None, [])
        if pending.done and self._pending is pending:
            self._pending = None

    def _poll_summary(self, pending: PendingSummaries, index: int) -> None:
        handle = self._workers[index]
        try:
            if not handle.replies.poll(0):
                return
            pending.slots[index] = handle.replies.recv_bytes()
        except (EOFError, OSError):
            self._respawn(handle)   # re-derives and slots the summary itself
            return
        self._summary_collected(pending, index)

    def _await_summary(self, pending: PendingSummaries, index: int) -> None:
        handle = self._workers[index]
        for _attempt in range(_MAX_RESTARTS_PER_OP):
            try:
                pending.slots[index] = handle.replies.recv_bytes()
                self._summary_collected(pending, index)
                return
            except (EOFError, OSError):
                self._respawn(handle)
                if pending.slots[index] is not None:
                    return
        raise WorkerError(
            f"shard worker {index} kept dying "
            f"({_MAX_RESTARTS_PER_OP} respawns); giving up"
        )

    def _collect_outstanding(self) -> None:
        if self._pending is not None:
            self._pending.collect()

    def shard_summaries(self, reset: bool = False) -> List[bytes]:
        """Serialized per-shard summaries, in shard order (blocking)."""
        return self.begin_summaries(reset=reset).collect()

    def shard_trees(self) -> Tuple[Flowtree, ...]:
        """In-process replicas of the shard trees, in shard order.

        Cached until the next submission or reset, so repeated queries
        between batches cost one round-trip, not one per call.  Pulling
        them is a checkpoint (a summarize-without-reset round).
        """
        if self._view is None:
            self._view = tuple(from_bytes(payload) for payload in self.shard_summaries())
        return self._view

    @property
    def num_workers(self) -> int:
        """Worker process count (== shard count)."""
        return self._num_workers

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        index: int,
        items: List[Tuple[FlowKey, int, int, int]],
        record_count: int,
    ) -> None:
        """Hand shard ``index`` one pre-aggregated sub-batch to fold.

        Asynchronous: returns once the payload is journaled and written to
        the worker's pipe; the worker folds it through the same
        ``add_aggregated`` call an in-process shard would make.
        """
        self._ensure_open()
        self._view = None
        if self._faults is not None and self._faults.should_fire(_FAULT_WORKER_CRASH):
            # Kill the worker *before* the journal gains this batch: the
            # respawn replays checkpoint + journal (including this entry,
            # appended below), so the fold stays byte-identical.
            self.inject_worker_failure(index)
        handle = self._workers[index]
        pending = self._pending
        if pending is not None and pending.slots[index] is None:
            # A summary reply may be large; collecting it before handing the
            # worker new work keeps both pipes drained (no write-write
            # deadlock between a blocked parent and a blocked worker).
            pending.collect_worker(index)
        payload = encode_aggregated_batch(items, record_count)
        handle.journal.append(payload)
        handle.batches_sent += 1
        handle.payload_bytes += len(payload)
        self._send(handle, _OP_BATCH + payload)
        if (
            len(handle.journal) >= _JOURNAL_CHECKPOINT_ENTRIES
            and self._pending is None
        ):
            # Refresh the checkpoints so the replay buffer cannot grow with
            # the stream; a summarize-without-reset leaves every shard tree
            # untouched, so results are unaffected.
            self.shard_summaries()

    # -- stats and test hooks ---------------------------------------------------

    def shard_stats(self) -> List[Dict[str, int]]:
        """Per-worker ``UpdateStats`` snapshots plus ``nodes``, in shard order."""
        self._ensure_open()
        self._collect_outstanding()
        snapshots = []
        for handle in self._workers:
            self._send(handle, _OP_STATS)
            snapshots.append(json.loads(self._recv(handle, _OP_STATS).decode("utf-8")))
        return snapshots

    def stats(self) -> Dict[str, int]:
        """Pool-level counters: ``workers``, ``batches_submitted``,
        ``submitted_payload_bytes``, ``worker_restarts`` and
        ``journal_entries`` (the replay depth of the crash-recovery buffer)."""
        return {
            "workers": self._num_workers,
            "batches_submitted": sum(h.batches_sent for h in self._workers),
            "submitted_payload_bytes": sum(h.payload_bytes for h in self._workers),
            "worker_restarts": sum(h.restarts for h in self._workers),
            "journal_entries": sum(len(h.journal) for h in self._workers),
        }

    def inject_worker_failure(self, index: int) -> None:
        """Kill one worker mid-stream (test hook for the recovery path).

        The worker dies as if SIGKILLed after its last processed command;
        everything it folded since its last collected summary is rebuilt
        from the parent's checkpoint + journal on the next interaction.
        """
        self._ensure_open()
        handle = self._workers[index]
        try:
            self._raw_send(handle, _OP_CRASH)
        except (BrokenPipeError, EOFError, OSError):
            pass
        handle.process.join(timeout=5.0)

    def _ensure_open(self) -> None:
        if self._closed:
            raise WorkerError("ShardWorkerPool is closed")

    def close(self) -> None:
        """Shut every worker down (idempotent; further use raises)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            try:
                handle.commands.send_bytes(_OP_QUIT)
            except (BrokenPipeError, EOFError, OSError):
                pass
        for handle in self._workers:
            if handle.process is not None:
                handle.process.join(timeout=2.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=2.0)
            for connection in (handle.commands, handle.replies):
                try:
                    connection.close()
                except OSError:
                    pass

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown ordering
        try:
            self.close()
        except Exception:  # flowlint: disable=exception-hygiene
            # During interpreter shutdown the worker pipes and module
            # globals may already be torn down; __del__ must never raise.
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ShardWorkerPool(schema={self._schema.name!r}, "
            f"workers={self._num_workers}, {state})"
        )
