"""``flowtree`` command-line interface.

Operator-facing entry points over the library:

* ``flowtree generate`` — write a synthetic trace (CAIDA-like, MAWI-like,
  DDoS, scan) as a CSV flow archive or pcap file,
* ``flowtree build`` — summarize a CSV or pcap capture into a Flowtree
  summary file,
* ``flowtree info`` — show a summary's schema, node count and sizes,
* ``flowtree query`` — estimate the popularity of a (generalized) flow key,
* ``flowtree top`` — most popular aggregates of a summary,
* ``flowtree merge`` / ``flowtree diff`` — combine summary files,
* ``flowtree drilldown`` — automated investigation below a key,
* ``flowtree collect`` — replay a capture through a daemon into a
  collector with a chosen storage backend (``--store memory|file``)
  and transport (``--transport memory|tcp``),
* ``flowtree store-info`` — reopen a durable collector store and report
  its sites, bins and footprint,
* ``flowtree lint`` — run flowlint, the AST-based invariant linter that
  enforces the repo's cross-module contracts (same engine as
  ``python -m repro.devtools.lint``).

Every subcommand works on files so the CLI composes with shell pipelines
the way operators expect; nothing here adds functionality that is not in
the library.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.drilldown import investigate
from repro.analysis.report import format_bytes, render_kv, render_table
from repro.analysis.storage import store_footprint
from repro.core.config import FlowtreeConfig
from repro.core.flowtree import Flowtree
from repro.core.key import FlowKey
from repro.core.serialization import from_bytes, size_report, to_bytes
from repro.devtools.lint.engine import main as _flowlint_main
from repro.distributed.collector import Collector, CollectorConfig, stored_identity
from repro.distributed.daemon import FlowtreeDaemon
from repro.distributed.net import CollectorServer, SiteClient
from repro.distributed.stores import STORE_KINDS, SegmentFileStore, holds_segment_store
from repro.distributed.supervisor import Supervisor, SupervisorConfig
from repro.distributed.transport import SimulatedTransport, Transport
from repro.features.schema import schema_by_name
from repro.flows.csv_io import read_csv, write_csv
from repro.flows.pcap import read_pcap, write_pcap
from repro.flows.records import packets_to_flows
from repro.traces import (
    CaidaLikeTraceGenerator,
    DdosTraceGenerator,
    MawiLikeTraceGenerator,
    PortScanTraceGenerator,
)

_GENERATORS = {
    "caida": CaidaLikeTraceGenerator,
    "mawi": MawiLikeTraceGenerator,
    "ddos": DdosTraceGenerator,
    "scan": PortScanTraceGenerator,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="flowtree",
        description="Flowtree: mergeable, self-adjusting summaries of hierarchical network flows",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="write a synthetic trace")
    generate.add_argument("--kind", choices=sorted(_GENERATORS), default="caida")
    generate.add_argument("--packets", type=int, default=100_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--format", choices=("csv", "pcap"), default="csv")
    generate.add_argument("output", type=Path)

    build = subparsers.add_parser("build", help="summarize a capture into a Flowtree file")
    build.add_argument("--schema", default="4f")
    build.add_argument("--max-nodes", type=int, default=40_000)
    build.add_argument("--policy", default="round-robin")
    build.add_argument("--input-format", choices=("csv", "pcap"), default="csv")
    build.add_argument("--batch-size", type=int, default=16_384,
                       help="records pre-aggregated per ingestion batch (0 = per-record)")
    build.add_argument("input", type=Path)
    build.add_argument("output", type=Path)

    info = subparsers.add_parser("info", help="describe a Flowtree summary file")
    info.add_argument("summary", type=Path)

    query = subparsers.add_parser("query", help="estimate the popularity of a flow key")
    query.add_argument("summary", type=Path)
    query.add_argument("key", nargs="+", help="one wire-format value per schema field ('*' = wildcard)")
    query.add_argument("--metric", choices=("packets", "bytes", "flows"), default="packets")

    top = subparsers.add_parser("top", help="most popular aggregates of a summary")
    top.add_argument("summary", type=Path)
    top.add_argument("-n", type=int, default=10)
    top.add_argument("--metric", choices=("packets", "bytes", "flows"), default="packets")

    merge = subparsers.add_parser("merge", help="merge several summary files into one")
    merge.add_argument("inputs", nargs="+", type=Path)
    merge.add_argument("--output", "-o", type=Path, required=True)

    diff = subparsers.add_parser("diff", help="subtract one summary from another")
    diff.add_argument("newer", type=Path)
    diff.add_argument("older", type=Path)
    diff.add_argument("--output", "-o", type=Path, required=True)

    collect = subparsers.add_parser(
        "collect",
        help="replay a capture through a daemon into a collector storage backend",
    )
    collect.add_argument("--schema", default="4f")
    collect.add_argument("--max-nodes", type=int, default=40_000)
    collect.add_argument("--input-format", choices=("csv", "pcap"), default="csv")
    collect.add_argument("--bin-width", type=float, default=60.0)
    collect.add_argument("--site", default="site-0",
                         help="site name the replayed records are attributed to")
    collect.add_argument("--store", choices=sorted(STORE_KINDS), default="memory",
                         help="collector storage backend")
    collect.add_argument("--store-path", type=Path, default=None,
                         help="directory of the file store")
    collect.add_argument("--retain-bins", type=int, default=None,
                         help="keep only the newest N bins per site")
    collect.add_argument("--transport", choices=("memory", "tcp"), default="memory",
                         help="ship summaries in-process or over a real "
                              "localhost TCP connection")
    collect.add_argument("--port", type=int, default=0,
                         help="TCP port the collector listens on (0 = ephemeral; "
                              "tcp transport only)")
    collect.add_argument("--supervised", action="store_true",
                         help="run a supervisor health check over the collector "
                              "and report its health snapshot")
    collect.add_argument("input", type=Path)

    # No abbreviations: ``--store`` would otherwise be read as ``--store-path``.
    sinfo = subparsers.add_parser(
        "store-info", help="reopen a durable collector store and describe it",
        allow_abbrev=False,
    )
    sinfo.add_argument("--store-path", type=Path, required=True)

    lint = subparsers.add_parser(
        "lint",
        help="run flowlint, the AST invariant linter, over source trees "
             "(exits 0=clean 1=findings 2=usage error; see `flowtree lint --help`)",
        add_help=False,
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to flowlint (see `flowtree lint --help`)",
    )

    drill = subparsers.add_parser("drilldown", help="investigate traffic below a key")
    drill.add_argument("summary", type=Path)
    drill.add_argument("key", nargs="+", help="starting key, one value per schema field")
    drill.add_argument("--feature", type=int, default=0, help="feature index to drill along")
    drill.add_argument("--metric", choices=("packets", "bytes", "flows"), default="packets")

    return parser


# -- subcommand implementations -------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = _GENERATORS[args.kind](seed=args.seed)
    if args.format == "pcap":
        count = write_pcap(args.output, generator.packets(args.packets))
    else:
        count = write_csv(args.output, packets_to_flows(generator.packets(args.packets)))
    print(f"wrote {count} records to {args.output}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    schema = schema_by_name(args.schema)
    config = FlowtreeConfig(max_nodes=args.max_nodes, policy=args.policy)
    if args.input_format == "pcap":
        records = read_pcap(args.input)
    else:
        records = read_csv(args.input)
    tree = Flowtree(schema, config)
    if args.batch_size > 0:
        consumed = tree.add_batch(records, batch_size=args.batch_size)
    else:
        consumed = tree.add_records(records)
    args.output.write_bytes(to_bytes(tree))
    print(
        f"summarized {consumed} records into {tree.node_count()} nodes "
        f"({format_bytes(args.output.stat().st_size)}) -> {args.output}"
    )
    return 0


def _load(path: Path) -> Flowtree:
    return from_bytes(path.read_bytes())


def _cmd_info(args: argparse.Namespace) -> int:
    tree = _load(args.summary)
    sizes = size_report(tree)
    totals = tree.total_counters()
    print(
        render_kv(
            f"Flowtree summary {args.summary}",
            {
                "schema": tree.schema.name,
                "policy": tree.config.policy,
                "max_nodes": tree.config.max_nodes,
                "nodes": sizes["nodes"],
                "packets": totals.packets,
                "bytes": totals.bytes,
                "flows": totals.flows,
                "binary_size": format_bytes(sizes["binary_bytes"]),
                "compressed_size": format_bytes(sizes["binary_compressed_bytes"]),
                "json_size": format_bytes(sizes["json_bytes"]),
            },
        )
    )
    return 0


def _parse_key(tree: Flowtree, parts: Sequence[str]) -> FlowKey:
    wire = ["*" if part in ("*", "-") else part for part in parts]
    return FlowKey.from_wire(tree.schema, wire)


def _cmd_query(args: argparse.Namespace) -> int:
    tree = _load(args.summary)
    key = _parse_key(tree, args.key)
    estimate = tree.estimate(key)
    print(
        render_kv(
            f"Estimate for {key.pretty()}",
            {
                "metric": args.metric,
                "estimate": estimate.value(args.metric),
                "exact_node": estimate.exact_node,
                "from_descendants": estimate.from_descendants.weight(args.metric),
                "from_ancestor": estimate.from_ancestor.weight(args.metric),
            },
        )
    )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    tree = _load(args.summary)
    rows = [
        {"rank": i + 1, "key": key.pretty(), args.metric: value}
        for i, (key, value) in enumerate(tree.top(args.n, metric=args.metric))
    ]
    print(render_table(rows))
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    trees = [_load(path) for path in args.inputs]
    merged = trees[0]
    for tree in trees[1:]:
        merged.merge(tree)
    args.output.write_bytes(to_bytes(merged))
    print(f"merged {len(trees)} summaries into {merged.node_count()} nodes -> {args.output}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    newer = _load(args.newer)
    older = _load(args.older)
    delta = newer.diff(older)
    args.output.write_bytes(to_bytes(delta))
    print(f"wrote diff with {delta.node_count()} nodes -> {args.output}")
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    schema = schema_by_name(args.schema)
    storage = FlowtreeConfig(max_nodes=args.max_nodes)
    config = CollectorConfig(
        bin_width=args.bin_width,
        storage=storage,
        store=args.store,
        store_path=str(args.store_path) if args.store_path is not None else None,
        retain_bins=args.retain_bins,
    )
    if args.port and args.transport != "tcp":
        raise ValueError("--port only applies to --transport tcp")
    server: Optional[CollectorServer] = None
    client: Optional[SiteClient] = None
    if args.transport == "tcp":
        server = CollectorServer(port=args.port).start()
        transport: Transport = server
    else:
        transport = SimulatedTransport()
    collector = Collector(schema, transport, config=config)
    if collector.store.durable:
        recovered = collector.reopen()
        if recovered:
            print(f"resumed store with existing sites: {', '.join(recovered)}")
    if server is not None:
        client = SiteClient(
            host=server.host, port=server.port,
            site=args.site, collector_name=collector.name,
        )
        daemon_transport: Transport = client
    else:
        daemon_transport = transport
    daemon = FlowtreeDaemon(
        args.site, schema, daemon_transport,
        collector_name=collector.name, bin_width=args.bin_width, config=storage,
    )
    if args.input_format == "pcap":
        records = read_pcap(args.input)
    else:
        records = read_csv(args.input)
    consumed = daemon.consume_records(records)
    daemon.flush()
    if client is not None:
        client.close()
    collector.poll()
    if args.supervised:
        supervisor = Supervisor(
            [collector],
            servers=[server] if server is not None else None,
            config=SupervisorConfig(poll_on_check=True),
        )
        snapshot = supervisor.check()[collector.name]
        print(render_kv(
            f"Supervisor health: {collector.name}",
            {
                "healthy": snapshot["healthy"],
                "server_running": snapshot["server_running"],
                "restarts": snapshot["restarts"],
                "last_error": snapshot["last_error"] or "-",
                "sites": snapshot["sites"],
                "pending_backlog": snapshot["pending_backlog"],
            },
        ))
    footprint = store_footprint(collector.store)
    report = {
        "records": consumed,
        "transport": args.transport,
        "sites": ", ".join(collector.sites),
        "bins": {site: len(collector.bins_for(site)) for site in collector.sites},
        "messages": collector.messages_processed,
        "payload_size": format_bytes(footprint.payload_bytes),
        "disk_size": format_bytes(footprint.disk_bytes),
    }
    if client is not None:
        report["wire_size"] = format_bytes(client.bytes_sent())
    print(render_kv(f"Collected {args.input} into {args.store} store", report))
    collector.close()
    if server is not None:
        server.close()
    return 0


def _cmd_store_info(args: argparse.Namespace) -> int:
    if not holds_segment_store(args.store_path):
        raise ValueError(f"{args.store_path} does not hold a collector store")
    store = SegmentFileStore(args.store_path)
    bin_width, schema_name = stored_identity(store)
    if bin_width is None or schema_name is None:
        store.close()
        raise ValueError(f"{args.store_path} does not hold a collector store")
    transport = SimulatedTransport()
    collector = Collector(
        schema_by_name(schema_name),
        transport,
        config=CollectorConfig(
            bin_width=bin_width, store="file", store_path=str(args.store_path)
        ),
        store=store,
    )
    sites = collector.reopen()
    footprint = store_footprint(store)
    print(
        render_kv(
            f"Collector store {args.store_path}",
            {
                "backend": footprint.backend,
                "schema": schema_name,
                "bin_width": bin_width,
                "sites": ", ".join(sites) if sites else "(none)",
                "bins": footprint.bins,
                "messages": collector.messages_processed,
                "payload_size": format_bytes(footprint.payload_bytes),
                "disk_size": format_bytes(footprint.disk_bytes),
            },
        )
    )
    for site in sites:
        series = collector.site_series(site)
        indices = series.bin_indices()
        totals = series.total_by_bin()
        print(
            f"  {site}: bins {indices[0]}..{indices[-1]} "
            f"({len(indices)} populated, {sum(totals.values())} packets)"
        )
    collector.close()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return _flowlint_main(args.lint_args, prog="flowtree lint")


def _cmd_drilldown(args: argparse.Namespace) -> int:
    tree = _load(args.summary)
    key = _parse_key(tree, args.key)
    report = investigate(tree, key, args.feature, metric=args.metric)
    print(report.describe())
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "build": _cmd_build,
    "info": _cmd_info,
    "query": _cmd_query,
    "top": _cmd_top,
    "merge": _cmd_merge,
    "diff": _cmd_diff,
    "drilldown": _cmd_drilldown,
    "collect": _cmd_collect,
    "store-info": _cmd_store_info,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``flowtree`` console script."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["lint"]:
        # Forwarded verbatim (argparse.REMAINDER would swallow leading
        # options like --list-rules before the subparser sees them).
        return _flowlint_main(arguments[1:], prog="flowtree lint")
    parser = build_parser()
    args = parser.parse_args(arguments)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except Exception as exc:  # surfaced as a clean error message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
