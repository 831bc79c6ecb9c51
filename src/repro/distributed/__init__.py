"""Distributed flow summarization (the paper's Fig. 1 system).

Per-router daemons summarize NetFlow/IPFIX exports into time-binned
Flowtrees, ship full or diff-encoded summaries over a byte-accounted
transport — the in-memory simulation or real asyncio TCP
(:mod:`repro.distributed.net`) — to one or more central collectors, and
a query engine plus an alert manager provide the operator-facing views:
cross-site volume queries (scatter/gathered across collectors),
drill-down and alarming on significant changes.
"""

from repro.core.errors import CollectorUnavailableError, FaultError
from repro.distributed.alerting import AlertManager, AlertPolicy
from repro.distributed.collector import Collector, CollectorConfig
from repro.distributed.daemon import DaemonStats, FlowtreeDaemon
from repro.distributed.faults import (
    FAULT_COLLECTOR_KILL,
    FAULT_FRAME_CORRUPT,
    FAULT_FRAME_DELAY,
    FAULT_FRAME_DROP,
    FAULT_FRAME_DUPLICATE,
    FAULT_STORE_COMMIT,
    FAULT_STORE_TORN_WRITE,
    FaultPlan,
)
from repro.distributed.diffsync import (
    DiffSyncDecoder,
    DiffSyncEncoder,
    EncodedSummary,
    transfer_comparison,
)
from repro.distributed.messages import (
    Alert,
    QueryRequest,
    QueryResponse,
    SummaryMessage,
    TransferLog,
)
from repro.distributed.net import CollectorServer, NetConfig, SiteClient
from repro.distributed.query_engine import DistributedQueryEngine, GatherResult
from repro.distributed.site import (
    Deployment,
    DeploymentCloseError,
    MonitoringSite,
    site_shard,
)
from repro.distributed.supervisor import (
    CollectorHealth,
    Supervisor,
    SupervisorConfig,
)
from repro.distributed.stores import (
    MemoryStore,
    SegmentFileStore,
    TimeSeriesStore,
    open_store,
)
from repro.distributed.timeseries import FlowtreeTimeSeries
from repro.distributed.transport import SimulatedTransport, Transport

__all__ = [
    "FlowtreeDaemon",
    "DaemonStats",
    "Collector",
    "CollectorConfig",
    "CollectorServer",
    "SiteClient",
    "NetConfig",
    "Transport",
    "DeploymentCloseError",
    "site_shard",
    "TimeSeriesStore",
    "MemoryStore",
    "SegmentFileStore",
    "open_store",
    "DistributedQueryEngine",
    "Deployment",
    "MonitoringSite",
    "FlowtreeTimeSeries",
    "SimulatedTransport",
    "DiffSyncEncoder",
    "DiffSyncDecoder",
    "EncodedSummary",
    "transfer_comparison",
    "AlertManager",
    "AlertPolicy",
    "Alert",
    "SummaryMessage",
    "QueryRequest",
    "QueryResponse",
    "TransferLog",
    "FaultPlan",
    "FaultError",
    "CollectorUnavailableError",
    "FAULT_FRAME_DROP",
    "FAULT_FRAME_DUPLICATE",
    "FAULT_FRAME_CORRUPT",
    "FAULT_FRAME_DELAY",
    "FAULT_STORE_COMMIT",
    "FAULT_STORE_TORN_WRITE",
    "FAULT_COLLECTOR_KILL",
    "GatherResult",
    "Supervisor",
    "SupervisorConfig",
    "CollectorHealth",
]
