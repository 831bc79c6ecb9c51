"""Evaluation and reporting: the code that regenerates the paper's results.

* :mod:`repro.analysis.accuracy` — estimated vs. actual popularity,
  diagonal fraction, heavy-flow recall (Fig. 3).
* :mod:`repro.analysis.histogram` — the log-binned 2-D histogram those
  figures are drawn from.
* :mod:`repro.analysis.storage` — raw capture vs. summary sizes
  (storage-reduction claim) and full-vs-diff transfer volume.
* :mod:`repro.analysis.heavyhitters` — heavy-hitter presence and
  detection precision/recall.
* :mod:`repro.analysis.drilldown` — operator-style investigations.
* :mod:`repro.analysis.report` — plain-text tables for benchmark output.
"""

from repro.analysis.accuracy import AccuracyEvaluator, AccuracyReport, error_percentiles
from repro.analysis.drilldown import InvestigationReport, investigate, port_profile
from repro.analysis.heavyhitters import HeavyHitterReport, heavy_hitter_report
from repro.analysis.histogram import Histogram2D
from repro.analysis.report import (
    comparison_line,
    format_bytes,
    format_count,
    format_fraction,
    render_kv,
    render_table,
)
from repro.analysis.storage import (
    StorageReport,
    StoreFootprint,
    TransferReport,
    storage_report,
    store_footprint,
    transfer_report,
)

__all__ = [
    "AccuracyEvaluator",
    "AccuracyReport",
    "error_percentiles",
    "Histogram2D",
    "StorageReport",
    "StoreFootprint",
    "TransferReport",
    "storage_report",
    "store_footprint",
    "transfer_report",
    "HeavyHitterReport",
    "heavy_hitter_report",
    "InvestigationReport",
    "investigate",
    "port_profile",
    "render_table",
    "render_kv",
    "format_bytes",
    "format_count",
    "format_fraction",
    "comparison_line",
]
