"""Heavy-hitter detection quality.

The paper's accuracy section states that "all flows which account for more
than 1 % of the packets are present in the tree" and that medium/low
popularity flows are still captured with acceptable accuracy.  This module
quantifies both: presence (recall) of heavy flows at a configurable
threshold, and precision/recall of heavy-hitter *detection* (estimate above
threshold vs. truth above threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.baselines.exact import ExactAggregator
from repro.core.flowtree import Flowtree
from repro.core.key import FlowKey


@dataclass(frozen=True)
class HeavyHitterReport:
    """Detection quality at one threshold."""

    threshold_fraction: float
    threshold_count: int
    true_heavy: int
    detected: int
    true_positives: int
    precision: float
    recall: float
    all_heavy_present: bool

    def row(self) -> Dict[str, object]:
        """Flat dictionary for table rendering."""
        return {
            "threshold_fraction": self.threshold_fraction,
            "threshold_count": self.threshold_count,
            "true_heavy": self.true_heavy,
            "detected": self.detected,
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "all_heavy_present": self.all_heavy_present,
        }


def heavy_hitter_report(
    tree: Flowtree,
    truth: ExactAggregator,
    threshold_fraction: float = 0.01,
    metric: str = "packets",
) -> HeavyHitterReport:
    """Detection quality of ``tree`` against exact ground truth.

    A flow is *truly heavy* if its exact popularity is at least
    ``threshold_fraction`` of total traffic; it is *detected* if the
    summary's estimate reaches the same threshold.  ``all_heavy_present``
    is the paper's presence claim: every truly heavy flow is a kept node.
    """
    total = truth.total(metric)
    threshold_count = max(1, int(total * threshold_fraction))
    true_heavy = dict(truth.heavy_hitters(threshold_count, metric=metric))

    detected: List[Tuple[FlowKey, int]] = []
    for key in truth.keys():
        estimate = tree.estimate(key).value(metric)
        if estimate >= threshold_count:
            detected.append((key, estimate))

    detected_keys = {key for key, _ in detected}
    true_positive_keys = detected_keys & set(true_heavy)
    precision = len(true_positive_keys) / len(detected_keys) if detected_keys else 1.0
    recall = len(true_positive_keys) / len(true_heavy) if true_heavy else 1.0
    all_present = all(key in tree for key in true_heavy)
    return HeavyHitterReport(
        threshold_fraction=threshold_fraction,
        threshold_count=threshold_count,
        true_heavy=len(true_heavy),
        detected=len(detected_keys),
        true_positives=len(true_positive_keys),
        precision=precision,
        recall=recall,
        all_heavy_present=all_present,
    )
