"""Configuration for Flowtree construction and self-adjustment.

The paper's evaluation uses a single knob — the node budget (40 k nodes for
a 6 M packet trace).  The implementation exposes that plus the secondary
knobs that govern *when* compaction runs (watermarks) and *how* victims are
selected, so the ablation benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class FlowtreeConfig:
    """Tuning parameters of a :class:`~repro.core.flowtree.Flowtree`.

    Attributes:
        max_nodes: hard node budget (the paper's "40 K nodes"); when the
            tree grows past this the compactor folds unpopular nodes into
            their parents.  ``None`` disables compaction entirely (exact
            mode — useful for ground truth and tests).
        target_fill: after compaction the tree is reduced to
            ``max_nodes * target_fill`` nodes, so compaction runs in
            batches instead of on every insert.
        policy: name of the generalization policy that defines the
            canonical parent chain (see :mod:`repro.core.policy`).
        count_bytes: whether byte counters are tracked in addition to
            packet and flow counters.
        victim_batch: how many low-contribution nodes are grouped per
            compaction round before folding (larger batches aggregate more
            aggressively into intermediate nodes).
        protected_min_count: nodes whose complementary popularity is at
            least this value are never selected as compaction victims.
        ip_stride: how many prefix bits one generalization step removes
            from IP features.  Smaller strides give finer aggregation
            levels but longer canonical chains (slower inserts); the paper
            mixes granularities (/30, /24, /8 in Fig. 2), which a stride of
            2–8 approximates well.
        port_stride: generalization step width, in bits, for port ranges.

    Which compaction strategy enforces the budget is not configurable: the
    tree picks it from the overshoot it observes (see
    :func:`repro.core.compaction.rebuild_pays_off`).
    """

    max_nodes: Optional[int] = 40_000
    target_fill: float = 0.8
    policy: str = "round-robin"
    count_bytes: bool = True
    victim_batch: int = 64
    protected_min_count: int = 0
    ip_stride: int = 4
    port_stride: int = 4

    def __post_init__(self) -> None:
        if self.max_nodes is not None:
            if not isinstance(self.max_nodes, int) or isinstance(self.max_nodes, bool):
                raise ConfigurationError(f"max_nodes must be an int or None, got {self.max_nodes!r}")
            if self.max_nodes < 16:
                raise ConfigurationError(
                    f"max_nodes must be at least 16 (got {self.max_nodes}); "
                    "smaller budgets cannot hold the root plus a useful working set"
                )
        if not 0.1 <= self.target_fill <= 1.0:
            raise ConfigurationError(
                f"target_fill must be in [0.1, 1.0], got {self.target_fill}"
            )
        if self.victim_batch < 1:
            raise ConfigurationError(f"victim_batch must be positive, got {self.victim_batch}")
        if self.protected_min_count < 0:
            raise ConfigurationError(
                f"protected_min_count must be non-negative, got {self.protected_min_count}"
            )
        if not 1 <= self.ip_stride <= 32:
            raise ConfigurationError(f"ip_stride must be in [1, 32], got {self.ip_stride}")
        if not 1 <= self.port_stride <= 16:
            raise ConfigurationError(
                f"port_stride must be in [1, 16], got {self.port_stride}"
            )

    @property
    def target_nodes(self) -> Optional[int]:
        """Node count compaction reduces the tree to (low watermark)."""
        if self.max_nodes is None:
            return None
        return max(16, int(self.max_nodes * self.target_fill))

    @property
    def compaction_enabled(self) -> bool:
        """``True`` unless the tree runs in exact (unbounded) mode."""
        return self.max_nodes is not None


#: Configuration used throughout the paper's evaluation (Fig. 3).
PAPER_EVAL_CONFIG = FlowtreeConfig(max_nodes=40_000, policy="round-robin")

#: Unbounded configuration (no compaction) — exact hierarchical aggregation.
EXACT_CONFIG = FlowtreeConfig(max_nodes=None)
