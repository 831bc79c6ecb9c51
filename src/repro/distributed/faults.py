"""Deterministic, seeded fault injection for the distributed system.

A :class:`FaultPlan` is armed with named faults and handed to the
components that expose injection *seams* — explicit, zero-cost-when-off
checkpoints at exactly the places real deployments fail:

========================  =========================================================
seam name                 where it fires
========================  =========================================================
``net.client.frame-drop``       :class:`~repro.distributed.net.client.SiteClient`
                                tears the connection down instead of writing the
                                frame (models a connection that died mid-send)
``net.client.frame-duplicate``  the frame is written twice with the same frame
                                number (a true wire-level duplicate)
``net.client.frame-corrupt``    one byte of the outgoing frame is flipped past the
                                length prefix (caught by the frame CRC server-side)
``net.client.frame-delay``      the sender sleeps briefly before the write
``store.commit-fail``           :meth:`TimeSeriesStore.put` raises
                                :class:`~repro.core.errors.FaultError` before any
                                mutation (a failed durable commit)
``store.torn-write``            the segment backend appends a *partial* payload and
                                dies before the index commit (a torn write that
                                must stay invisible after reopen)
``collector.kill``              :meth:`Collector.ingest` marks the collector dead
                                and raises
                                :class:`~repro.core.errors.CollectorUnavailableError`
========================  =========================================================

Every component takes ``faults=None`` by default; the only cost of a
disabled plan is one ``is not None`` check per seam, and behavior is
bit-for-bit unchanged.

Determinism: each seam draws from its **own** ``random.Random`` seeded
from ``(plan seed, seam name)``, so a seam's fire/no-fire sequence is a
pure function of the seed and the seam's occurrence order — independent
of which threads the other seams run on.  Armed with ``max_fires``
bounds, a plan is guaranteed to go quiet, which is what lets the chaos
soak assert convergence to the fault-free answer (see
``tests/test_chaos.py`` and ``docs/operations.md``).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError, FaultError

__all__ = [
    "FaultPlan",
    "FaultError",
    "FAULT_FRAME_DROP",
    "FAULT_FRAME_DUPLICATE",
    "FAULT_FRAME_CORRUPT",
    "FAULT_FRAME_DELAY",
    "FAULT_STORE_COMMIT",
    "FAULT_STORE_TORN_WRITE",
    "FAULT_COLLECTOR_KILL",
]

FAULT_FRAME_DROP = "net.client.frame-drop"
FAULT_FRAME_DUPLICATE = "net.client.frame-duplicate"
FAULT_FRAME_CORRUPT = "net.client.frame-corrupt"
FAULT_FRAME_DELAY = "net.client.frame-delay"
FAULT_STORE_COMMIT = "store.commit-fail"
FAULT_STORE_TORN_WRITE = "store.torn-write"
FAULT_COLLECTOR_KILL = "collector.kill"


@dataclass
class _ArmedFault:
    """One armed fault's configuration and firing state."""

    probability: float
    max_fires: Optional[int]
    after: int
    fires: int = 0


class FaultPlan:
    """A seeded schedule of named faults, shared by every seam of a run.

    ``arm`` a fault, hand the plan to the components under test
    (``Deployment(..., faults=plan)`` wires every seam at once), and the
    seams consult :meth:`should_fire` as execution reaches them::

        plan = FaultPlan(seed=7)
        plan.arm(FAULT_FRAME_DROP, probability=0.25, max_fires=3)
        plan.arm(FAULT_COLLECTOR_KILL, after=1, max_fires=1)

    All methods are thread-safe: seams run on client event loops, server
    loops and the driving thread concurrently.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._lock = threading.Lock()
        self._armed: Dict[str, _ArmedFault] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._occurrences: Dict[str, int] = {}
        self._fired: List[Tuple[str, int]] = []

    @property
    def seed(self) -> int:
        """The seed every per-seam RNG derives from."""
        return self._seed

    def rng_for(self, name: str) -> random.Random:
        """The dedicated RNG of one seam (stable for a given seed + name).

        Seams use it for fault *parameters* (which byte to flip, how long
        to sleep); :meth:`should_fire` draws fire/no-fire decisions from
        the same stream, so each seam's behavior depends only on its own
        occurrence order.
        """
        with self._lock:
            rng = self._rngs.get(name)
            if rng is None:
                # String seeding hashes all bytes of the seed (stable
                # across processes, unaffected by PYTHONHASHSEED).
                rng = random.Random(f"{self._seed}:{name}")
                self._rngs[name] = rng
            return rng

    def arm(
        self,
        name: str,
        probability: float = 1.0,
        max_fires: Optional[int] = None,
        after: int = 0,
    ) -> "FaultPlan":
        """Arm one named fault (chainable).

        Args:
            name: the seam name (any string; unknown names simply never
                reach a seam).
            probability: chance of firing per occurrence, in ``(0, 1]``.
            max_fires: stop firing after this many fires (``None`` =
                unbounded).  Bounded plans are what convergence tests
                want: the system must heal once the plan goes quiet.
            after: skip this many occurrences before the fault becomes
                eligible (e.g. "kill on the second ingest").
        """
        if not 0.0 < probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in (0, 1], got {probability}"
            )
        if max_fires is not None and max_fires < 0:
            raise ConfigurationError(f"max_fires must be >= 0, got {max_fires}")
        if after < 0:
            raise ConfigurationError(f"after must be >= 0, got {after}")
        with self._lock:
            self._armed[name] = _ArmedFault(
                probability=probability, max_fires=max_fires, after=after
            )
        return self

    def disarm(self, name: str) -> None:
        """Stop a fault from firing (its occurrence/fire history is kept)."""
        with self._lock:
            self._armed.pop(name, None)

    def should_fire(self, name: str) -> bool:
        """One seam occurrence: decide (and record) whether the fault fires."""
        with self._lock:
            occurrence = self._occurrences.get(name, 0) + 1
            self._occurrences[name] = occurrence
            armed = self._armed.get(name)
            if armed is None:
                return False
            if occurrence <= armed.after:
                return False
            if armed.max_fires is not None and armed.fires >= armed.max_fires:
                return False
        # The RNG draw happens outside the plan lock (rng_for re-locks);
        # per-seam determinism only needs each seam's draws to stay in its
        # own occurrence order, which the per-name RNG guarantees.
        fire = armed.probability >= 1.0 or self.rng_for(name).random() < armed.probability
        if fire:
            with self._lock:
                armed.fires += 1
                self._fired.append((name, occurrence))
        return fire

    def occurrences(self, name: str) -> int:
        """How many times a seam consulted the plan (fired or not)."""
        with self._lock:
            return self._occurrences.get(name, 0)

    def fires(self, name: str) -> int:
        """How many times a fault actually fired."""
        with self._lock:
            armed = self._armed.get(name)
            if armed is not None:
                return armed.fires
            return sum(1 for fired_name, _ in self._fired if fired_name == name)

    def fired(self) -> List[Tuple[str, int]]:
        """Chronological ``(seam name, occurrence number)`` fire log."""
        with self._lock:
            return list(self._fired)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-seam ``{"occurrences", "fires"}`` counters (reporting aid)."""
        with self._lock:
            names = set(self._occurrences) | set(self._armed)
            out: Dict[str, Dict[str, int]] = {}
            for name in sorted(names):
                armed = self._armed.get(name)
                out[name] = {
                    "occurrences": self._occurrences.get(name, 0),
                    "fires": armed.fires if armed is not None else sum(
                        1 for fired_name, _ in self._fired if fired_name == name
                    ),
                }
            return out

    def inject(self, name: str, detail: str) -> FaultError:
        """Build the error an injected failure raises (seam helper)."""
        return FaultError(f"fault injection [{name}]: {detail}")
