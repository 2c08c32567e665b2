"""Adaptivity policy (paper §3.4): the monitor/analyze half of the MAPE loop.

The controller keeps query statistics for a tumbling monitoring window μ —
here expressed in *batches* (a batch of 16 parallel queries is the unit of
arrival). It triggers repartitioning when the window's average query
locality drops below Φ = 0.7, or when the window's workload imbalance
reaches 2δ — the paper's Q-cut "always ensures workload balance under
dynamic query workload" (§4.2, Fig. 6e): balance violations make the
current partitioning suboptimal just as locality violations do. It never
repartitions in the batch right after a repartition.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sync.barriers import imbalance

PHI = 0.7                  # locality threshold Φ (paper: 0.7)
DELTA = 0.25               # allowed imbalance δ of a Q-cut placement (paper: 0.25)
# δ bounds what the ILS may *produce*; the trigger only fires on imbalance
# Q-cut could actually repair — hotspot structure puts the achievable floor
# above δ itself
IMBALANCE_TRIGGER = 2 * DELTA
WINDOW_BATCHES = 6         # monitoring window μ in batches (≤ 96 queries)
MIN_WINDOW_QUERIES = 48    # no Q-cut before the window holds "a few dozen
                           # queries" (paper §4.1 iii)
PLAN_WINDOW_QUERIES = 128  # paper's query cap on the window Q-cut plans over


@dataclass
class AdaptiveController:
    """Collects per-batch observations and decides when to repartition.

    Each observed batch is kept as numpy arrays, in observation order:
    its qids, their locality and the per-worker workload totals."""

    _batches: list[int] = field(default_factory=list)
    _qids: list[np.ndarray] = field(default_factory=list)
    _locality: list[np.ndarray] = field(default_factory=list)
    _worker_totals: list[np.ndarray] = field(default_factory=list)
    _last_repartition: int = -10**9

    def observe_batch(self, batch: int, qids: np.ndarray, locality: np.ndarray,
                      worker_totals: np.ndarray) -> None:
        """Record the stats piggybacked on this batch's barrier messages:
        the locality of each query of ``qids`` and the per-worker
        active-vertex workload totals."""
        self._batches.append(batch)
        self._qids.append(np.asarray(qids, dtype=np.int64))
        self._locality.append(np.asarray(locality, dtype=float))
        self._worker_totals.append(np.asarray(worker_totals, dtype=float))

    def _window(self, batch: int) -> np.ndarray:
        """Positions of the observed batches inside the window ending at ``batch``."""
        b = np.asarray(self._batches, dtype=np.int64)
        return np.flatnonzero((b > batch - WINDOW_BATCHES) & (b <= batch))

    def window_qids(self, batch: int) -> np.ndarray:
        """Queries inside the monitoring window ending at ``batch``."""
        return np.concatenate([np.empty(0, np.int64)]
                              + [self._qids[i] for i in self._window(batch)])

    def window_locality(self, batch: int) -> float:
        loc = np.concatenate([np.empty(0)] + [self._locality[i] for i in self._window(batch)])
        return float(loc.mean()) if len(loc) else 1.0  # no stats: nothing to react to

    def window_imbalance(self, batch: int) -> float:
        """Imbalance of per-worker workload summed over the window (the
        paper's 60 s workload window, Fig. 6e) — summing first removes the
        sampling noise of a single 16-query batch."""
        mats = [self._worker_totals[i] for i in self._window(batch)]
        return imbalance(np.sum(mats, axis=0)) if mats else 0.0

    def should_repartition(self, batch: int) -> bool:
        if batch <= self._last_repartition:
            return False
        if len(self.window_qids(batch)) < MIN_WINDOW_QUERIES:
            return False
        return (
            self.window_locality(batch) < PHI
            or self.window_imbalance(batch) >= IMBALANCE_TRIGGER
        )

    def repartitioned(self, batch: int) -> None:
        self._last_repartition = batch
