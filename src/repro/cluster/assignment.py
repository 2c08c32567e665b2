"""Vertex → worker assignment (the function A of paper Section 2).

Vertices are contiguous ``0..n-1``, so an assignment is a dense int array.
An assignment is immutable: the controller's ``move(LS(q,w), w, w')``
requests (paper Table 2) produce a new one
(``repro.controller.simulator._apply_qcut_moves``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Assignment:
    """Immutable vertex→worker map over ``k`` workers."""

    workers: np.ndarray  # int32, indexed by vid
    k: int

    def __post_init__(self):
        w = np.asarray(self.workers)
        if len(w) and (w.min() < 0 or w.max() >= self.k):
            raise ValueError("worker id out of range")

    def worker_of(self, vids) -> np.ndarray:
        """Vectorized lookup: worker id for each vid."""
        return self.workers[np.asarray(vids, dtype=np.int64)]

    def vertex_counts(self) -> np.ndarray:
        """|V(w)| for each worker (paper A.1 workload term)."""
        return np.bincount(self.workers, minlength=self.k)
