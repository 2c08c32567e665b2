"""High-level Q-cut solution state (paper §3.2.2 + Appendix A.1).

The state is the controller's scalable representation of global knowledge:
a matrix of local-query-scope sizes ``ls[c, w] = |LS(c, w)|`` for movable
units ``c`` (query clusters, cf. :mod:`repro.core.clustering`) and workers
``w``, plus the per-worker workload ``L_w`` of Appendix A.1
(``L_w = (|V(w)| + Σ_c |LS(c,w)|) / 2``). A move of a local scope updates
``L`` by the scope size ``x`` exactly as Algorithm 2 line 15 does.

Cost function (§3.2.2): for every query, every vertex not on the worker
holding the query's largest local scope costs one unit —
``c_s = Σ_c (Σ_w ls[c,w] − max_w ls[c,w])``. Zero cost ⇔ every query fully
local.
"""
from __future__ import annotations

import numpy as np


def balanced(lo: float, hi: float, delta: float) -> bool:
    """All-pairs δ-balance of Appendix A.1, from the lowest and the highest
    worker load."""
    return hi <= 0 or (hi - lo) / hi < delta


def move_allowed(L: list[float], w: int, w2: int, x: float, delta: float) -> bool:
    """δ-balance predicate of Alg. 2 line 15 for moving a scope of size
    ``x`` from worker w to w2 under the loads ``L``: |(L_w − x) − (L_w2 +
    x)| / max(·) < δ, or max(·) ≤ 0. Empty scopes and w = w2 are never
    allowed."""
    if x <= 0 or w == w2:
        return False
    lw, lw2 = L[w] - x, L[w2] + x
    m = max(lw, lw2)
    return m <= 0 or abs(lw - lw2) / m < delta


def improving_moves(row: list[float]) -> list[tuple[float, int, int]]:
    """The moves of one cluster's scopes that lower the cost, as (cost
    change d, w, w2) in (w, w2) order; ``row[w]`` = |LS(c, w)|.

    Moving x = row[w] onto w2 makes the row's maximum ``max(row[w2] + x,
    max_{j≠w} row[j])``, which exceeds the old maximum ``top`` only if
    ``row[w2] + x > top``. So exactly those moves lower the cost, and by
    ``top − (row[w2] + x)``; both scopes are then non-empty."""
    top = max(row, default=0.0)
    scopes = [w for w, x in enumerate(row) if x > 0]
    return [(top - (row[w2] + row[w]), w, w2)
            for w in scopes for w2 in scopes
            if w2 != w and row[w2] + row[w] > top]


class QcutState:
    """Mutable ILS solution state; copy() before speculative edits."""

    def __init__(self, ls: np.ndarray, vcounts: np.ndarray, delta: float):
        ls = np.asarray(ls, dtype=float)
        if ls.ndim != 2:
            raise ValueError("ls must be (clusters x workers)")
        self.ls = ls.copy()
        self.k = ls.shape[1]
        self.delta = float(delta)
        vcounts = np.asarray(vcounts, dtype=float)
        if vcounts.shape != (self.k,):
            raise ValueError("vcounts must have one entry per worker")
        # Appendix A.1 workload; updated incrementally by moves thereafter.
        self.L = (vcounts + ls.sum(axis=0)) / 2.0
        # provenance: for each cluster, where the scope initially at worker
        # w currently lives — needed to emit move(LS(q,w), w, w') requests.
        self.origins: list[dict[int, int]] = [
            {int(w): int(w) for w in np.flatnonzero(ls[c] > 0)}
            for c in range(ls.shape[0])
        ]

    def copy(self) -> "QcutState":
        new = object.__new__(QcutState)
        new.ls = self.ls.copy()
        new.k = self.k
        new.delta = self.delta
        new.L = self.L.copy()
        new.origins = [dict(o) for o in self.origins]
        return new

    # ---- cost -------------------------------------------------------------
    def cost(self) -> float:
        """Query-cut cost of §3.2.2 (vertices outside the argmax worker)."""
        if self.ls.size == 0:
            return 0.0
        return float((self.ls.sum(axis=1) - self.ls.max(axis=1)).sum())

    # ---- balance (Appendix A.1) -------------------------------------------
    def is_balanced(self) -> bool:
        """All-pairs balance predicate of Appendix A.1."""
        return balanced(self.L.min(), self.L.max(), self.delta)

    # ---- mutation ----------------------------------------------------------
    def move(self, c: int, w: int, w2: int) -> None:
        """Apply move(LS(c,w), w, w2) — merges into any scope already at w2."""
        x = self.ls[c, w]
        if x <= 0 or w == w2:
            return
        self.ls[c, w] = 0.0
        self.ls[c, w2] += x
        self.L[w] -= x
        self.L[w2] += x
        for w_init, cur in self.origins[c].items():
            if cur == w:
                self.origins[c][w_init] = int(w2)

    def update(self, ls: list[list[float]], L: list[float],
               moves: list[tuple[int, int, int]]) -> None:
        """Set the state to ``ls`` (one row per cluster) and ``L``, the
        result of applying the non-empty ``moves`` (c, w, w2) to it in order
        with the float operations of :meth:`move`; the origins follow the
        moves."""
        if not moves:
            return
        self.ls[:] = ls
        self.L[:] = L
        for c, w, w2 in moves:
            o = self.origins[c]
            for w_init, cur in o.items():
                if cur == w:
                    o[w_init] = w2

    def spread_clusters(self) -> np.ndarray:
        """Clusters whose scopes span >= 2 workers (perturbation candidates)."""
        return np.flatnonzero((self.ls > 0).sum(axis=1) >= 2)
